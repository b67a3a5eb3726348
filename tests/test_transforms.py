import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpb import transforms
from qpb.errors import ConfigurationError
from qpb.grids import WaveFunction, inner_product_block, make_uniform_grid
from qpb.report import CHECKS, make_report
from qpb.states import conjugate_gaussian_pair, gaussian
from qpb.transforms import parseval_block, reciprocal_grid, to_momentum, to_position
from random_states import random_state

# |<g_0|g_c>| for two normalized unit-sigma Gaussians a distance c apart is
# exp(-c^2 / (4 sigma^2)); for c=4, sigma=1 that is exp(-4), frozen here from
# the closed form so the grid computation is checked against paper, not code.
GAUSSIAN_OVERLAP_CENTER_4 = 1.831563888873418e-02
PARSEVAL_TOLERANCE = CHECKS["fourier_parseval"].tolerance


def _grid(n=256, half=8.0, hbar=1.0):
    return make_uniform_grid(1, n, half, hbar)


def _inner(a, b):
    return complex(inner_product_block(a.values, b.values, a.grid))


def _parseval(psi):
    """parseval_block's terms for one position-representation state."""
    return parseval_block(psi.values, to_momentum(psi).values, psi.grid)


def test_reciprocal_grid_round_trips_exactly():
    grid = _grid(128, 6.0, 0.7)
    out = reciprocal_grid(grid)
    assert math.isclose(grid.spacing * out.spacing, 2.0 * math.pi * 0.7 / 128, rel_tol=1e-15)
    back = reciprocal_grid(out)
    assert back.compatible(grid)


def test_round_trip_identity_on_gaussian():
    psi = gaussian(_grid(), sigma=1.2, center=0.5, momentum=-0.8)
    back = to_position(to_momentum(psi))
    assert np.max(np.abs(back.values - psi.values)) < 1e-13
    assert back.representation == "position"


def test_transform_is_unitary_on_inner_products():
    grid = _grid()
    rng = np.random.default_rng(11)
    a = random_state(grid, rng)
    b = random_state(grid, rng)
    fa, fb = to_momentum(a), to_momentum(b)
    assert _inner(fa, fb) == pytest.approx(_inner(a, b), abs=1e-13)


def test_closed_form_gaussian_pair_matches_transform():
    grid_p = _grid(512, 16.0)
    psi_p, chi_r = conjugate_gaussian_pair(grid_p, sigma=1.0, center=0.7, momentum=1.3)
    chi_num = to_position(psi_p)
    assert chi_num.grid.compatible(chi_r.grid)
    assert np.max(np.abs(chi_num.values - chi_r.values)) < 1e-13


def test_translated_gaussian_overlap_matches_frozen_oracle():
    # method: <g(x)|g(x-4)> = exp(-c^2/(4 sigma^2)) with sigma=1, c=4, computed
    # once from the closed form and frozen; the grid value must agree to 1e-12
    grid = _grid(512, 16.0)
    a = gaussian(grid, sigma=1.0, center=0.0)
    b = gaussian(grid, sigma=1.0, center=4.0)
    overlap = abs(_inner(a, b))
    assert overlap == pytest.approx(GAUSSIAN_OVERLAP_CENTER_4, abs=1e-12)
    # unitarity carries the same number to the conjugate representation
    overlap_p = abs(_inner(to_momentum(a), to_momentum(b)))
    assert overlap_p == pytest.approx(GAUSSIAN_OVERLAP_CENTER_4, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_round_trip_property_random_band_limited(seed):
    grid = _grid(128, 8.0)
    psi = random_state(grid, np.random.default_rng(seed))
    back = to_position(to_momentum(psi))
    assert np.max(np.abs(back.values - psi.values)) < 1e-12


def test_momentum_kick_translates_transform():
    # exp(i q r / hbar) in position space shifts the momentum image by q
    grid = _grid(256, 8.0)
    q = 4 * reciprocal_grid(grid).spacing
    plain = gaussian(grid, sigma=1.0)
    kicked = gaussian(grid, sigma=1.0, momentum=q)
    f_plain = to_momentum(plain).values
    f_kicked = to_momentum(kicked).values
    assert np.max(np.abs(f_kicked - np.roll(f_plain, 4))) < 1e-12


def test_transform_requires_matching_representation():
    grid = _grid(64, 4.0)
    with pytest.raises(ConfigurationError, match="no transform direction for representation 'energy'"):
        transforms.transform_block(np.ones(64, dtype=complex), grid, "energy")


def test_each_direction_maps_onto_the_reciprocal_grid():
    psi = gaussian(_grid(64, 4.0), sigma=1.0)
    image = to_momentum(psi)
    assert image.representation == "momentum" and image.grid == reciprocal_grid(psi.grid)
    assert np.array_equal(image.values, transforms.transform_block(psi.values, psi.grid, "position"))
    back = to_position(image)
    assert back.representation == "position" and back.grid == reciprocal_grid(image.grid)
    assert np.array_equal(back.values, transforms.transform_block(image.values, image.grid, "momentum"))


def test_parseval_flags_boundary_clipped_state():
    grid = _grid(256, 8.0)
    # sigma comparable to the box: the tails carry visible boundary-band mass
    wide = gaussian(grid, sigma=6.0)
    terms = _parseval(wide)
    assert not make_report("fourier_parseval", terms["residual"]).passed
    assert terms["band_mass_input"] > PARSEVAL_TOLERANCE


def test_parseval_passes_well_contained_state():
    terms = _parseval(gaussian(_grid(), sigma=1.0))
    assert make_report("fourier_parseval", terms["residual"]).passed


def test_parseval_requires_normalized_state():
    grid = _grid(64, 4.0)
    psi = WaveFunction(grid=grid, representation="position", values=np.ones(64))
    with pytest.raises(ConfigurationError, match="parseval_block expects normalized states"):
        _parseval(psi)


def test_parseval_nan_sample_is_precondition_error():
    psi = gaussian(_grid(), sigma=1.0)
    values = np.array(psi.values)
    values[3] = np.nan
    with pytest.raises(ConfigurationError, match="parseval_block expects normalized states"):
        _parseval(WaveFunction(grid=psi.grid, representation=psi.representation, values=values))


def test_parseval_nan_band_mass_fails(monkeypatch):
    # a NaN in the last of the three terms was dropped by Python's max
    original = transforms.boundary_band_fraction
    calls = []

    def spoiled(values):
        calls.append(1)
        out = original(values)
        return out * np.nan if len(calls) == 2 else out

    monkeypatch.setattr(transforms, "boundary_band_fraction", spoiled)
    terms = _parseval(gaussian(_grid(), sigma=1.0))
    assert len(calls) == 2
    assert math.isnan(terms["residual"])
    assert not make_report("fourier_parseval", terms["residual"]).passed
