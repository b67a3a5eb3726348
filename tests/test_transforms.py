import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpb import transforms
from qpb.errors import ConfigurationError, PreconditionError, RepresentationError
from qpb.grids import WaveFunction, inner_product, make_uniform_grid
from qpb.states import conjugate_gaussian_pair, gaussian, random_band_limited
from qpb.transforms import check_parseval, reciprocal_grid, to_momentum, to_position, transform

# |<g_0|g_c>| for two normalized unit-sigma Gaussians a distance c apart is
# exp(-c^2 / (4 sigma^2)); for c=4, sigma=1 that is exp(-4), frozen here from
# the closed form so the grid computation is checked against paper, not code.
GAUSSIAN_OVERLAP_CENTER_4 = 1.831563888873418e-02


def _grid(n=256, half=8.0, hbar=1.0):
    return make_uniform_grid(1, n, half, hbar)


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
    a = random_band_limited(grid, rng)
    b = random_band_limited(grid, rng)
    fa, fb = to_momentum(a), to_momentum(b)
    assert inner_product(fa, fb) == pytest.approx(inner_product(a, b), abs=1e-13)


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
    overlap = abs(inner_product(a, b))
    assert overlap == pytest.approx(GAUSSIAN_OVERLAP_CENTER_4, abs=1e-12)
    # unitarity carries the same number to the conjugate representation
    overlap_p = abs(inner_product(to_momentum(a), to_momentum(b)))
    assert overlap_p == pytest.approx(GAUSSIAN_OVERLAP_CENTER_4, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_round_trip_property_random_band_limited(seed):
    grid = _grid(128, 8.0)
    psi = random_band_limited(grid, np.random.default_rng(seed))
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
    with pytest.raises(RepresentationError):
        transforms.transform_block(np.ones(64, dtype=complex), grid, "energy")


def test_transform_picks_the_direction_from_the_representation():
    psi = gaussian(_grid(64, 4.0), sigma=1.0)
    image = transform(psi)
    assert image.representation == "momentum"
    assert np.array_equal(image.values, to_momentum(psi).values)
    assert np.array_equal(transform(image).values, to_position(image).values)


def test_declared_output_grid_must_satisfy_reciprocity():
    psi = gaussian(_grid(64, 4.0), sigma=1.0)
    with pytest.raises(ConfigurationError):
        to_momentum(psi, out_grid=make_uniform_grid(1, 64, 3.0))


def test_parseval_flags_boundary_clipped_state():
    grid = _grid(256, 8.0)
    # sigma comparable to the box: the tails carry visible boundary-band mass
    wide = gaussian(grid, sigma=6.0)
    report = check_parseval(wide)
    assert not report.passed
    assert report.context["band_mass_input"] > report.tolerance


def test_parseval_passes_well_contained_state():
    report = check_parseval(gaussian(_grid(), sigma=1.0))
    assert report.passed
    assert report.check_id == "fourier_parseval"


def test_parseval_requires_normalized_state():
    grid = _grid(64, 4.0)
    psi = WaveFunction(grid=grid, representation="position", values=np.ones(64))
    with pytest.raises(PreconditionError):
        check_parseval(psi)


def test_parseval_nan_sample_is_precondition_error():
    psi = gaussian(_grid(), sigma=1.0)
    values = np.array(psi.values)
    values[3] = np.nan
    with pytest.raises(PreconditionError):
        check_parseval(psi.with_values(values))


def test_parseval_nan_band_mass_fails(monkeypatch):
    # a NaN in the last of the three terms was dropped by Python's max
    original = transforms.boundary_band_fraction
    calls = []

    def spoiled(values, band_divisor=8):
        calls.append(1)
        out = original(values, band_divisor)
        return out * np.nan if len(calls) == 2 else out

    monkeypatch.setattr(transforms, "boundary_band_fraction", spoiled)
    report = check_parseval(gaussian(_grid(), sigma=1.0))
    assert len(calls) == 2
    assert math.isnan(report.residual)
    assert not report.passed
