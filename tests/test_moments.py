import importlib
import math

import numpy as np
import pytest

from qpb.errors import ConfigurationError
from qpb.grids import WaveFunction, make_uniform_grid
from qpb.moments import Moments, moments, pair_moments_block, saturation_check, vector_uncertainty_check
from qpb.operators import momentum_operator, position_operator
from qpb.states import gaussian, gaussian_3d, oscillator_eigenstate
from random_states import random_state

# spread(X) = sigma / sqrt(2) and spread(P) = hbar / (sigma sqrt(2)) for a
# normalized Gaussian; frozen from the closed forms at sigma = 2, hbar = 1
GAUSSIAN_SIGMA2_SPREAD_X = 1.4142135623730951
GAUSSIAN_SIGMA2_SPREAD_P = 0.3535533905932738


# the package re-exports the function `moments`, which hides the module
moments_module = importlib.import_module("qpb.moments")


def _ops(grid):
    return position_operator(grid), momentum_operator(grid)


def _bound_violation(data):
    """The suite's clamped violation of spread_a * spread_b >= |<[A, B]>| / 2."""
    return np.maximum(0.0, data["half_commutator_magnitude"] - data["product"])


def test_gaussian_moments_match_closed_form():
    grid = make_uniform_grid(1, 512, 16.0)
    psi = gaussian(grid, sigma=2.0, center=0.5, momentum=1.0)
    x_op, p_op = _ops(grid)
    mx = moments(psi, x_op)
    mp = moments(psi, p_op)
    assert mx.mean == pytest.approx(0.5, abs=1e-10)
    assert mp.mean == pytest.approx(1.0, abs=1e-10)
    assert mx.spread == pytest.approx(GAUSSIAN_SIGMA2_SPREAD_X, abs=1e-10)
    assert mp.spread == pytest.approx(GAUSSIAN_SIGMA2_SPREAD_P, abs=1e-10)


def test_spread_scaling_under_dilation():
    # scaling sigma by s scales spread(X) by s and spread(P) by 1/s
    grid = make_uniform_grid(1, 512, 16.0)
    x_op, p_op = _ops(grid)
    base_x = moments(gaussian(grid, sigma=1.0), x_op).spread
    base_p = moments(gaussian(grid, sigma=1.0), p_op).spread
    for s in (0.5, 2.0):
        sx = moments(gaussian(grid, sigma=s), x_op).spread
        sp = moments(gaussian(grid, sigma=s), p_op).spread
        assert sx == pytest.approx(s * base_x, rel=1e-10)
        assert sp == pytest.approx(base_p / s, rel=1e-10)


def test_gaussian_saturates_bound():
    grid = make_uniform_grid(1, 256, 8.0)
    x_op, p_op = _ops(grid)
    for sigma in (0.75, 1.0, 1.5):
        report = saturation_check(gaussian(grid, sigma=sigma), x_op, p_op, 0.5)
        assert report.passed
        assert report.context["product"] == pytest.approx(0.5, abs=1e-10)


def test_hermite_levels_product():
    # spread product of level n is (n + 1/2) hbar exactly
    grid = make_uniform_grid(1, 256, 8.0)
    x_op, p_op = _ops(grid)
    for n in (1, 2, 3):
        psi = oscillator_eigenstate(grid, n)
        report = saturation_check(psi, x_op, p_op, n + 0.5, check_id="uncertainty_hermite_product")
        assert report.tolerance == 1e-6
        assert report.passed


def test_bound_holds_for_random_states():
    grid = make_uniform_grid(1, 256, 8.0)
    x_op, p_op = _ops(grid)
    rng = np.random.default_rng(23)
    for _ in range(100):
        psi = random_state(grid, rng)
        data = pair_moments_block(psi.values, grid, x_op, p_op)
        assert _bound_violation(data) <= 1e-8
        assert data["product"] >= 0.5 - 1e-9


def test_mean_imaginary_residue_reported_and_small():
    grid = make_uniform_grid(1, 256, 8.0)
    x_op, p_op = _ops(grid)
    rng = np.random.default_rng(29)
    psi = random_state(grid, rng)
    for op in (x_op, p_op):
        assert moments(psi, op).mean_imag_residue < 1e-10


def test_identical_operators_give_trivial_bound():
    # [X, X] = 0 so any nonnegative spread product satisfies the bound
    grid = make_uniform_grid(1, 256, 8.0)
    x_op, _ = _ops(grid)
    data = pair_moments_block(gaussian(grid, sigma=1.0).values, grid, x_op, x_op)
    assert _bound_violation(data) <= 1e-8
    assert data["half_commutator_magnitude"] < 1e-12


def test_bound_respects_hbar():
    grid = make_uniform_grid(1, 256, 8.0, hbar=0.25)
    x_op, p_op = _ops(grid)
    report = saturation_check(gaussian(grid, sigma=1.0), x_op, p_op, 0.125)
    assert report.passed
    assert report.context["half_commutator_magnitude"] == pytest.approx(0.125, abs=1e-10)


def test_checks_default_to_registered_ids():
    grid = make_uniform_grid(1, 256, 8.0)
    x_op, p_op = _ops(grid)
    saturation = saturation_check(gaussian(grid, sigma=1.0), x_op, p_op, 0.5)
    assert (saturation.check_id, saturation.tolerance) == ("uncertainty_gaussian_saturation", 1e-8)


def test_vector_bound_and_saturation():
    grid = make_uniform_grid(3, 64, 8.0)
    aniso = gaussian_3d(grid, sigmas=(1.0, 1.3, 0.7))
    assert vector_uncertainty_check(aniso, mode="bound").passed
    # every product Gaussian saturates axis by axis, anisotropic or not
    sat = vector_uncertainty_check(aniso, mode="saturation")
    assert sat.passed
    assert sat.context["sum_of_products"] == pytest.approx(1.5, abs=1e-9)


def test_vector_saturation_excludes_excited_factors():
    # a level-1 factor along one axis contributes 3/2 hbar on that axis, so
    # the sum is 5/2 hbar: the bound holds but saturation must fail
    grid = make_uniform_grid(3, 64, 8.0)
    axis_grid = make_uniform_grid(1, 64, 8.0)
    h1 = oscillator_eigenstate(axis_grid, 1)
    g = gaussian(axis_grid, sigma=1.0)
    values = np.einsum("i,j,k->ijk", h1.values, g.values, g.values)
    psi = WaveFunction(grid=grid, representation="position", values=values)
    assert vector_uncertainty_check(psi, mode="bound").passed
    off = vector_uncertainty_check(psi, mode="saturation")
    assert not off.passed
    assert off.context["sum_of_products"] == pytest.approx(2.5, abs=1e-6)


def test_vector_check_validates_inputs():
    grid1 = make_uniform_grid(1, 64, 8.0)
    with pytest.raises(ConfigurationError):
        vector_uncertainty_check(gaussian(grid1, sigma=1.0))
    grid3 = make_uniform_grid(3, 16, 8.0)
    psi = gaussian_3d(grid3, sigmas=(1.0, 1.0, 1.0))
    with pytest.raises(ConfigurationError):
        vector_uncertainty_check(psi, mode="sideways")


def test_moments_require_normalized_state():
    grid = make_uniform_grid(1, 64, 8.0)
    x_op, _ = _ops(grid)
    psi = WaveFunction(grid=grid, representation="position",
                       values=2.0 * gaussian(grid, sigma=1.0).values)
    with pytest.raises(ConfigurationError, match="moments are defined for normalized states"):
        moments(psi, x_op)


def test_moments_nan_state_is_precondition_error():
    grid = make_uniform_grid(1, 64, 8.0)
    x_op, _ = _ops(grid)
    values = np.array(gaussian(grid, sigma=1.0).values)
    values[10] = np.nan
    with pytest.raises(ConfigurationError, match="moments are defined for normalized states"):
        moments(WaveFunction(grid=grid, representation="position", values=values), x_op)


def test_hermiticity_slack_is_relative_to_the_operator_scale():
    grid = make_uniform_grid(1, 64, 8.0)
    values = gaussian(grid, sigma=1.0).values
    with pytest.raises(ConfigurationError, match="operator expectation is not real"):
        moments_module._moments_of(values, 1j * values, grid)
    # an imaginary residue of 1e8 at |A psi| ~ 7e19: far above the slack in
    # absolute terms, yet 1e-12 of the operator scale, so it is accepted
    x = grid.coordinate(0)
    scaled = 1e20 * (x * values + 1e-12j * values)
    m = moments_module._moments_of(values, scaled, grid)
    assert 1e7 < m.mean_imag_residue < 1e-10 * math.sqrt(m.second)
    assert m.spread > 0.0
    # the same operator with a residue of 1e-9 of its scale is not Hermitian
    with pytest.raises(ConfigurationError, match="operator expectation is not real"):
        moments_module._moments_of(values, 1e20 * (x * values + 1e-9j * values), grid)
    # a Hermitian operator at a large scale ends in its moments
    x_op, p_op = _ops(make_uniform_grid(1, 64, 8.0, hbar=1e50))
    assert moments(gaussian(x_op.grid, sigma=1.0), p_op).spread > 0.0


def test_vector_bound_nan_spread_fails(monkeypatch):
    original = moments_module.moments
    calls = []

    def spoiled(psi, op):
        calls.append(1)
        m = original(psi, op)
        if len(calls) != 4:
            return m
        return Moments(mean=m.mean, second=m.second, spread=np.nan,
                       mean_imag_residue=m.mean_imag_residue)

    monkeypatch.setattr(moments_module, "moments", spoiled)
    grid = make_uniform_grid(3, 16, 8.0)
    report = vector_uncertainty_check(gaussian_3d(grid, sigmas=(1.0, 1.0, 1.0)), mode="bound")
    assert np.isnan(report.residual)
    assert not report.passed
