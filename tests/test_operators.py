import numpy as np
import pytest

from qpb.errors import (
    BoundaryContaminationError,
    ConfigurationError,
    IncompatibleOperandsError,
    RepresentationError,
)
from qpb.grids import WaveFunction, inner_product, make_uniform_grid, normalize
from qpb.operators import (
    apply,
    commutator_apply,
    commutator_expectation_matrix,
    corollary_residual_momentum,
    momentum_operator,
    poisson_residual,
    position_operator,
)
from qpb.states import gaussian, gaussian_3d, oscillator_eigenstate
from qpb.transforms import to_momentum


def _grid(n=256, half=8.0, hbar=1.0):
    return make_uniform_grid(1, n, half, hbar)


def test_position_operator_multiplies_by_coordinate():
    grid = _grid(64, 4.0)
    psi = gaussian(grid, sigma=1.0)
    out = apply(position_operator(grid), psi)
    assert np.array_equal(out.values, grid.axis_points() * psi.values)


def test_momentum_spectral_on_plane_wave_is_exact():
    # exp(i k x) is an eigenvector of -i hbar d/dx with eigenvalue hbar k
    grid = _grid(128, 4.0, hbar=0.5)
    k = 2.0 * np.pi * 5 / (2.0 * grid.half_extent)
    wave = np.exp(1j * k * grid.axis_points())
    psi = WaveFunction(grid=grid, representation="position", values=wave)
    out = apply(momentum_operator(grid), psi)
    assert np.max(np.abs(out.values - grid.hbar * k * wave)) < 1e-12


def test_momentum_in_momentum_representation_multiplies():
    grid = _grid(64, 4.0)
    g = to_momentum(gaussian(grid, sigma=1.0))
    out = apply(momentum_operator(g.grid), g)
    assert np.array_equal(out.values, g.grid.axis_points() * g.values)


def test_momentum_operators_are_hermitian():
    grid = _grid(128, 8.0)
    rng = np.random.default_rng(5)
    a = normalize(WaveFunction(grid=grid, representation="position",
                               values=rng.normal(size=128) + 1j * rng.normal(size=128)))
    b = normalize(WaveFunction(grid=grid, representation="position",
                               values=rng.normal(size=128) + 1j * rng.normal(size=128)))
    for backend in ("spectral", "finite_difference"):
        op = momentum_operator(grid, backend=backend)
        lhs = inner_product(apply(op, a), b)
        rhs = inner_product(a, apply(op, b))
        assert lhs == pytest.approx(rhs, abs=1e-12)
    # real multiplication is self-adjoint up to product-association rounding
    xop = position_operator(grid)
    lhs = inner_product(apply(xop, a), b)
    rhs = inner_product(a, apply(xop, b))
    assert abs(lhs - rhs) < 1e-15


def test_poisson_identity_gaussian_and_hermites():
    grid = _grid()
    for psi in [gaussian(grid, sigma=1.0)] + [oscillator_eigenstate(grid, k) for k in (1, 2, 3, 4)]:
        report = poisson_residual(psi)
        assert report.passed, report.check_id
        assert report.residual < 1e-6


def test_poisson_finite_difference_second_order():
    resids = []
    for n in (256, 512, 1024):
        psi = gaussian(_grid(n), sigma=1.0)
        report = poisson_residual(psi, backend="finite_difference")
        assert report.passed
        resids.append(report.residual)
    assert resids[0] / resids[1] > 3.5
    assert resids[1] / resids[2] > 3.5


def test_poisson_rejects_boundary_contaminated_state():
    wide = gaussian(_grid(), sigma=5.0)
    with pytest.raises(BoundaryContaminationError):
        poisson_residual(wide)


def test_poisson_rejects_unnormalized_and_wrong_representation():
    grid = _grid(64, 4.0)
    with pytest.raises(ConfigurationError):
        poisson_residual(WaveFunction(grid=grid, representation="position", values=np.ones(64)))
    with pytest.raises(RepresentationError):
        poisson_residual(to_momentum(gaussian(grid, sigma=1.0)))


def test_corollary_momentum_representation():
    g = to_momentum(gaussian(_grid(), sigma=1.0))
    report = corollary_residual_momentum(g)
    assert report.passed
    assert report.residual < 1e-6


def test_corollary_zero_input_flags_degenerate():
    grid = _grid(64, 4.0)
    zero = WaveFunction(grid=grid, representation="momentum", values=np.zeros(64))
    report = corollary_residual_momentum(zero)
    assert report.residual == 0.0
    assert not report.passed
    assert report.context["degenerate_input"] is True


def test_commutator_expectation_matrix_is_identity():
    # 64 points per axis resolves the sigma=0.8 momentum tail below rounding
    grid = make_uniform_grid(3, 64, 8.0)
    psi = gaussian_3d(grid, sigmas=(1.0, 1.25, 0.8))
    mat = commutator_expectation_matrix(psi)
    assert np.max(np.abs(mat - np.eye(3))) < 1e-10


def test_cross_axis_commutator_vanishes_pointwise():
    grid = make_uniform_grid(3, 32, 8.0)
    psi = gaussian_3d(grid, sigmas=(1.0, 1.1, 0.9))
    out = commutator_apply(position_operator(grid, axis=0), momentum_operator(grid, axis=2), psi)
    assert np.max(np.abs(out.values)) < 1e-12 * np.max(np.abs(psi.values))


def test_operator_grid_compatibility_enforced():
    a = position_operator(_grid(64, 4.0))
    psi = gaussian(_grid(64, 8.0), sigma=1.0)
    with pytest.raises(IncompatibleOperandsError):
        apply(a, psi)


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        momentum_operator(_grid(64, 4.0), backend="stencil9")


def test_poisson_nan_norm_is_config_error():
    grid = _grid(64, 4.0)
    values = np.array(gaussian(grid, sigma=1.0).values)
    values[7] = np.nan
    with pytest.raises(ConfigurationError):
        poisson_residual(WaveFunction(grid=grid, representation="position", values=values))
