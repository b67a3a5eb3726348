"""Grid kernels on read-only inputs, against the expressions they replaced.

The kernels build their outputs in place in arrays they allocate themselves.
The reference functions below are the previous expressions, written out with
numpy alone; every comparison is on the raw bytes, so not a single bit of an
output may move, and every input is frozen and compared byte for byte after
the call, so no kernel may write into its caller's array. The ladder letters'
bands are held to the diagonals of the dense letter matrices (dense_letters.py)
the same way.
"""

import math
import tracemalloc

import numpy as np
import pytest

from dense_letters import dense_letters
from qpb.errors import ConfigurationError
from qpb.grids import (
    WaveFunction,
    boundary_mass,
    inner_product_block,
    make_uniform_grid,
    norm_block,
)
from qpb.moments import pair_moments_block
from qpb.operators import (
    GridOperator,
    OPERATOR_KINDS,
    _spectral_derivative,
    apply,
    apply_block,
    commutator_apply,
    commutator_expectation_matrix,
    momentum_operator,
    position_operator,
)
from qpb.states import _band_basis, gaussian_3d, random_band_limited
from qpb.symbolic.matrices import _letter_bands
from qpb.transforms import reciprocal_grid, transform_block


def _frozen(values):
    out = np.array(values)
    out.flags.writeable = False
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _old_state_sum(values, grid):
    return np.sum(values.reshape(values.shape[:values.ndim - grid.dim] + (-1,)), axis=-1)


def _old_inner(a, b, grid):
    return _old_state_sum(np.conj(a) * b, grid) * grid.spacing**grid.dim


def _old_norm(values, grid):
    return np.sqrt(_old_state_sum(np.abs(values) ** 2, grid) * grid.spacing**grid.dim)


def _old_transform(values, grid, representation):
    s = (-1.0) ** np.arange(grid.n_points)
    if grid.dim == 3:
        s = s.reshape(-1, 1, 1) * s.reshape(1, -1, 1) * s.reshape(1, 1, -1)
    axes = tuple(range(-grid.dim, 0))
    if representation == "momentum":
        scale = (grid.spacing * grid.n_points / math.sqrt(2.0 * math.pi * grid.hbar)) ** grid.dim
        return scale * s * np.fft.ifftn(s * values, axes=axes)
    scale = (grid.spacing / math.sqrt(2.0 * math.pi * grid.hbar)) ** grid.dim
    return scale * s * np.fft.fftn(s * values, axes=axes)


def _old_derivative(values, grid, axis, kind):
    if kind == "momentum_spectral":
        w = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)
        mult = 1j * w
        mult[grid.n_points // 2] = 0.0
        shape = [1] * grid.dim
        shape[axis] = grid.n_points
        axis -= grid.dim
        return np.fft.ifft(mult.reshape(shape) * np.fft.fft(values, axis=axis), axis=axis)
    axis -= grid.dim
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * grid.spacing)


def _old_apply(op, values, grid, representation):
    if representation == "position":
        if op.kind == "position_multiply":
            return grid.coordinate(op.axis) * values
        return -1j * grid.hbar * _old_derivative(values, grid, op.axis, op.kind)
    if op.kind == "position_multiply":
        r_grid = reciprocal_grid(grid)
        pos = _old_transform(values, grid, "momentum")
        return _old_transform(r_grid.coordinate(op.axis) * pos, r_grid, "position")
    return grid.coordinate(op.axis) * values


def _block(grid, rows, seed):
    """A frozen block of seeded boundary-clean states; a single state in 3D."""
    if grid.dim == 3:
        return _frozen(gaussian_3d(grid, sigmas=(1.0, 1.25, 0.8)).values)
    return _frozen(random_band_limited(grid, np.random.default_rng(seed), n_states=rows))


CASES = [(1, 256, 5), (1, 1024, 3), (3, 64, None)]


@pytest.mark.parametrize("dim,n_points,rows", CASES)
@pytest.mark.parametrize("representation", ["position", "momentum"])
def test_apply_block_leaves_its_input_and_matches_the_old_expression(dim, n_points, rows,
                                                                     representation):
    grid = make_uniform_grid(dim, n_points, 8.0, hbar=0.7)
    values = _block(grid, rows, n_points)
    kept = np.array(values)
    for kind in OPERATOR_KINDS:
        for axis in range(dim):
            op = GridOperator(kind=kind, axis=axis, grid=grid)
            got = apply_block(op, values, grid, representation)
            assert _same_bits(got, _old_apply(op, values, grid, representation)), (kind, axis)
            assert _same_bits(values, kept)


@pytest.mark.parametrize("dim,n_points,rows", CASES)
@pytest.mark.parametrize("representation", ["position", "momentum"])
def test_transform_block_leaves_its_input_and_matches_the_old_expression(dim, n_points, rows,
                                                                         representation):
    grid = make_uniform_grid(dim, n_points, 8.0, hbar=0.7)
    values = _block(grid, rows, n_points)
    kept = np.array(values)
    got = transform_block(values, grid, representation)
    assert _same_bits(got, _old_transform(values, grid, representation))
    assert _same_bits(values, kept)


@pytest.mark.parametrize("dim,n_points,rows", CASES)
def test_reductions_leave_their_inputs_and_match_the_old_expressions(dim, n_points, rows):
    grid = make_uniform_grid(dim, n_points, 8.0)
    a = _block(grid, rows, 1)
    b = _frozen(apply_block(momentum_operator(grid, dim - 1), a, grid))
    kept_a, kept_b = np.array(a), np.array(b)
    assert _same_bits(inner_product_block(a, b, grid), _old_inner(a, b, grid))
    assert _same_bits(inner_product_block(b, b, grid), _old_inner(b, b, grid))
    assert _same_bits(norm_block(b, grid), _old_norm(b, grid))
    assert _same_bits(a, kept_a) and _same_bits(b, kept_b)


@pytest.mark.parametrize("dim,n_points,rows", CASES)
def test_boundary_mass_leaves_its_state_and_matches_the_old_expression(dim, n_points, rows):
    grid = make_uniform_grid(dim, n_points, 8.0)
    # a state with mass at the boundary, so that both sums are nonzero
    psi = gaussian_3d(grid, sigmas=(3.0, 2.5, 2.0)) if dim == 3 else \
        random_band_limited(grid, np.random.default_rng(2), envelope_divisor=1.5)
    kept = np.array(psi.values)
    full = np.zeros(grid.shape, dtype=bool)
    for axis in range(dim):
        edge = np.zeros(n_points, dtype=bool)
        edge[:4] = edge[-4:] = True
        full |= edge.reshape([n_points if a == axis else 1 for a in range(dim)])
    old = float(np.sum(np.abs(psi.values[full]) ** 2)) / float(np.sum(np.abs(psi.values) ** 2))
    got = boundary_mass(psi)
    assert got > 0.0 and _same_bits(got, old)
    assert _same_bits(psi.values, kept)


@pytest.mark.parametrize("n_points,rows", [(256, 64), (1024, 16), (1024, 1)])
def test_random_band_limited_matches_the_old_loop_and_keeps_its_basis(n_points, rows):
    grid = make_uniform_grid(1, n_points, 8.0)
    waves, envelope = _band_basis(grid, 6, 8.0)
    kept_waves, kept_envelope = np.array(waves), np.array(envelope)
    draws = np.random.default_rng(3).normal(size=(rows, 2, 13))
    c = draws[:, 0] + 1j * draws[:, 1]
    modes = np.zeros((rows, n_points), dtype=np.complex128)
    for j in range(13):
        modes += c[:, j, None] * waves[j]
    old = envelope * modes
    old /= _old_norm(old, grid)[:, None]
    got = random_band_limited(grid, np.random.default_rng(3), n_states=rows)
    assert _same_bits(got, old)
    assert not waves.flags.writeable and not envelope.flags.writeable
    assert _same_bits(waves, kept_waves) and _same_bits(envelope, kept_envelope)


@pytest.mark.parametrize("n_points,rows", [(256, 64), (1024, 16)])
def test_pair_moments_block_leaves_its_input_and_matches_the_old_expression(n_points, rows):
    grid = make_uniform_grid(1, n_points, 8.0)
    x_op, p_op = position_operator(grid), momentum_operator(grid)
    values = _block(grid, rows, 5)
    kept = np.array(values)
    data = pair_moments_block(values, grid, x_op, p_op)
    a, b = _old_apply(x_op, values, grid, "position"), _old_apply(p_op, values, grid, "position")
    comm = _old_inner(values, _old_apply(x_op, b, grid, "position")
                      - _old_apply(p_op, a, grid, "position"), grid)
    assert _same_bits(data["commutator_expectation"], comm)
    assert _same_bits(values, kept)


@pytest.mark.parametrize("backend", ["spectral", "finite_difference"])
def test_commutator_matrix_leaves_its_state_and_matches_the_old_loop(backend):
    grid = make_uniform_grid(3, 64, 8.0)
    psi = gaussian_3d(grid, sigmas=(1.0, 1.25, 0.8))
    kept = np.array(psi.values)
    v = psi.values
    old = np.zeros((3, 3), dtype=np.complex128)
    for n in range(3):
        p_n = momentum_operator(grid, n, backend=backend)
        p_psi = _old_apply(p_n, v, grid, "position")
        for m in range(3):
            x_m = position_operator(grid, m)
            comm = _old_apply(x_m, p_psi, grid, "position") \
                - _old_apply(p_n, _old_apply(x_m, v, grid, "position"), grid, "position")
            old[m, n] = complex(_old_inner(v, comm, grid)) / (1j * grid.hbar)
    assert _same_bits(commutator_expectation_matrix(psi, backend=backend), old)
    assert _same_bits(psi.values, kept)


@pytest.mark.parametrize("dim,n_points,rows", CASES)
def test_in_place_inverse_transforms_match_the_out_of_place_expressions(dim, n_points, rows):
    """The spectral derivative runs its inverse FFT, and transform_block its
    FFT in either direction, in place in the array it allocated; the
    references run every FFT out of place."""
    grid = make_uniform_grid(dim, n_points, 8.0, hbar=0.7)
    values = _block(grid, rows, 7)
    kept = np.array(values)
    for axis in range(dim):
        assert _same_bits(_spectral_derivative(values, grid, axis),
                          _old_derivative(values, grid, axis, "momentum_spectral")), axis
    for representation in ("position", "momentum"):
        assert _same_bits(transform_block(values, grid, representation),
                          _old_transform(values, grid, representation)), representation
    assert _same_bits(values, kept)


@pytest.mark.parametrize("dim,n_points", [(1, 256), (3, 16)])
@pytest.mark.parametrize("representation", ["position", "momentum"])
def test_apply_returns_fresh_read_only_values(dim, n_points, representation):
    grid = make_uniform_grid(dim, n_points, 8.0)
    draws = np.random.default_rng(11).normal(size=(2,) + grid.shape)
    values = draws[0] + 1j * draws[1]
    psi = WaveFunction(grid=grid, representation=representation, values=values)
    results = [apply(GridOperator(kind=kind, axis=axis, grid=grid), psi)
               for kind in OPERATOR_KINDS for axis in range(dim)]
    results.append(commutator_apply(position_operator(grid), momentum_operator(grid), psi))
    for out in results:
        assert out.grid is grid and out.representation == representation
        assert out.values.shape == grid.shape and out.values.dtype == np.complex128
        assert not out.values.flags.writeable
        assert not np.shares_memory(out.values, psi.values)
        with pytest.raises(ValueError):
            out.values[(0,) * dim] = 0.0


def test_uncopied_values_get_the_constructor_checks():
    psi = WaveFunction(grid=make_uniform_grid(1, 64, 8.0), representation="position",
                       values=np.zeros(64))
    for bad in (np.zeros(63, dtype=np.complex128), np.zeros(64)):
        with pytest.raises(ConfigurationError):
            psi._with_fresh(bad)


def test_commutator_matrix_keeps_three_states_alive():
    """psi, P_n psi, one work buffer and the commutator: three arrays besides
    the caller's state. An out-of-place inverse FFT, or an inner product with
    a conjugate product of its own, would make it four."""
    grid = make_uniform_grid(3, 64, 8.0)
    psi = gaussian_3d(grid, sigmas=(1.0, 1.25, 0.8))
    commutator_expectation_matrix(psi)  # numpy's FFT plan cache fills on the first call
    tracemalloc.start()
    try:
        commutator_expectation_matrix(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * psi.values.nbytes


@pytest.mark.parametrize("n_trunc", [2, 9, 64, 257])
def test_letter_bands_are_the_dense_letter_diagonals(n_trunc):
    for hbar_value, omega in ((1.0, 1.0), (0.3, 2.0), (1e-3, 0.25), (1e5, 7.5)):
        bands = _letter_bands(n_trunc, hbar_value, omega)
        for name, m in dense_letters(n_trunc, hbar_value, omega).items():
            up, lo = bands[name]
            # raw bits, so even the signs of zeros agree
            assert _same_bits(up, np.diagonal(m, 1)), (name, hbar_value, omega)
            assert _same_bits(lo, np.diagonal(m, -1)), (name, hbar_value, omega)
