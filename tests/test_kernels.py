"""Grid kernels on read-only inputs, against the expressions they replaced.

The kernels build their outputs in place in arrays they allocate themselves.
The reference functions below are the previous expressions, written out with
numpy alone. The operators, transforms and boundary mass are compared on the
raw bytes, so not a single bit of their outputs may move. The reductions
(inner products, norms, and the numbers built from them) add in another
order than numpy's flat sum did, so they are held to an exact math.fsum
reference within Higham's bound (exact_sums.py), and every block row to the
bits of its state reduced alone. Every input is frozen and compared byte for
byte after the call, so no kernel may write into its caller's array. The
ladder letters' bands are held to the diagonals of the dense letter matrices
(dense_letters.py) the same way.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dense_letters import dense_letters, same_band_bits
from exact_sums import exact_inner, exact_norm, gamma
from qpb import grids, operators
from qpb.errors import ConfigurationError, DegenerateStateError
from qpb.grids import (
    WaveFunction,
    boundary_mass,
    inner_product_block,
    make_uniform_grid,
    norm_block,
)
from qpb.moments import pair_moments_block, vector_uncertainty_check
from qpb.operators import (
    GridOperator,
    OPERATOR_KINDS,
    _apply_block,
    _complex_coordinate,
    _derivative_multiplier,
    _spectral_derivative,
    apply,
    apply_block,
    commutator_apply,
    commutator_expectation_matrix,
    kronecker_commutators,
    momentum_operator,
    position_operator,
)
from qpb.states import _band_basis, gaussian, gaussian_3d, random_band_limited
from qpb.symbolic.matrices import _letter_bands
from qpb.transforms import reciprocal_grid, transform_block


def _frozen(values):
    out = np.array(values)
    out.flags.writeable = False
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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


def _within(got, reference):
    values, bounds = reference
    return bool(np.all(np.abs(np.asarray(got) - values) <= bounds))


def _rows_keep_lone_bits(reduce, *blocks):
    """Every row of a block reduction has the bits of its state reduced alone."""
    got = reduce(*blocks)
    return all(_same_bits(got[i], reduce(*(b[i] for b in blocks)))
               for i in range(len(got)))


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
    """A frozen block of seeded boundary-clean states; in 3D a single state,
    or `rows` Gaussians of different widths."""
    if grid.dim == 3:
        widths = [(1.0, 1.25, 0.8), (0.9, 1.1, 1.2)]
        if rows:
            return _frozen([gaussian_3d(grid, sigmas=s).values for s in widths[:rows]])
        return _frozen(gaussian_3d(grid, sigmas=widths[0]).values)
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


@pytest.mark.parametrize("dim,n_points,rows", CASES + [(1, 65536, 2)])
def test_reductions_leave_their_inputs_and_match_the_old_expressions(dim, n_points, rows):
    """Within the bound of the exact sums; at 64^3 and at 65536 points too,
    the largest grids the suites reduce."""
    grid = make_uniform_grid(dim, n_points, 8.0 if n_points < 65536 else 64.0)
    a = _block(grid, rows, 1)
    b = _frozen(apply_block(momentum_operator(grid, dim - 1), a, grid))
    kept_a, kept_b = np.array(a), np.array(b)
    assert _within(inner_product_block(a, b, grid), exact_inner(a, b, grid))
    assert _within(inner_product_block(b, b, grid), exact_inner(b, b, grid))
    assert _within(norm_block(b, grid), exact_norm(b, grid))
    if rows is not None:
        assert _rows_keep_lone_bits(lambda x, y: inner_product_block(x, y, grid), a, b)
        assert _rows_keep_lone_bits(lambda x: norm_block(x, grid), b)
    assert _same_bits(a, kept_a) and _same_bits(b, kept_b)


def test_long_rows_give_the_same_bits_on_any_blas_thread_count():
    """OpenBLAS runs a dot of more than 10000 samples on several threads;
    rows of ROW_SAMPLES keep a 65536-point inner product off that path."""
    code = ("import numpy as np; from qpb.grids import make_uniform_grid, inner_product_block; "
            "g = make_uniform_grid(1, 65536, 64.0); "
            "v = np.exp(-g.axis_points() ** 2 / 2 + 1j * g.axis_points()); "
            "print(repr(complex(inner_product_block(v, v * g.axis_points(), g))))")
    outputs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                              check=True).stdout
               for threads in ("1", "2")}
    assert len(outputs) == 1


def test_a_3d_block_row_keeps_its_lone_state_bits():
    grid = make_uniform_grid(3, 64, 8.0)
    a = _frozen([gaussian_3d(grid, sigmas=s).values for s in ((1.0, 1.25, 0.8), (0.9, 1.1, 1.2))])
    b = _frozen(apply_block(momentum_operator(grid, 1), a, grid))
    assert _rows_keep_lone_bits(lambda x, y: inner_product_block(x, y, grid), a, b)
    assert _rows_keep_lone_bits(lambda x: norm_block(x, grid), b)


@pytest.mark.parametrize("dim,n_points,rows", CASES)
def test_boundary_mass_leaves_its_state_and_matches_the_old_expression(dim, n_points, rows):
    """A 1D state is one slab, so its value keeps the old bits; a 3D state's
    slab sums add in another order, within the pairwise-sum bound of the
    exact ratio of the same nonnegative terms."""
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
    mass = np.abs(psi.values) ** 2
    got = boundary_mass(psi)
    assert got > 0.0
    if dim == 1:
        assert _same_bits(got, float(np.sum(mass[full])) / float(np.sum(mass)))
    else:
        exact = math.fsum(mass[full]) / math.fsum(mass.ravel())
        assert abs(got - exact) <= 3.0 * gamma(64) * exact
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
    old /= norm_block(old, grid)[:, None]
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
    comm = exact_inner(values, _old_apply(x_op, b, grid, "position")
                       - _old_apply(p_op, a, grid, "position"), grid)
    assert _within(data["commutator_expectation"], comm)
    assert _rows_keep_lone_bits(
        lambda v: pair_moments_block(v, grid, x_op, p_op)["commutator_expectation"], values)
    assert _same_bits(values, kept)


@pytest.mark.parametrize("backend", ["spectral", "finite_difference"])
def test_commutator_matrix_leaves_its_state_and_matches_the_old_loop(backend):
    """Entry (m, n) is <X_m psi|P_n psi> - <psi|P_n X_m psi>, over i hbar,
    each product vector the old expression's bits and each inner product
    within the bound of its exact sum. 32^3 keeps the exact sums quick;
    tests/test_blocks.py runs the spectral matrix at 64^3."""
    grid = make_uniform_grid(3, 32, 8.0, hbar=0.7)
    psi = gaussian_3d(grid, sigmas=(0.9, 1.1, 0.7))
    kept = np.array(psi.values)
    v = psi.values
    got = commutator_expectation_matrix(psi, backend=backend)
    for n in range(3):
        p_n = momentum_operator(grid, n, backend=backend)
        p_psi = _old_apply(p_n, v, grid, "position")
        for m in range(3):
            x_psi = _old_apply(position_operator(grid, m), v, grid, "position")
            xp, xp_bound = exact_inner(x_psi, p_psi, grid)
            px, px_bound = exact_inner(v, _old_apply(p_n, x_psi, grid, "position"), grid)
            old = complex(xp - px) / (1j * grid.hbar)
            bound = (xp_bound + px_bound) / grid.hbar + 4.0 * 2.0**-53 * abs(old)
            assert abs(got[m, n] - old) <= bound, (m, n)
    assert _same_bits(psi.values, kept)


def _old_inner(a, b, grid):
    """inner_product_block as it was before its split into row dots and sum."""
    row = min(grid.n_points, 4096)
    rows = np.vecdot(*(np.reshape(x, np.shape(x)[:-1] + (-1, row)) for x in (a, b)))
    rows = rows.reshape(rows.shape[:rows.ndim - grid.dim] + (-1,))
    return np.sum(rows, axis=-1) * grid.spacing**grid.dim


def _old_matrix(psi, backend):
    """commutator_expectation_matrix's full-array loop: P_n psi once per n,
    X_m psi in one reused buffer that turns into P_n X_m psi in place."""
    g, v = psi.grid, psi.values
    out = np.zeros((3, 3), dtype=np.complex128)
    x_buf = np.empty(g.shape, dtype=np.complex128)
    for n in range(3):
        p_n = momentum_operator(g, n, backend=backend)
        p_psi = apply_block(p_n, v, g)
        for m in range(3):
            x_psi = np.multiply(g.coordinate(m), v, out=x_buf)
            xp = _old_inner(x_psi, p_psi, g)
            px = _old_inner(v, _apply_block(p_n, x_psi, g, overwrite=True), g)
            out[m, n] = complex(xp - px) / (1j * g.hbar)
    return out


def _old_interior_max(a, b, psi):
    """The tensor_kronecker check's full-array cross commutator expression."""
    cross = commutator_apply(a, b, psi)
    peak = float(np.max(np.abs(psi.values)))
    interior = np.abs(psi.values) > 1e-6 * peak
    return float(np.max(np.abs(cross.values)[interior])) / peak


def _old_kronecker(psi, backend):
    grid = psi.grid
    return _old_matrix(psi, backend), _old_interior_max(
        position_operator(grid, 0), momentum_operator(grid, 1, backend), psi)


@pytest.mark.parametrize("n_points", [32, 64])
@pytest.mark.parametrize("hbar", [0.7, 1.0, 2.0])
@pytest.mark.parametrize("backend", ["spectral", "finite_difference"])
def test_the_fused_3d_kernel_matches_the_full_array_loops_bit_for_bit(n_points, hbar, backend):
    grid = make_uniform_grid(3, n_points, 8.0, hbar=hbar)
    psi = gaussian_3d(grid, sigmas=(1.0, 1.25, 0.8))
    kept = np.array(psi.values)
    matrix, cross = kronecker_commutators(psi, backend=backend)
    old_matrix, old_cross = _old_kronecker(psi, backend)
    assert _same_bits(matrix, old_matrix) and _same_bits(cross, old_cross)
    assert _same_bits(commutator_expectation_matrix(psi, backend=backend), old_matrix)
    assert _same_bits(psi.values, kept)


@pytest.mark.parametrize("block_samples", [2**12, 2**15, 2**16, 2**18])
def test_the_fused_3d_kernel_keeps_its_bits_at_any_slab_width(monkeypatch, block_samples):
    """Slabs of 1, 8, 16 and all 64 rows of 64 x 64 at 64^3; the shipped 4
    are the case above."""
    monkeypatch.setattr(grids, "BLOCK_SAMPLES", block_samples)
    grid = make_uniform_grid(3, 64, 8.0, hbar=0.7)
    psi = gaussian_3d(grid, sigmas=(1.0, 1.25, 0.8))
    for backend in ("spectral", "finite_difference"):
        matrix, cross = kronecker_commutators(psi, backend=backend)
        old_matrix, old_cross = _old_kronecker(psi, backend)
        assert _same_bits(matrix, old_matrix) and _same_bits(cross, old_cross), backend


def test_the_fused_3d_kernel_keeps_a_nan_of_any_slab(monkeypatch):
    """A NaN x_0 in the first slab of the n = 1 pass spoils that slab's cross
    commutator; later slabs cannot hide it."""
    grid = make_uniform_grid(3, 32, 8.0)
    psi = gaussian_3d(grid, sigmas=(1.0, 1.25, 0.8))
    original, calls = operators._complex_coordinate, []

    def spoiled(grid, axis):
        out = original(grid, axis)
        if axis != 0:
            return out
        calls.append(axis)
        return out * math.nan if len(calls) == 3 else out

    monkeypatch.setattr(operators, "_complex_coordinate", spoiled)
    assert math.isnan(kronecker_commutators(psi)[1])
    # each pass takes 2 slabs at 32^3: X_0's third is the first of n = 1's
    assert len(calls) == 6


def test_the_fused_3d_kernel_rejects_a_zero_state():
    grid = make_uniform_grid(3, 16, 8.0)
    zero = WaveFunction(grid=grid, representation="position", values=np.zeros(grid.shape))
    with pytest.raises(DegenerateStateError):
        kronecker_commutators(zero)
    assert _same_bits(commutator_expectation_matrix(zero), np.zeros((3, 3), dtype=np.complex128))


@pytest.mark.parametrize("dim,n_points,rows", CASES + [(3, 16, 2)])
def test_in_place_inverse_transforms_match_the_out_of_place_expressions(dim, n_points, rows):
    """The spectral derivative runs its inverse FFT, and transform_block its
    FFT in either direction, in place in the array it allocated, and the
    derivative in an array it may overwrite; the references run every FFT
    out of place. The derivative keeps its bits on each slab that the 3D
    kernels hand over too."""
    grid = make_uniform_grid(dim, n_points, 8.0, hbar=0.7)
    values = _block(grid, rows, 7)
    kept = np.array(values)
    for axis in range(dim):
        old = _old_derivative(values, grid, axis, "momentum_spectral")
        assert _same_bits(_spectral_derivative(values, grid, axis), old), axis
        owned = np.array(values)
        assert _spectral_derivative(owned, grid, axis, out=owned) is owned
        assert _same_bits(owned, old), axis
        for index in grids.slabs(grid, axis):
            index = (Ellipsis,) + index
            assert _same_bits(_spectral_derivative(values[index], grid, axis), old[index])
    for representation in ("position", "momentum"):
        assert _same_bits(transform_block(values, grid, representation),
                          _old_transform(values, grid, representation)), representation
    assert _same_bits(values, kept)


def test_the_cached_factors_are_read_only_and_bounded():
    for n_points in (8, 16, 32, 64, 128, 256):
        for half_extent in (1.0, 8.0, 20.0):
            grid = make_uniform_grid(3, n_points, half_extent)
            for axis in range(3):
                iw = _derivative_multiplier(n_points, grid.spacing, 3, axis)
                x = _complex_coordinate(grid, axis)
                assert not iw.flags.writeable and not x.flags.writeable
                assert iw.shape == x.shape == grid.coordinate(axis).shape
                assert _same_bits(x, grid.coordinate(axis).astype(np.complex128))
    for cached in (_derivative_multiplier, _complex_coordinate):
        info = cached.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 64


def _old_gaussian_3d(grid, sigmas):
    v = np.ones(grid.shape, dtype=np.complex128)
    for axis, s in enumerate(sigmas):
        v *= np.exp(-(grid.coordinate(axis) ** 2) / (2.0 * s**2))
    return v


@pytest.mark.parametrize("hbar", [1.0, 0.37, 3.0])
@pytest.mark.parametrize("sigmas", [(1.0, 1.25, 0.8), (0.3, 0.2, 0.25), (0.08, 1.0, 0.1)])
def test_gaussian_3d_matches_the_complex_products(hbar, sigmas):
    """Narrow widths on a 64^3 grid of half extent 8 take the tails through
    subnormal values to zero, where a product's rounding and signs show."""
    grid = make_uniform_grid(3, 64, 8.0, hbar=hbar)
    old = _old_gaussian_3d(grid, sigmas)
    if min(sigmas) < 0.5:
        assert np.any(old == 0.0)
    old /= norm_block(old, grid)
    assert _same_bits(gaussian_3d(grid, sigmas=sigmas).values, old)


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


def _traced_peak(call):
    call()  # numpy's FFT plan cache fills on the first call
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_fused_3d_kernel_keeps_less_than_a_third_of_a_state_besides_psi():
    """The kernel and boundary_mass stream psi through slabs of 1/16 of a
    state at 64^3, so besides the caller's state the spectral pass holds two
    slabs, the row dots and the FFT's line buffers (0.28 states). The
    full-array loop kept P_n psi and one buffer (2.03 states), and a
    full-array boundary_mass 0.73. The finite-difference backend holds one
    slab more, its fresh difference array, and numpy's iterator buffers for
    the strided slice differences (0.38)."""
    grid = make_uniform_grid(3, 64, 8.0)
    psi = gaussian_3d(grid, sigmas=(1.0, 1.25, 0.8))
    state = psi.values.nbytes
    assert _traced_peak(lambda: kronecker_commutators(psi)) < 0.3 * state
    assert _traced_peak(lambda: kronecker_commutators(psi, backend="finite_difference")) \
        < 0.5 * state


def test_gaussian_3d_keeps_its_array_without_a_copy():
    grid = make_uniform_grid(3, 64, 8.0)
    peak = _traced_peak(lambda: gaussian_3d(grid, sigmas=(1.0, 1.25, 0.8)))
    assert peak < 1.25 * 16 * grid.size


def test_commutator_apply_keeps_two_states_besides_psi():
    """B psi turns into AB psi in place, A psi into BA psi, and BA psi is
    subtracted in place from AB psi; the result is one of the two arrays."""
    grid = make_uniform_grid(3, 64, 8.0)
    psi = gaussian_3d(grid, sigmas=(1.0, 1.25, 0.8))
    for axis in range(3):
        x_op, p_op = position_operator(grid, axis), momentum_operator(grid, axis)
        peak = _traced_peak(lambda: commutator_apply(x_op, p_op, psi))
        assert peak < 2.5 * psi.values.nbytes, axis


def test_commutator_apply_on_a_long_1d_state_keeps_half_a_state_of_temporaries():
    """Besides AB psi and one inner result, nothing the size of psi: X's
    coordinates and P's multiplier i w are cached complex arrays, so no
    product goes through numpy's cast buffer (2.00 states on a 1D
    65536-point state; building them per call read 2.63)."""
    grid = make_uniform_grid(1, 65536, 64.0)
    psi = gaussian(grid, sigma=1.0)
    x_op, p_op = position_operator(grid), momentum_operator(grid)
    peak = _traced_peak(lambda: commutator_apply(x_op, p_op, psi))
    assert peak < 2.05 * psi.values.nbytes


def test_vector_uncertainty_check_keeps_one_state_besides_psi():
    grid = make_uniform_grid(3, 64, 8.0)
    psi = gaussian_3d(grid, sigmas=(1.0, 1.25, 0.8))
    peak = _traced_peak(lambda: vector_uncertainty_check(psi, mode="saturation"))
    assert peak < 1.5 * psi.values.nbytes


@pytest.mark.parametrize("n_trunc", [2, 9, 64, 257])
def test_letter_bands_are_the_dense_letter_diagonals(n_trunc):
    for hbar_value, omega in ((1.0, 1.0), (0.3, 2.0), (1e-3, 0.25), (1e5, 7.5)):
        bands = _letter_bands(n_trunc, hbar_value, omega)
        for name, m in dense_letters(n_trunc, hbar_value, omega).items():
            # raw bits on the matrix, so even the signs of zeros agree
            assert bands[name].shape == (3, n_trunc), name
            assert same_band_bits(bands[name], m), (name, hbar_value, omega)
