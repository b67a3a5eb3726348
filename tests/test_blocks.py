"""Block kernels against the per-state code they replaced, bit for bit.

The reference functions below are the single-state computations the suites
ran before states were processed in blocks, written out with numpy alone.
Every comparison is exact equality: a block must not change a single bit of
any per-state number.
"""

import math

import numpy as np
import pytest

from qpb.grids import inner_product_block, make_uniform_grid
from qpb.moments import moments, pair_moments_block, uncertainty_check
from qpb.operators import (
    apply_block,
    commutator_expectation_matrix,
    momentum_operator,
    position_operator,
)
from qpb.states import gaussian_3d, random_band_limited
from qpb.suites import BLOCK_SAMPLES, N_BOUND_STATES, N_TRANSFORM_STATES, _block_sizes
from qpb.transforms import check_parseval, parseval_block, reciprocal_grid, to_momentum, transform_block


def _old_state(grid, rng, n_modes=6, divisor=8.0):
    x = grid.axis_points()
    L = grid.half_extent
    m = 2 * n_modes + 1
    c = rng.normal(size=m) + 1j * rng.normal(size=m)
    modes = np.zeros(grid.n_points, dtype=np.complex128)
    for j in range(m):
        modes += c[j] * np.exp(1j * math.pi * (j - n_modes) * x / L)
    v = np.exp(-(x**2) / (2.0 * (L / divisor) ** 2)) * modes
    return v / math.sqrt(float(np.sum(np.abs(v) ** 2)) * grid.spacing**grid.dim)


def _old_inner(a, b, grid):
    return complex(np.sum(np.conj(a) * b) * grid.spacing**grid.dim)


def _old_x(v, grid, axis=0):
    return grid.coordinate(axis) * v


def _old_p(v, grid, axis=0):
    w = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)
    mult = 1j * w
    mult[grid.n_points // 2] = 0.0
    shape = [1] * grid.dim
    shape[axis] = grid.n_points
    deriv = np.fft.ifft(mult.reshape(shape) * np.fft.fft(v, axis=axis), axis=axis)
    return -1j * grid.hbar * deriv


def _old_moments(v, a_v, grid):
    raw_mean = _old_inner(v, a_v, grid)
    second = _old_inner(a_v, a_v, grid).real
    mean = raw_mean.real
    return mean, second, math.sqrt(max(second - mean * mean, 0.0)), abs(raw_mean.imag)


def _old_uncertainty(v, grid):
    """(spread product, |<[X, P]>| / 2, clamped bound violation) of one state."""
    product = _old_moments(v, _old_x(v, grid), grid)[2] * _old_moments(v, _old_p(v, grid), grid)[2]
    comm = _old_inner(v, _old_x(_old_p(v, grid), grid) - _old_p(_old_x(v, grid), grid), grid)
    return product, 0.5 * abs(comm), max(0.0, 0.5 * abs(comm) - product)


def _old_band_fraction(v, band_divisor=8):
    total = float(np.sum(np.abs(v) ** 2))
    band = max(1, v.shape[0] // band_divisor)
    return float(np.sum(np.abs(v[:band]) ** 2) + np.sum(np.abs(v[-band:]) ** 2)) / total


def _old_transform_terms(v, grid):
    """(momentum samples, round-trip defect, norm defect, band in, band out)."""
    r_grid = reciprocal_grid(grid)
    s = (-1.0) ** np.arange(grid.n_points)
    c = math.sqrt(2.0 * math.pi * grid.hbar)
    mom = (grid.spacing / c) ** grid.dim * s * np.fft.fftn(s * v)
    back = (r_grid.spacing * r_grid.n_points / c) ** grid.dim * s * np.fft.ifftn(s * mom)

    def norm(u, g):
        return math.sqrt(float(np.sum(np.abs(u) ** 2)) * g.spacing**g.dim)

    defect = abs(norm(mom, r_grid) ** 2 - norm(v, grid) ** 2)
    return (mom, float(np.max(np.abs(back - v))), defect,
            _old_band_fraction(v), _old_band_fraction(mom))


def _streamed_blocks(grid, seed, n_states):
    rng = np.random.default_rng(seed)
    return [random_band_limited(grid, rng, n_states=rows) for rows in _block_sizes(n_states, grid)]


def test_block_sizes_follow_the_sample_budget():
    assert _block_sizes(500, make_uniform_grid(1, 256, 8.0)) == [64] * 7 + [52]
    assert _block_sizes(100, make_uniform_grid(1, 1024, 8.0)) == [16] * 6 + [4]
    assert _block_sizes(3, make_uniform_grid(3, 64, 8.0)) == [1, 1, 1]
    assert BLOCK_SAMPLES == 2**14


@pytest.mark.parametrize("n_points", [256, 1024])
def test_uncertainty_blocks_match_per_state_loop(n_points):
    grid = make_uniform_grid(1, n_points, 8.0)
    x_op, p_op = position_operator(grid), momentum_operator(grid)
    old_rng = np.random.default_rng(0)
    old_states = [_old_state(grid, old_rng) for _ in range(N_BOUND_STATES)]
    old = np.array([_old_uncertainty(v, grid) for v in old_states])
    blocks = _streamed_blocks(grid, 0, N_BOUND_STATES)
    assert np.array_equal(np.concatenate(blocks), np.array(old_states))
    data = [pair_moments_block(block, grid, x_op, p_op) for block in blocks]
    product = np.concatenate([d["product"] for d in data])
    residual = np.concatenate(
        [np.maximum(0.0, d["half_commutator_magnitude"] - d["product"]) for d in data])
    assert np.array_equal(product, old[:, 0])
    assert np.array_equal(np.concatenate([d["half_commutator_magnitude"] for d in data]), old[:, 1])
    assert np.array_equal(residual, old[:, 2])


@pytest.mark.parametrize("n_points", [256, 1024])
def test_transform_blocks_match_per_state_loop(n_points):
    grid = make_uniform_grid(1, n_points, 8.0)
    old_rng = np.random.default_rng(0)
    old = [_old_transform_terms(_old_state(grid, old_rng), grid)
           for _ in range(N_TRANSFORM_STATES)]
    got_mom, got_round, got_terms = [], [], []
    for block in _streamed_blocks(grid, 0, N_TRANSFORM_STATES):
        mom = transform_block(block, grid, "position")
        back = transform_block(mom, reciprocal_grid(grid), "momentum")
        got_mom.append(mom)
        got_round.append(np.max(np.abs(back - block), axis=-1))
        got_terms.append(parseval_block(block, mom, grid))
    assert np.array_equal(np.concatenate(got_mom), np.array([o[0] for o in old]))
    assert np.array_equal(np.concatenate(got_round), [o[1] for o in old])
    for key, column in (("norm_defect", 2), ("band_mass_input", 3), ("band_mass_transform", 4)):
        assert np.array_equal(np.concatenate([t[key] for t in got_terms]),
                              [o[column] for o in old])
    assert np.array_equal(np.concatenate([t["residual"] for t in got_terms]),
                          [max(o[2], o[3], o[4]) for o in old])


@pytest.mark.parametrize("n_points,sigmas", [(32, (0.9, 1.1, 0.7)), (64, (1.0, 1.25, 0.8))])
def test_commutator_matrix_matches_nine_commutator_applications(n_points, sigmas):
    grid = make_uniform_grid(3, n_points, 8.0)
    psi = gaussian_3d(grid, sigmas=sigmas)
    v = psi.values
    old = np.zeros((3, 3), dtype=np.complex128)
    for m in range(3):
        for n in range(3):
            comm = _old_x(_old_p(v, grid, n), grid, m) - _old_p(_old_x(v, grid, m), grid, n)
            old[m, n] = _old_inner(v, comm, grid) / (1j * grid.hbar)
    assert np.array_equal(commutator_expectation_matrix(psi), old)


def test_block_of_one_matches_single_state_results():
    grid = make_uniform_grid(1, 256, 8.0)
    x_op, p_op = position_operator(grid), momentum_operator(grid)
    rng, old_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(5):
        psi = random_band_limited(grid, rng)
        v = _old_state(grid, old_rng)
        assert np.array_equal(psi.values, v)
        for op, old_op in ((x_op, _old_x), (p_op, _old_p)):
            m = moments(psi, op)
            assert (m.mean, m.second, m.spread, m.mean_imag_residue) == \
                _old_moments(v, old_op(v, grid), grid)
        product, half, violation = _old_uncertainty(v, grid)
        report = uncertainty_check(psi, x_op, p_op)
        assert report.context["product"] == product and report.residual == violation
        assert report.context["half_commutator_magnitude"] == half
        mom, _, defect, band_in, band_out = _old_transform_terms(v, grid)
        assert np.array_equal(to_momentum(psi).values, mom)
        parseval = check_parseval(psi)
        assert parseval.residual == max(defect, band_in, band_out)
        assert (parseval.context["norm_defect"], parseval.context["band_mass_input"],
                parseval.context["band_mass_transform"]) == (defect, band_in, band_out)


def test_block_of_k_draws_the_same_states_as_k_single_draws():
    grid = make_uniform_grid(1, 128, 6.0)
    block = random_band_limited(grid, np.random.default_rng(4), n_states=7)
    rng = np.random.default_rng(4)
    singles = [random_band_limited(grid, rng).values for _ in range(7)]
    assert np.array_equal(block, np.array(singles))


def test_kernels_act_on_trailing_axes_of_a_3d_block():
    grid = make_uniform_grid(3, 16, 8.0)
    states = [gaussian_3d(grid, sigmas=s).values for s in ((1.0, 1.2, 0.9), (0.8, 1.0, 1.1))]
    block = np.array(states)
    for axis in range(3):
        for op, old_op in ((position_operator(grid, axis), _old_x),
                           (momentum_operator(grid, axis), _old_p)):
            got = apply_block(op, block, grid)
            for row, v in zip(got, states):
                assert np.array_equal(row, old_op(v, grid, axis))
    got = inner_product_block(block, block[::-1], grid)
    assert [complex(g) for g in got] == [_old_inner(states[0], states[1], grid),
                                         _old_inner(states[1], states[0], grid)]
    moved = transform_block(block, grid, "position")
    for row, v in zip(moved, states):
        assert np.array_equal(row, transform_block(v, grid, "position"))
