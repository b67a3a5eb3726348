"""Block kernels against the per-state code they replaced.

The reference functions below are the single-state computations the suites
ran before states were processed in blocks, written out with numpy alone.
Samples (states, operator results, transforms, band masses) must match them
bit for bit. The reductions add in another order than the flat sums of the
references did, so the references take their inner products and norms
exactly (exact_sums.py), and every number built from them must lie within
the bound propagated from Higham's. A block must not change a single bit of
any per-state number: every block row equals the same kernel run on its
state alone.
"""

import math

import numpy as np
import pytest

from exact_sums import U, exact_inner, exact_norm, inner_bound
from qpb.grids import inner_product_block, make_uniform_grid
from qpb.moments import moments, pair_moments_block
from qpb.operators import (
    apply_block,
    kronecker_commutators,
    momentum_operator,
    position_operator,
)
from qpb.states import gaussian_3d, random_band_limited
from qpb.suites import BLOCK_SAMPLES, N_BOUND_STATES, N_TRANSFORM_STATES, _block_sizes
from qpb.transforms import parseval_block, reciprocal_grid, to_momentum, transform_block
from random_states import random_state


def _old_state(grid, rng, n_modes=6, divisor=8.0):
    """The old state loop, normalized by the exact norm."""
    x = grid.axis_points()
    L = grid.half_extent
    m = 2 * n_modes + 1
    c = rng.normal(size=m) + 1j * rng.normal(size=m)
    modes = np.zeros(grid.n_points, dtype=np.complex128)
    for j in range(m):
        modes += c[j] * np.exp(1j * math.pi * (j - n_modes) * x / L)
    v = np.exp(-(x**2) / (2.0 * (L / divisor) ** 2)) * modes
    return v / float(exact_norm(v, grid)[0])


def _same_state(got, old, grid):
    """got is old up to the normalization: both divide the same samples, by
    norms within norm_block's bound of each other."""
    norm, bound = exact_norm(old, grid)
    scale = np.reshape(bound / norm + 4.0 * U, np.shape(norm) + (1,) * grid.dim)
    return bool(np.all(np.abs(got - old) <= scale * np.abs(old)))


def _inner(a, b, grid):
    """Exact <a|b> of one state pair and the bound a computed one meets."""
    value, bound = exact_inner(a, b, grid)
    return complex(value), float(bound)


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
    """(value, bound) pairs of mean, second moment, spread and |imag residue|.

    The computed second - mean^2 is off by at most ds + 2|mean| dm + dm^2
    plus its own rounding, and |sqrt(c) - sqrt(r)| <= |c - r| / sqrt(r)."""
    raw_mean, dm = _inner(v, a_v, grid)
    second_c, ds = _inner(a_v, a_v, grid)
    mean, second = raw_mean.real, second_c.real
    spread = math.sqrt(max(second - mean * mean, 0.0))
    d_spread = (ds + 2.0 * abs(mean) * dm + dm * dm + 4.0 * U * second) / spread + 2.0 * U * spread
    return (mean, dm), (second, ds), (spread, d_spread), (abs(raw_mean.imag), dm)


def _old_uncertainty(v, grid):
    """(value, bound) pairs of the spread product, |<[X, P]>| / 2 and the
    clamped bound violation of one state."""
    sx, dx = _old_moments(v, _old_x(v, grid), grid)[2]
    sp, dp = _old_moments(v, _old_p(v, grid), grid)[2]
    product = sx * sp
    d_product = dx * sp + dp * sx + dx * dp + 2.0 * U * product
    comm, dc = _inner(v, _old_x(_old_p(v, grid), grid) - _old_p(_old_x(v, grid), grid), grid)
    half = 0.5 * abs(comm)
    d_half = 0.5 * dc + 2.0 * U * half
    return ((product, d_product), (half, d_half),
            (max(0.0, half - product), d_half + d_product + U * (half + product)))


def _near(got, pairs):
    """Every got value within the bound of its (value, bound) pair."""
    got = np.ravel(got)
    return len(got) == len(pairs) and all(abs(g - v) <= d for g, (v, d) in zip(got, pairs))


def _old_band_fraction(v, band_divisor=8):
    total = float(np.sum(np.abs(v) ** 2))
    band = max(1, v.shape[0] // band_divisor)
    return float(np.sum(np.abs(v[:band]) ** 2) + np.sum(np.abs(v[-band:]) ** 2)) / total


def _old_transform_terms(v, grid):
    """(momentum samples, round-trip defect, (norm defect, its bound),
    band in, band out)."""
    r_grid = reciprocal_grid(grid)
    s = (-1.0) ** np.arange(grid.n_points)
    c = math.sqrt(2.0 * math.pi * grid.hbar)
    mom = (grid.spacing / c) ** grid.dim * s * np.fft.fftn(s * v)
    back = (r_grid.spacing * r_grid.n_points / c) ** grid.dim * s * np.fft.ifftn(s * mom)
    # norm_block^2 is the computed <u|u> up to the sqrt's and the square's rounding
    (n_mom, d_mom), (n_in, d_in) = (_inner(u, u, g) for u, g in ((mom, r_grid), (v, grid)))
    defect = abs(n_mom.real - n_in.real)
    d_defect = d_mom + d_in + 4.0 * U * (n_mom.real + n_in.real) + U * defect
    return (mom, float(np.max(np.abs(back - v))), (defect, d_defect),
            _old_band_fraction(v), _old_band_fraction(mom))


def _streamed_blocks(grid, seed, n_states):
    rng = np.random.default_rng(seed)
    return [random_band_limited(grid, rng, n_states=rows) for rows in _block_sizes(n_states, grid)]


def test_block_sizes_follow_the_sample_budget():
    assert _block_sizes(500, make_uniform_grid(1, 256, 8.0)) == [64] * 7 + [52]
    assert _block_sizes(100, make_uniform_grid(1, 1024, 8.0)) == [16] * 6 + [4]
    assert _block_sizes(3, make_uniform_grid(3, 64, 8.0)) == [1, 1, 1]
    assert BLOCK_SAMPLES == 2**14


def _rows_keep_lone_bits(block_values, lone_values):
    return all(np.asarray(g).tobytes() == np.asarray(w).tobytes()
               for g, w in zip(block_values, lone_values, strict=True))


@pytest.mark.parametrize("n_points", [256, 1024])
def test_uncertainty_blocks_match_per_state_loop(n_points):
    grid = make_uniform_grid(1, n_points, 8.0)
    x_op, p_op = position_operator(grid), momentum_operator(grid)
    old_rng = np.random.default_rng(0)
    old_states = [_old_state(grid, old_rng) for _ in range(N_BOUND_STATES)]
    blocks = _streamed_blocks(grid, 0, N_BOUND_STATES)
    states = np.concatenate(blocks)
    assert _same_state(states, np.array(old_states), grid)
    old = [_old_uncertainty(v, grid) for v in states]
    data = [pair_moments_block(block, grid, x_op, p_op) for block in blocks]
    lone = [pair_moments_block(v, grid, x_op, p_op) for v in states]
    for column, key in enumerate(("product", "half_commutator_magnitude")):
        got = np.concatenate([d[key] for d in data])
        assert _near(got, [o[column] for o in old]), key
        assert _rows_keep_lone_bits(got, [one[key] for one in lone]), key
    residual = np.concatenate(
        [np.maximum(0.0, d["half_commutator_magnitude"] - d["product"]) for d in data])
    assert _near(residual, [o[2] for o in old])


@pytest.mark.parametrize("n_points", [256, 1024])
def test_transform_blocks_match_per_state_loop(n_points):
    grid = make_uniform_grid(1, n_points, 8.0)
    old_rng = np.random.default_rng(0)
    old_states = [_old_state(grid, old_rng) for _ in range(N_TRANSFORM_STATES)]
    blocks = _streamed_blocks(grid, 0, N_TRANSFORM_STATES)
    states = np.concatenate(blocks)
    assert _same_state(states, np.array(old_states), grid)
    old = [_old_transform_terms(v, grid) for v in states]
    got_mom, got_round, got_terms = [], [], []
    for block in blocks:
        mom = transform_block(block, grid, "position")
        back = transform_block(mom, reciprocal_grid(grid), "momentum")
        got_mom.append(mom)
        got_round.append(np.max(np.abs(back - block), axis=-1))
        got_terms.append(parseval_block(block, mom, grid))
    assert np.array_equal(np.concatenate(got_mom), np.array([o[0] for o in old]))
    assert np.array_equal(np.concatenate(got_round), [o[1] for o in old])
    for key, column in (("band_mass_input", 3), ("band_mass_transform", 4)):
        assert np.array_equal(np.concatenate([t[key] for t in got_terms]),
                              [o[column] for o in old])
    assert _near(np.concatenate([t["norm_defect"] for t in got_terms]), [o[2] for o in old])
    # max is 1-Lipschitz, so the worst of the three keeps the defect's bound
    assert _near(np.concatenate([t["residual"] for t in got_terms]),
                 [(max(o[2][0], o[3], o[4]), o[2][1]) for o in old])
    lone = [parseval_block(v, transform_block(v, grid, "position"), grid) for v in states]
    for key in ("norm_defect", "residual"):
        assert _rows_keep_lone_bits(np.concatenate([t[key] for t in got_terms]),
                                    [one[key] for one in lone]), key


@pytest.mark.parametrize("n_points,sigmas", [(32, (0.9, 1.1, 0.7)), (64, (1.0, 1.25, 0.8))])
def test_commutator_matrix_matches_nine_commutator_applications(n_points, sigmas):
    """The matrix takes <psi|X_m P_n psi> as <X_m psi|P_n psi>; against the
    nine commutators applied in full, that moves the product roundings,
    u |x| |psi| |P_n psi| twice per sample, and drops the subtraction's,
    u (|X_m P_n psi| + |P_n X_m psi|), besides each inner product's bound."""
    grid = make_uniform_grid(3, n_points, 8.0)
    psi = gaussian_3d(grid, sigmas=sigmas)
    v = psi.values
    got = kronecker_commutators(psi)[0]
    h = grid.spacing**3
    for m in range(3):
        for n in range(3):
            x_psi, p_psi = _old_x(v, grid, m), _old_p(v, grid, n)
            xp_psi, px_psi = _old_x(p_psi, grid, m), _old_p(x_psi, grid, n)
            old, d_old = _inner(v, xp_psi - px_psi, grid)
            d_xp, d_px = inner_bound(x_psi, p_psi, grid), inner_bound(v, px_psi, grid)
            moved = 1.01 * U * h * float(np.sum(np.abs(v) * (
                2.0 * np.abs(grid.coordinate(m)) * np.abs(p_psi)
                + np.abs(xp_psi) + np.abs(px_psi))))
            bound = (d_old + d_xp + d_px + moved) / grid.hbar + 4.0 * U * abs(old)
            assert abs(got[m, n] - old / (1j * grid.hbar)) <= bound, (m, n)


def test_block_of_one_matches_single_state_results():
    grid = make_uniform_grid(1, 256, 8.0)
    x_op, p_op = position_operator(grid), momentum_operator(grid)
    rng, old_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(5):
        psi = random_state(grid, rng)
        v = psi.values
        assert _same_state(v, _old_state(grid, old_rng), grid)
        for op, old_op in ((x_op, _old_x), (p_op, _old_p)):
            m = moments(psi, op)
            assert _near([m.mean, m.second, m.spread, m.mean_imag_residue],
                         _old_moments(v, old_op(v, grid), grid))
        product, half, violation = _old_uncertainty(v, grid)
        data = pair_moments_block(v, grid, x_op, p_op)
        residual = max(0.0, data["half_commutator_magnitude"] - data["product"])
        assert _near([data["product"], residual], [product, violation])
        assert _near([data["half_commutator_magnitude"]], [half])
        mom, _, defect, band_in, band_out = _old_transform_terms(v, grid)
        assert np.array_equal(to_momentum(psi).values, mom)
        parseval = parseval_block(v, to_momentum(psi).values, grid)
        assert _near([parseval["residual"]], [(max(defect[0], band_in, band_out), defect[1])])
        assert _near([parseval["norm_defect"]], [defect])
        assert (parseval["band_mass_input"], parseval["band_mass_transform"]) == (band_in, band_out)


def test_block_of_k_draws_the_same_states_as_k_single_draws():
    grid = make_uniform_grid(1, 128, 6.0)
    block = random_band_limited(grid, np.random.default_rng(4), n_states=7)
    rng = np.random.default_rng(4)
    singles = [random_band_limited(grid, rng, n_states=1)[0] for _ in range(7)]
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
    assert _rows_keep_lone_bits(got, [inner_product_block(states[0], states[1], grid),
                                      inner_product_block(states[1], states[0], grid)])
    assert _near(got, [_inner(states[0], states[1], grid), _inner(states[1], states[0], grid)])
    moved = transform_block(block, grid, "position")
    for row, v in zip(moved, states):
        assert np.array_equal(row, transform_block(v, grid, "position"))
