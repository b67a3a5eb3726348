import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from qpb.errors import ConfigurationError
from qpb.grids import WaveFunction, inner_product_block, make_uniform_grid, normalize_block
from qpb.states import (
    MAX_OSCILLATOR_LEVEL,
    _band_basis,
    _hermite,
    conjugate_gaussian_pair,
    gaussian,
    gaussian_3d,
    oscillator_eigenstate,
    random_band_limited,
)
from random_states import random_state


def test_gaussian_normalized_and_centered():
    grid = make_uniform_grid(1, 256, 8.0)
    psi = gaussian(grid, sigma=1.2, center=-0.7)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    peak = grid.axis_points()[np.argmax(np.abs(psi.values))]
    assert peak == pytest.approx(-0.7, abs=grid.spacing)


def test_oscillator_eigenstates_orthonormal():
    grid = make_uniform_grid(1, 512, 16.0)
    states = [oscillator_eigenstate(grid, n) for n in range(5)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            assert complex(inner_product_block(a.values, b.values, grid)) == pytest.approx(
                float(i == j), abs=1e-10)


def test_oscillator_eigenstate_parity():
    grid = make_uniform_grid(1, 256, 8.0)
    for n in range(4):
        v = oscillator_eigenstate(grid, n).values
        flipped = v[np.arange(255, -1, -1) % 256]
        sign = (-1.0) ** n
        assert np.max(np.abs(v[1:] - sign * flipped[:-1])) < 1e-12


def _hermval_eigenstate(grid, n):
    """oscillator_eigenstate as built through numpy.polynomial's hermval: the
    oracle for the bits of the inlined Clenshaw steps."""
    x = grid.axis_points()
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    v = hermval(x, coeffs) * np.exp(-(x**2) / 2.0)
    v = v / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return WaveFunction(grid=grid, representation="position",
                        values=normalize_block(v.astype(np.complex128), grid))


def _state_bits(build, grid, n):
    try:
        return build(grid, n).values.tobytes()
    except ConfigurationError as exc:
        if "cannot normalize a state with zero or non-finite norm" not in str(exc):
            raise
        return "degenerate"


HERMITE_GRIDS = [64, 256, 1024, 4096]
HERMITE_SCALES = [0.7, 1.0, 1.3]


# a grid of half-extent 16 / scale reaches the Hermite arguments that the
# width sigma = scale reached on a grid of half-extent 16
@pytest.mark.parametrize("scale", HERMITE_SCALES)
@pytest.mark.parametrize("n_points", HERMITE_GRIDS)
def test_oscillator_eigenstate_is_bit_equal_to_hermval(n_points, scale):
    grid = make_uniform_grid(1, n_points, 16.0 / scale)
    for n in range(21):
        got = oscillator_eigenstate(grid, n).values
        assert got.tobytes() == _hermval_eigenstate(grid, n).values.tobytes(), n


# at half-extent 1e17, H_n(x / scale) overflows near the edges for the larger
# n: inf, and NaN where the Clenshaw steps then subtract or scale infinities.
# The Gaussian factor underflows off x = 0, so the states are the samples at
# x = 0 alone, or degenerate where an overflow leaves a non-finite norm.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_hermite_overflows_to_the_same_inf_and_nan_as_hermval():
    seen_inf = seen_nan = False
    for n_points in HERMITE_GRIDS:
        grid = make_uniform_grid(1, n_points, 1e17)
        for scale in HERMITE_SCALES:
            x = grid.axis_points() / scale
            for n in range(21):
                coeffs = np.zeros(n + 1)
                coeffs[n] = 1.0
                want = hermval(x, coeffs)
                assert _hermite(x, n).tobytes() == want.tobytes(), (n_points, scale, n)
                seen_inf |= bool(np.isinf(want).any())
                seen_nan |= bool(np.isnan(want).any())
        for n in range(21):
            assert (_state_bits(oscillator_eigenstate, grid, n)
                    == _state_bits(_hermval_eigenstate, grid, n)), (n_points, n)
    assert seen_inf and seen_nan


def test_poisson_run_does_not_import_numpy_polynomial():
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "qpb", "verify", "poisson"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "qpb.states" in imported
    assert not [name for name in imported if name.startswith("numpy.polynomial")]


def test_conjugate_pair_members_normalized_on_reciprocal_grids():
    grid_p = make_uniform_grid(1, 512, 16.0)
    psi_p, chi_r = conjugate_gaussian_pair(grid_p, sigma=1.0, center=0.3, momentum=-0.9)
    assert psi_p.representation == "momentum"
    assert chi_r.representation == "position"
    assert psi_p.norm() == pytest.approx(1.0, abs=1e-12)
    assert chi_r.norm() == pytest.approx(1.0, abs=1e-12)
    assert psi_p.grid.n_points == chi_r.grid.n_points


def test_gaussian_3d_is_product_of_axes():
    grid = make_uniform_grid(3, 16, 8.0)
    axis = make_uniform_grid(1, 16, 8.0)
    psi = gaussian_3d(grid, sigmas=(1.0, 1.5, 0.8))
    parts = [gaussian(axis, sigma=s).values for s in (1.0, 1.5, 0.8)]
    product = np.einsum("i,j,k->ijk", *parts)
    assert np.max(np.abs(psi.values - product)) < 1e-12


def test_random_band_limited_reproducible_and_contained():
    grid = make_uniform_grid(1, 256, 8.0)
    a = random_band_limited(grid, np.random.default_rng(7), n_states=3)
    b = random_band_limited(grid, np.random.default_rng(7), n_states=3)
    assert np.array_equal(a, b)
    for row in a:
        assert WaveFunction(grid=grid, representation="position", values=row).norm() \
            == pytest.approx(1.0, abs=1e-12)
        assert np.abs(row[:4]).max() / np.abs(row).max() < 1e-6


def _inline_band_limited(grid, rng):
    # the per-call construction the memoized basis replaced, kept as reference:
    # 13 modes under an envelope of width L/8
    x = grid.axis_points()
    L = grid.half_extent
    c = rng.normal(size=13) + 1j * rng.normal(size=13)
    modes = np.zeros(grid.n_points, dtype=np.complex128)
    for j in range(13):
        modes += c[j] * np.exp(1j * math.pi * (j - 6) * x / L)
    v = np.exp(-(x**2) / (2.0 * (L / 8.0) ** 2)) * modes
    return WaveFunction(grid=grid, representation="position", values=normalize_block(v, grid))


def test_random_band_limited_bit_equal_to_inline_construction():
    grid_a = make_uniform_grid(1, 256, 8.0)
    grid_b = make_uniform_grid(1, 128, 6.0)
    for seed, grid in enumerate((grid_a, grid_b, grid_a)):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = random_state(grid, fast)
            assert got.grid == grid
            assert np.array_equal(got.values, _inline_band_limited(grid, slow).values)
    waves, envelope = _band_basis(grid_a)
    assert not waves.flags.writeable and not envelope.flags.writeable


@pytest.mark.parametrize("n", [MAX_OSCILLATOR_LEVEL + 1, 171, 400])
def test_oscillator_levels_past_the_float_norm_are_config_errors(n):
    grid = make_uniform_grid(1, 64, 8.0)
    with pytest.raises(ConfigurationError, match=f"level {n} exceeds {MAX_OSCILLATOR_LEVEL}"):
        oscillator_eigenstate(grid, n)


def test_the_largest_oscillator_level_is_a_normalized_state():
    # 2^150 150! sqrt(pi) is 1.45e308, just inside the float range
    psi = oscillator_eigenstate(make_uniform_grid(1, 256, 8.0), MAX_OSCILLATOR_LEVEL)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_state_validation():
    grid = make_uniform_grid(1, 64, 8.0)
    with pytest.raises(ConfigurationError):
        gaussian(grid, sigma=-1.0)
    with pytest.raises(ConfigurationError):
        oscillator_eigenstate(grid, -1)
    grid3 = make_uniform_grid(3, 16, 8.0)
    with pytest.raises(ConfigurationError):
        gaussian_3d(grid3, sigmas=(1.0, 1.0))
