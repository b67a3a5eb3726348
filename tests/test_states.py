import math

import numpy as np
import pytest

from qpb.errors import ConfigurationError
from qpb.grids import WaveFunction, inner_product, make_uniform_grid, normalize
from qpb.states import (
    _band_basis,
    conjugate_gaussian_pair,
    gaussian,
    gaussian_3d,
    oscillator_eigenstate,
    random_band_limited,
)


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
            assert inner_product(a, b) == pytest.approx(float(i == j), abs=1e-10)


def test_oscillator_eigenstate_parity():
    grid = make_uniform_grid(1, 256, 8.0)
    for n in range(4):
        v = oscillator_eigenstate(grid, n).values
        flipped = v[np.arange(255, -1, -1) % 256]
        sign = (-1.0) ** n
        assert np.max(np.abs(v[1:] - sign * flipped[:-1])) < 1e-12


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
    a = random_band_limited(grid, np.random.default_rng(7))
    b = random_band_limited(grid, np.random.default_rng(7))
    assert np.array_equal(a.values, b.values)
    assert a.norm() == pytest.approx(1.0, abs=1e-12)
    edge = np.abs(a.values[:4]).max() / np.abs(a.values).max()
    assert edge < 1e-6


def _inline_band_limited(grid, rng, n_modes=6, envelope_divisor=8.0):
    # the per-call construction the memoized basis replaced, kept as reference
    x = grid.axis_points()
    L = grid.half_extent
    c = rng.normal(size=2 * n_modes + 1) + 1j * rng.normal(size=2 * n_modes + 1)
    modes = np.zeros(grid.n_points, dtype=np.complex128)
    for j in range(2 * n_modes + 1):
        modes += c[j] * np.exp(1j * math.pi * (j - n_modes) * x / L)
    v = np.exp(-(x**2) / (2.0 * (L / envelope_divisor) ** 2)) * modes
    return normalize(WaveFunction(grid=grid, representation="position", values=v))


def test_random_band_limited_bit_equal_to_inline_construction():
    grid_a = make_uniform_grid(1, 256, 8.0)
    grid_b = make_uniform_grid(1, 128, 6.0)
    for seed, grid in enumerate((grid_a, grid_b, grid_a)):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = random_band_limited(grid, fast)
            assert got.grid == grid
            assert np.array_equal(got.values, _inline_band_limited(grid, slow).values)
    waves, envelope = _band_basis(grid_a, 6, 8.0)
    assert not waves.flags.writeable and not envelope.flags.writeable


def test_state_validation():
    grid = make_uniform_grid(1, 64, 8.0)
    with pytest.raises(ConfigurationError):
        gaussian(grid, sigma=-1.0)
    with pytest.raises(ConfigurationError):
        oscillator_eigenstate(grid, -1)
    grid3 = make_uniform_grid(3, 16, 8.0)
    with pytest.raises(ConfigurationError):
        gaussian_3d(grid3, sigmas=(1.0, 1.0))
