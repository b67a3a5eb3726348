"""Closed-form and seeded test state families used across checks."""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigurationError
from .grids import UniformGrid, WaveFunction, normalize, normalize_block


def gaussian(grid: UniformGrid, sigma: float = 1.0, center: float = 0.0,
             momentum: float = 0.0, representation: str = "position") -> WaveFunction:
    """Normalized 1D Gaussian exp(-(x-center)^2 / 2 sigma^2) times a plane-wave factor."""
    if grid.dim != 1:
        raise ConfigurationError("gaussian builds 1D states; use gaussian_3d for dim 3")
    if not sigma > 0:
        raise ConfigurationError("sigma must be positive")
    x = grid.axis_points()
    v = (math.pi * sigma**2) ** -0.25 * np.exp(-((x - center) ** 2) / (2.0 * sigma**2))
    v = v * np.exp(1j * momentum * x / grid.hbar)
    return normalize(WaveFunction(grid=grid, representation=representation, values=v))


def gaussian_3d(grid: UniformGrid, sigmas=(1.0, 1.0, 1.0),
                representation: str = "position") -> WaveFunction:
    """Normalized 3D Gaussian with per-axis widths."""
    if grid.dim != 3:
        raise ConfigurationError("gaussian_3d needs a 3D grid")
    if len(sigmas) != 3 or any(not s > 0 for s in sigmas):
        raise ConfigurationError("sigmas must be three positive widths")
    e = [np.exp(-(grid.coordinate(axis) ** 2) / (2.0 * s**2)) for axis, s in enumerate(sigmas)]
    # the real product in the real parts has the bits of three complex products
    v = np.zeros(grid.shape, dtype=np.complex128)
    np.multiply(e[0] * e[1], e[2], out=v.real)
    return WaveFunction._fresh(grid, representation, normalize_block(v, grid))


def _hermite(x: np.ndarray, n: int) -> np.ndarray:
    """Physicists' H_n at x by the Clenshaw steps of numpy's hermval for the
    unit coefficient vector e_n, operation for operation (the zero
    coefficients' additions included), so the bits equal
    numpy.polynomial.hermite.hermval(x, e_n), inf and NaN where it overflows
    too, without importing numpy.polynomial."""
    x2 = x * 2
    c0, c1 = (1.0, 0.0) if n == 0 else (0.0, 1.0)
    for k in range(n - 1, 0, -1):
        c0, c1 = 0.0 - c1 * (2 * k), c0 + c1 * x2
    return c0 + c1 * x2


# the largest level whose norm factor 2^n n! sqrt(pi) is a finite float
MAX_OSCILLATOR_LEVEL = 150


def oscillator_eigenstate(grid: UniformGrid, n: int, sigma: float = 1.0) -> WaveFunction:
    """n-th weighted-Hermite state H_n(x/sigma) exp(-x^2 / 2 sigma^2), normalized,
    for 0 <= n <= MAX_OSCILLATOR_LEVEL."""
    if grid.dim != 1:
        raise ConfigurationError("oscillator_eigenstate builds 1D states")
    if n < 0:
        raise ConfigurationError("n must be nonnegative")
    if n > MAX_OSCILLATOR_LEVEL:
        raise ConfigurationError(
            f"oscillator level {n} exceeds {MAX_OSCILLATOR_LEVEL}, the largest whose "
            f"norm factor 2^n n! is a finite float")
    if not sigma > 0:
        raise ConfigurationError("sigma must be positive")
    x = grid.axis_points()
    h = _hermite(x / sigma, n)
    v = h * np.exp(-(x**2) / (2.0 * sigma**2))
    v = v / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi) * sigma)
    return normalize(WaveFunction(grid=grid, representation="position", values=v.astype(np.complex128)))


def conjugate_gaussian_pair(grid_p: UniformGrid, sigma: float = 1.0, center: float = 0.0,
                            momentum: float = 0.0) -> tuple[WaveFunction, WaveFunction]:
    """Closed-form transform pair: momentum-side samples and the exact position image.

    psi(p) = (sigma^2 / (pi hbar^2))^(1/4) exp(-sigma^2 (p - p0)^2 / 2 hbar^2) exp(-i p x0 / hbar)
    Psi(r) = (pi sigma^2)^(-1/4) exp(-(r - x0)^2 / 2 sigma^2) exp(+i p0 (r - x0) / hbar)

    The second is the exact forward image of the first, including the constant
    phase, so the two can serve as independently constructed representations.
    """
    from .transforms import reciprocal_grid

    if grid_p.dim != 1:
        raise ConfigurationError("conjugate_gaussian_pair builds 1D states")
    hbar = grid_p.hbar
    p = grid_p.axis_points()
    psi = (sigma**2 / (math.pi * hbar**2)) ** 0.25 \
        * np.exp(-(sigma**2) * (p - momentum) ** 2 / (2.0 * hbar**2)) \
        * np.exp(-1j * p * center / hbar)
    grid_r = reciprocal_grid(grid_p)
    r = grid_r.axis_points()
    Psi = (math.pi * sigma**2) ** -0.25 \
        * np.exp(-((r - center) ** 2) / (2.0 * sigma**2)) \
        * np.exp(1j * momentum * (r - center) / hbar)
    return (
        WaveFunction(grid=grid_p, representation="momentum", values=psi),
        WaveFunction(grid=grid_r, representation="position", values=Psi),
    )


@functools.lru_cache(maxsize=8)
def _band_basis(grid: UniformGrid, n_modes: int,
                envelope_divisor: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only plane waves exp(i pi k x / L), k = -n_modes..n_modes, and the
    Gaussian envelope of width L/envelope_divisor on a 1D grid."""
    x = grid.axis_points()
    L = grid.half_extent
    waves = np.empty((2 * n_modes + 1, grid.n_points), dtype=np.complex128)
    for j in range(2 * n_modes + 1):
        waves[j] = np.exp(1j * math.pi * (j - n_modes) * x / L)
    envelope = np.exp(-(x**2) / (2.0 * (L / envelope_divisor) ** 2))
    waves.flags.writeable = False
    envelope.flags.writeable = False
    return waves, envelope


def random_band_limited(grid: UniformGrid, rng: np.random.Generator, n_modes: int = 6,
                        envelope_divisor: float = 8.0, representation: str = "position",
                        n_states: int | None = None):
    """Seeded boundary-clean state: Gaussian envelope times random low modes.

    The envelope width L/envelope_divisor keeps boundary-band mass far below
    the unitarity tolerances, so these states are valid inputs for round-trip
    and norm-preservation properties. The basis is computed once per
    (grid, n_modes, envelope_divisor); only the coefficients are drawn, and
    each mode term of a block goes through one reused work buffer.

    Draws a block: with n_states, the result is the (n_states, n_points)
    array of normalized samples, one state per row; without, it is a
    WaveFunction holding row 0 of a block of one. Each row takes its
    2 n_modes + 1 real, then 2 n_modes + 1 imaginary coefficient parts next
    from rng, so a block of k and k single draws consume the same stream and
    give the same bits.
    """
    if grid.dim != 1:
        raise ConfigurationError("random_band_limited builds 1D states")
    waves, envelope = _band_basis(grid, n_modes, envelope_divisor)
    draws = rng.normal(size=(1 if n_states is None else n_states, 2, 2 * n_modes + 1))
    c = draws[:, 0] + 1j * draws[:, 1]
    modes = np.zeros((len(c), grid.n_points), dtype=np.complex128)
    term = np.empty_like(modes)
    for j in range(2 * n_modes + 1):
        modes += np.multiply(c[:, j, None], waves[j], out=term)
    modes *= envelope
    block = normalize_block(modes, grid)
    if n_states is not None:
        return block
    return WaveFunction(grid=grid, representation=representation, values=block[0])
