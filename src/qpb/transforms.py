"""The hbar-scaled Fourier pair between momentum and position representations.

Forward map (momentum -> position), sampled form of the symmetric-normalization
integral with kernel exp(+i r.p/hbar):

    Psi(r_m) = spacing_p / sqrt(2 pi hbar) * sum_k psi(p_k) exp(+i r_m p_k / hbar)

On centered grids r_m = (m - n/2) dr, p_k = (k - n/2) dp with the reciprocity
dr * dp = 2 pi hbar / n, the exponent factors as

    exp(2 pi i m k / n) * (-1)^m * (-1)^k * exp(i pi n / 2)

and exp(i pi n / 2) = 1 because n is a multiple of 4 here. The map is therefore
a diagonal sign flip, one FFT, another sign flip, and a scale, which makes it
exactly unitary with respect to the Riemann inner products of the two grids.

`transform_block` and `parseval_block` act on the trailing grid.dim axes, so
a block of states is transformed as a batch of independent FFTs;
`to_position` and `to_momentum` call `transform_block` with a single state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .grids import UniformGrid, WaveFunction, boundary_band_fraction, norm_block, require_normalized


def reciprocal_grid(grid: UniformGrid) -> UniformGrid:
    """Output grid of the transform: spacing_out = 2 pi hbar / (n * spacing_in)."""
    d_out = 2.0 * math.pi * grid.hbar / (grid.n_points * grid.spacing)
    return UniformGrid(
        dim=grid.dim,
        n_points=grid.n_points,
        half_extent=grid.n_points * d_out / 2.0,
        hbar=grid.hbar,
    )


def _checkerboard(grid: UniformGrid) -> np.ndarray:
    s = (-1.0) ** np.arange(grid.n_points)
    if grid.dim == 1:
        return s
    out = s.reshape(-1, 1, 1) * s.reshape(1, -1, 1) * s.reshape(1, 1, -1)
    return out


def transform_block(values: np.ndarray, grid: UniformGrid, representation: str) -> np.ndarray:
    """Map every state of a block on `grid` out of `representation` ("momentum"
    maps to position, "position" to momentum); the output samples live on
    reciprocal_grid(grid). The FFT runs in place in the sign-flipped copy it
    allocates."""
    s = _checkerboard(grid)
    axes = tuple(range(-grid.dim, 0))
    out = s * values
    if representation == "momentum":
        scale = (grid.spacing * grid.n_points / math.sqrt(2.0 * math.pi * grid.hbar)) ** grid.dim
        np.fft.ifftn(out, axes=axes, out=out)
    elif representation == "position":
        scale = (grid.spacing / math.sqrt(2.0 * math.pi * grid.hbar)) ** grid.dim
        np.fft.fftn(out, axes=axes, out=out)
    else:
        raise ConfigurationError(f"no transform direction for representation {representation!r}")
    out *= scale * s
    return out


def to_position(psi_p: WaveFunction) -> WaveFunction:
    """Map a momentum-representation state to the position representation."""
    if psi_p.representation != "momentum":
        raise ConfigurationError(f"to_position needs a momentum-representation input, got {psi_p.representation!r}")
    values = transform_block(psi_p.values, psi_p.grid, "momentum")
    return WaveFunction._fresh(reciprocal_grid(psi_p.grid), "position", values)


def to_momentum(chi_r: WaveFunction) -> WaveFunction:
    """Inverse of to_position: position representation to momentum representation."""
    if chi_r.representation != "position":
        raise ConfigurationError(f"to_momentum needs a position-representation input, got {chi_r.representation!r}")
    values = transform_block(chi_r.values, chi_r.grid, "position")
    return WaveFunction._fresh(reciprocal_grid(chi_r.grid), "momentum", values)


def parseval_block(values: np.ndarray, transformed: np.ndarray, grid: UniformGrid) -> dict:
    """Norm defect and boundary-band masses of every state of a 1D block on
    `grid` and its transform (on reciprocal_grid(grid)), one entry per state;
    `residual` is the worst of the three. Every state must be normalized.

    A unitary map passes a clipped state on its norm alone: the norm defect
    is at rounding level for every input. The sampled pair stands for the
    continuum pair only when both members decay inside their windows, so the
    band masses of the input and the transform join the residual.
    """
    norm_in = norm_block(values, grid)
    require_normalized(norm_in, "parseval_block expects normalized states")
    if grid.dim != 1:
        raise ConfigurationError("parseval_block is defined for 1D states")
    defect = np.abs(norm_block(transformed, reciprocal_grid(grid)) ** 2 - norm_in**2)
    band_in = boundary_band_fraction(values)
    band_out = boundary_band_fraction(transformed)
    return {
        "norm_defect": defect,
        "band_mass_input": band_in,
        "band_mass_transform": band_out,
        "residual": np.max([defect, band_in, band_out], axis=0),
    }
