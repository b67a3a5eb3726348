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
a block of states is transformed as a batch of independent FFTs; the
WaveFunction-level functions call them with a single state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, PreconditionError, RepresentationError
from .grids import UniformGrid, WaveFunction, boundary_band_fraction, norm_block
from .report import CheckReport, make_report, worst


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


def _check_out_grid(computed: UniformGrid, declared: UniformGrid | None) -> UniformGrid:
    if declared is None:
        return computed
    if not computed.compatible(declared):
        raise ConfigurationError(
            "declared output grid violates the reciprocity relation spacing_r * spacing_p = 2 pi hbar / n"
        )
    return declared


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
        raise RepresentationError(f"no transform direction for representation {representation!r}")
    out *= scale * s
    return out


def to_position(psi_p: WaveFunction, out_grid: UniformGrid | None = None) -> WaveFunction:
    """Map a momentum-representation state to the position representation."""
    if psi_p.representation != "momentum":
        raise RepresentationError(f"to_position needs a momentum-representation input, got {psi_p.representation!r}")
    out = _check_out_grid(reciprocal_grid(psi_p.grid), out_grid)
    values = transform_block(psi_p.values, psi_p.grid, "momentum")
    return WaveFunction(grid=out, representation="position", values=values)


def to_momentum(chi_r: WaveFunction, out_grid: UniformGrid | None = None) -> WaveFunction:
    """Inverse of to_position: position representation to momentum representation."""
    if chi_r.representation != "position":
        raise RepresentationError(f"to_momentum needs a position-representation input, got {chi_r.representation!r}")
    out = _check_out_grid(reciprocal_grid(chi_r.grid), out_grid)
    values = transform_block(chi_r.values, chi_r.grid, "position")
    return WaveFunction(grid=out, representation="momentum", values=values)


def transform(psi: WaveFunction, out_grid: UniformGrid | None = None) -> WaveFunction:
    """Apply whichever direction matches the input representation."""
    if psi.representation == "momentum":
        return to_position(psi, out_grid)
    return to_momentum(psi, out_grid)


def parseval_block(values: np.ndarray, transformed: np.ndarray, grid: UniformGrid,
                   band_divisor: int = 8) -> dict:
    """Norm defect and boundary-band masses of every state of a 1D block on
    `grid` and its transform (on reciprocal_grid(grid)), one entry per state;
    `residual` is the worst of the three. Every state must be normalized."""
    norm_in = norm_block(values, grid)
    if not np.all(np.abs(norm_in - 1.0) <= 1e-9):
        raise PreconditionError("check_parseval expects a normalized state")
    if grid.dim != 1:
        raise ConfigurationError("check_parseval is defined for 1D states")
    defect = np.abs(norm_block(transformed, reciprocal_grid(grid)) ** 2 - norm_in**2)
    band_in = boundary_band_fraction(values, band_divisor)
    band_out = boundary_band_fraction(transformed, band_divisor)
    return {
        "norm_defect": defect,
        "band_mass_input": band_in,
        "band_mass_transform": band_out,
        "residual": worst([defect, band_in, band_out], axis=0),
    }


def check_parseval(psi: WaveFunction, band_divisor: int = 8) -> CheckReport:
    """Norm preservation plus window containment for the transform pair.

    The discrete map is unitary by construction, so |norm(F psi)^2 - norm(psi)^2|
    alone is satisfied at rounding level by every input, including states that
    were clipped by the window. The sampled pair only represents the continuum
    pair faithfully when both members decay inside their windows, so the
    reported residual is the worst of three numbers: the discrete norm defect,
    the boundary-band mass fraction of the input, and that of the transform.
    A state clipped at the boundary fails through the band terms.
    """
    out = transform_block(psi.values, psi.grid, psi.representation)
    terms = parseval_block(psi.values, out, psi.grid, band_divisor)
    return make_report(
        "fourier_parseval", terms.pop("residual"),
        context={
            **terms,
            "band_divisor": band_divisor,
            "n_points": psi.grid.n_points,
            "half_extent": psi.grid.half_extent,
            "hbar": psi.grid.hbar,
            "input_representation": psi.representation,
        },
    )
