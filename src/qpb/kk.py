"""Discrete Hilbert transform, principal-value quadrature, and the
real-imaginary dispersion pair for half-plane analytic signals.

Convention used throughout this module:

    H[g](z) = (1/pi) P.V. integral g(u) / (u - z) du

realized circularly on the periodic grid. A signal analytic in the LOWER
half-plane (the sampled family 1/(u - i a) with a > 0, pole above the axis)
satisfies

    im = +H[re]        re = -H[im]

and the conjugate, upper-half-plane analytic signal flips both signs. The
spectral realization is the frequency-domain multiplier +i sign(freq) with the
zero-frequency and Nyquist bins zeroed, so H determines a conjugate function
only up to an additive constant; residual checks therefore compare mean-adjusted
quantities and record the adjustment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryContaminationError,
    ConfigurationError,
    PhaseUndefinedError,
)
from .grids import UniformGrid
from .report import CheckReport, make_report, worst

# Relative boundary amplitude above which the circular transform is meaningless.
# The canonical decaying test families sit at 1e-3 .. 1e-2 relative amplitude on
# desk grids, so the guard is deliberately loose; the strict containment level
# is still measured and reported.
BOUNDARY_AMPLITUDE_LIMIT = 0.1
STRICT_DECAY_LEVEL = 1e-10


def _relative_boundary_amplitude(values: np.ndarray, cells: int = 4) -> float:
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0.0
    edge = max(float(np.max(np.abs(values[:cells]))), float(np.max(np.abs(values[-cells:]))))
    return edge / peak


def _guard_boundary(values: np.ndarray, what: str) -> float:
    rel = _relative_boundary_amplitude(values)
    if rel > BOUNDARY_AMPLITUDE_LIMIT:
        raise BoundaryContaminationError(
            f"{what} has relative boundary amplitude {rel:.3e}, "
            f"above the {BOUNDARY_AMPLITUDE_LIMIT:g} limit for the circular transform"
        )
    return rel


def hilbert_spectral(re_part: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """Circular Hilbert transform by the +i sign(freq) spectral multiplier.

    Approximates H[g](z) = (1/pi) P.V. integral g(u)/(u - z) du for decaying
    samples. Zero-frequency and Nyquist multipliers vanish, so the output is
    mean-free and applying the transform twice gives -(input - mean - Nyquist
    component).
    """
    if grid.dim != 1:
        raise ConfigurationError("hilbert_spectral is defined on 1D grids")
    g = np.asarray(re_part, dtype=np.float64)
    if g.shape != grid.shape:
        raise ConfigurationError(f"sample shape {g.shape} does not match grid shape {grid.shape}")
    _guard_boundary(g, "hilbert_spectral input")
    n = grid.n_points
    mult = 1j * np.sign(np.fft.fftfreq(n))
    mult[0] = 0.0
    mult[n // 2] = 0.0
    return np.fft.ifft(mult * np.fft.fft(g)).real


def _odd_offsets(n: int) -> np.ndarray:
    return np.arange(1, n, 2)


def _periodic_weights(n: int) -> np.ndarray:
    """Weights w_m = (2/n) cot(pi m / n) on the odd offsets m = 1, 3, ..., n-1;
    circular exact counterpart of the spectral multiplier."""
    return (2.0 / n) / np.tan(math.pi * _odd_offsets(n) / n)


def pv_quadrature(samples: np.ndarray, grid: UniformGrid, z_index: int,
                  kernel: str = "periodic") -> float:
    """Brute-force principal value at one grid point by symmetric exclusion.

    The singular cell (z - spacing, z + spacing) is excluded symmetrically and
    the trapezoid sum runs over the staggered odd-offset points z + m*spacing,
    m odd, each carrying width 2*spacing.

    kernel="periodic": Cauchy kernel periodized to the circular domain,
    weights (2/n) cot(pi m / n), summed over one full period. This is the
    consistent oracle for hilbert_spectral (agreement at rounding level).

    kernel="line": truncated-line Cauchy kernel 1/(u - z) restricted to the
    window, weights 2/(pi m). Converges to the continuum principal value as
    the window grows, so refinement under simultaneous (n, L) doubling must
    improve its agreement with the circular transform.
    """
    if grid.dim != 1:
        raise ConfigurationError("pv_quadrature is defined on 1D grids")
    g = np.asarray(samples, dtype=np.float64)
    n = grid.n_points
    if g.shape != (n,):
        raise ConfigurationError(f"sample shape {g.shape} does not match grid size {n}")
    if not 0 <= z_index < n:
        raise ConfigurationError(f"z_index {z_index} outside grid of {n} points")
    if kernel == "periodic":
        return float(np.sum(g[(z_index + _odd_offsets(n)) % n] * _periodic_weights(n)))
    if kernel == "line":
        m = np.concatenate([-_odd_offsets(n)[::-1], _odd_offsets(n)])
        k = z_index + m
        keep = (k >= 0) & (k < n)
        return float(np.sum(g[k[keep]] / m[keep]) * 2.0 / math.pi)
    raise ConfigurationError(f"unknown kernel {kernel!r}")


def pv_quadrature_all(samples: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """Periodic-kernel principal value at every grid point.

    Same staggered sum as pv_quadrature(kernel="periodic"), with the same
    weights, at every z. The odd offsets from an even z reach only the
    odd-indexed samples, and from an odd z only the even-indexed ones, so
    each parity class of z is one direct correlation of the weights with a
    contiguous copy of the matching samples, wrapped once around the
    circle. The whole-grid oracle comparison stays an independent O(n^2)
    summation rather than another FFT: np.correlate sums directly.
    """
    g = np.asarray(samples, dtype=np.float64)
    n = grid.n_points
    if g.shape != (n,):
        raise ConfigurationError(f"sample shape {g.shape} does not match grid size {n}")
    w = _periodic_weights(n)
    out = np.empty(n)
    # z = 2i sums g[2i + m], m odd; z = 2i + 1 sums g[2i + 1 + m], m odd
    odd, even = g[1::2], g[0::2]
    out[0::2] = np.correlate(np.concatenate([odd, odd[:-1]]), w, mode="valid")
    out[1::2] = np.correlate(np.concatenate([even[1:], even]), w, mode="valid")
    return out


@dataclass(frozen=True)
class AnalyticSignal:
    """Complex samples declared analytic in one half-plane.

    Use `checked` to reject signals whose samples are all zero or fail the
    declared dispersion pair by more than the rejection tolerance.
    """

    grid: UniformGrid
    values: np.ndarray = field(repr=False)
    analyticity_half_plane: str = "lower"

    def __post_init__(self):
        if self.grid.dim != 1:
            raise ConfigurationError("AnalyticSignal is 1D")
        if self.analyticity_half_plane not in ("upper", "lower"):
            raise ConfigurationError("analyticity_half_plane must be 'upper' or 'lower'")
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise ConfigurationError("sample shape does not match grid")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def checked(cls, grid: UniformGrid, values: np.ndarray, analyticity_half_plane: str,
                rejection_tolerance: float = 1e-2) -> "AnalyticSignal":
        sig = cls(grid=grid, values=values, analyticity_half_plane=analyticity_half_plane)
        rep = kk_residual(sig)
        if not rep.valid:
            raise ConfigurationError("an identically zero signal has no dispersion pair to check")
        if not rep.residual <= rejection_tolerance:
            raise ConfigurationError(
                f"signal fails its declared {analyticity_half_plane}-half-plane dispersion pair: "
                f"residual {rep.residual:.3e} > {rejection_tolerance:g}"
            )
        return sig


def kk_residual(f: AnalyticSignal, dc_adjust: bool = True) -> CheckReport:
    """Residual of the dispersion pair for the declared half-plane.

    Reports the max over interior points (middle half of the grid) of
    |im - H_pm[re]| and |re - H_pm^(-1)[im]| with the signs fixed by the
    declared half-plane. The circular transform fixes conjugates only up to
    an additive constant, so by default each residual is compared after
    removing its interior mean; the removed offsets are recorded. An all-zero
    input is an invalid scenario: residual 0, flagged `degenerate_input`, FAIL.
    """
    v = f.values
    peak = float(np.max(np.abs(v)))
    n = f.grid.n_points
    if peak == 0.0:
        return make_report("kk_residual", 0.0, valid=False,
                           context={"degenerate_input": True, "half_plane": f.analyticity_half_plane})
    rel_edge = _guard_boundary(v, "kk_residual input")
    sign = +1.0 if f.analyticity_half_plane == "lower" else -1.0
    re, im = v.real.copy(), v.imag.copy()
    h_re = hilbert_spectral(re, f.grid)
    h_im = hilbert_spectral(im, f.grid)
    r_im = im - sign * h_re
    r_re = re + sign * h_im
    interior = slice(n // 4, 3 * n // 4)
    off_im = float(np.mean(r_im[interior])) if dc_adjust else 0.0
    off_re = float(np.mean(r_re[interior])) if dc_adjust else 0.0
    residual = worst([
        float(np.max(np.abs(r_im[interior] - off_im))),
        float(np.max(np.abs(r_re[interior] - off_re))),
    ])
    return make_report(
        "kk_residual", residual,
        context={
            "half_plane": f.analyticity_half_plane,
            "dc_adjusted": dc_adjust,
            "dc_offset_im_line": off_im,
            "dc_offset_re_line": off_re,
            "relative_boundary_amplitude": rel_edge,
            "strictly_decaying": rel_edge <= STRICT_DECAY_LEVEL,
            "n_points": n,
            "half_extent": f.grid.half_extent,
        },
    )


def pole_family(grid: UniformGrid, a: float, half_plane: str = "lower") -> np.ndarray:
    """Samples of 1/(u - i a) (lower) or 1/(u + i a) (upper), a > 0.

    The line-integral dispersion pair holds exactly for these; on the circular
    grid the window truncation leaves an O(1/L) tail, so residuals shrink
    under simultaneous (n, L) doubling instead of vanishing.
    """
    if a <= 0:
        raise ConfigurationError("pole offset a must be positive")
    if half_plane not in ("upper", "lower"):
        raise ConfigurationError("half_plane must be 'upper' or 'lower'")
    u = grid.axis_points()
    pole = 1j * a if half_plane == "lower" else -1j * a
    return 1.0 / (u - pole)


def periodized_pole(grid: UniformGrid, a: float, half_plane: str = "lower") -> np.ndarray:
    """Periodization of the pole family over the grid's 2 L period:

        sum_k 1/(u - i a + 2 L k) = (pi / 2 L) cot(pi (u - i a) / 2 L)

    The closed form is analytic in the strip |Im u| < a, so the sampled
    dispersion residual is an aliasing error that decays like exp(-pi a / h)
    in the spacing h (Trefethen & Weideman, "The exponentially convergent
    trapezoidal rule", SIAM Review 56, 2014). It sits at rounding level only
    once the grid resolves the pole: with L = 64, a = 0.5 leaves about 0.17
    at n = 256 and 1.4e-5 at n = 1024, and rounding level at n = 4096.
    """
    if a <= 0:
        raise ConfigurationError("pole offset a must be positive")
    if half_plane not in ("upper", "lower"):
        raise ConfigurationError("half_plane must be 'upper' or 'lower'")
    u = grid.axis_points()
    period = 2.0 * grid.half_extent
    pole = 1j * a if half_plane == "lower" else -1j * a
    return (math.pi / period) / np.tan(math.pi * (u - pole) / period)


def phase_equivalence(mag: np.ndarray, phase_a: np.ndarray, phase_b: np.ndarray,
                      window_threshold: float = 1e-3) -> CheckReport:
    """Distance of (phase_a - phase_b) to the nearest multiple of 2 pi, on the
    window where mag >= window_threshold * max(mag).

    Two sampled representations describe the same physical state when this
    residual vanishes. If the pointwise difference itself jumps by more than
    pi/2 between adjacent window samples the grid cannot support a trustworthy
    comparison: the scenario is invalid, so the report fails whatever its
    residual, with an insufficient-resolution flag.
    """
    mag = np.asarray(mag, dtype=np.float64)
    a = np.asarray(phase_a, dtype=np.float64)
    b = np.asarray(phase_b, dtype=np.float64)
    if mag.shape != a.shape or mag.shape != b.shape:
        raise ConfigurationError("mag, phase_a, phase_b must share one shape")
    peak = float(np.max(mag)) if mag.size else 0.0
    if peak <= 0.0:
        raise PhaseUndefinedError("phase comparison on an identically zero magnitude")
    window = mag >= window_threshold * peak
    if not np.all(mag[window] > 0.0):
        raise PhaseUndefinedError("zero magnitude inside the comparison window")
    d = a[window] - b[window]
    reduced = np.abs((d + math.pi) % (2.0 * math.pi) - math.pi)
    residual = float(np.max(reduced))
    idx = np.flatnonzero(window)
    adjacent = np.diff(idx) == 1
    wrapped_step = np.abs((np.diff(d) + math.pi) % (2.0 * math.pi) - math.pi)
    max_jump = float(np.max(wrapped_step[adjacent])) if np.any(adjacent) else 0.0
    under_resolved = max_jump > math.pi / 2.0
    return make_report(
        "phase_equivalence", residual, valid=not under_resolved,
        context={
            "window_points": int(np.sum(window)),
            "window_threshold": window_threshold,
            "max_adjacent_jump": max_jump,
            "insufficient_resolution": under_resolved,
        },
    )
