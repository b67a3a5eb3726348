"""Grid realizations of the position and momentum operators and the pointwise
commutator identity checks.

Operator kinds and their action by representation:

    position_multiply           position rep: (X psi)_j = x_j psi_j, exact.
                                momentum rep: conjugation through the transform
                                pair, F m(r) F^(-1), the exact dual action.
    momentum_spectral           position rep: -i hbar * spectral derivative.
                                momentum rep: multiplication by p_j, exact.
    momentum_finite_difference  position rep: -i hbar * central difference
                                (periodic wrap), order h^2, exactly Hermitian.
                                momentum rep: multiplication by p_j.

The spectral derivative zeroes the Nyquist multiplier so the operator stays
Hermitian on even-sized grids.

Operators act on the trailing grid.dim axes of their input: axis m of the
grid is array axis m - grid.dim, and coordinates broadcast against those
axes. `apply_block` therefore takes a (k, *grid.shape) block of k states as
readily as one state; `apply` calls it on a single WaveFunction.

`apply_block` never writes into its input, which may be a read-only
`WaveFunction.values`. The kernels scale and combine the fresh arrays they
allocate themselves (FFT outputs, difference arrays) in place, and run each
inverse FFT in place in its own spectrum, so a derivative allocates one
array the size of its input. `_apply_block(..., overwrite=True)` is the one
private path that writes into its input: the caller hands over an array it
owns, and a multiplication or spectral derivative (forward FFT included)
runs in place there. The commutator kernels use it for the operator they
apply last. `apply` and `commutator_apply` hand their fresh result to the
WaveFunction they return without copying it. Coordinates and the derivative
multiplier i w are cached as read-only complex arrays, so a product with
them needs no cast buffer. `kronecker_commutators` streams a 3D state
through `grids.slabs` and holds no array the size of a state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryContaminationError,
    ConfigurationError,
    DegenerateStateError,
    IncompatibleOperandsError,
    RepresentationError,
)
from .grids import UniformGrid, WaveFunction, boundary_mass, row_dots, slabs, sum_row_dots
from .report import CheckReport, make_report, worst
from .transforms import reciprocal_grid, transform_block

OPERATOR_KINDS = ("position_multiply", "momentum_spectral", "momentum_finite_difference")

# Error threshold for the measured surface terms; the identity provably fails
# on periodic truncation when the state touches the boundary.
BOUNDARY_MASS_LIMIT = 1e-6


@dataclass(frozen=True)
class GridOperator:
    kind: str
    axis: int
    grid: UniformGrid

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ConfigurationError(f"unknown operator kind {self.kind!r}")
        if not 0 <= self.axis < self.grid.dim:
            raise ConfigurationError(f"axis {self.axis} out of range for dim {self.grid.dim}")


def position_operator(grid: UniformGrid, axis: int = 0) -> GridOperator:
    return GridOperator(kind="position_multiply", axis=axis, grid=grid)


def momentum_operator(grid: UniformGrid, axis: int = 0, backend: str = "spectral") -> GridOperator:
    if backend == "spectral":
        return GridOperator(kind="momentum_spectral", axis=axis, grid=grid)
    if backend == "finite_difference":
        return GridOperator(kind="momentum_finite_difference", axis=axis, grid=grid)
    raise ConfigurationError(f"unknown momentum backend {backend!r}")


@functools.lru_cache(maxsize=16)
def _derivative_multiplier(n: int, spacing: float, dim: int, axis: int) -> np.ndarray:
    """i w, read-only, shaped to broadcast along `axis` of a dim-D grid."""
    w = 2.0 * math.pi * np.fft.fftfreq(n, spacing)
    w[n // 2] = 0.0  # Nyquist must not leak into odd derivatives
    shape = [1] * dim
    shape[axis] = n
    iw = (1j * w).reshape(shape)
    iw.flags.writeable = False
    return iw


@functools.lru_cache(maxsize=16)
def _complex_coordinate(grid: UniformGrid, axis: int) -> np.ndarray:
    """grid.coordinate(axis) as a read-only complex array: a product with it
    has the bits of numpy's float-to-complex cast, without the cast buffer."""
    x = grid.coordinate(axis).astype(np.complex128)
    x.flags.writeable = False
    return x


def _spectral_derivative(values: np.ndarray, grid: UniformGrid, axis: int,
                         out: np.ndarray | None = None) -> np.ndarray:
    """d/dx_axis of values by FFT; both FFTs run in place in `out` when given
    (it may be `values` itself), else in one fresh array, and the cached
    multiplier i w is applied by one in-place complex multiply, so nothing
    else the size of `values` is allocated."""
    iw = _derivative_multiplier(grid.n_points, grid.spacing, grid.dim, axis)
    spectrum = np.fft.fft(values, axis=axis - grid.dim, out=out)
    spectrum *= iw
    return np.fft.ifft(spectrum, axis=axis - grid.dim, out=spectrum)


def _central_difference(values: np.ndarray, grid: UniformGrid, axis: int) -> np.ndarray:
    """(psi_{j+1} - psi_{j-1}) / (2 spacing) along `axis` with periodic wrap,
    from slice differences written into one fresh array."""
    diff = np.empty_like(values)
    v, d = np.moveaxis(values, axis - grid.dim, -1), np.moveaxis(diff, axis - grid.dim, -1)
    np.subtract(v[..., 2:], v[..., :-2], out=d[..., 1:-1])
    np.subtract(v[..., 1], v[..., -1], out=d[..., 0])
    np.subtract(v[..., 0], v[..., -2], out=d[..., -1])
    diff /= 2.0 * grid.spacing
    return diff


def apply_block(op: GridOperator, values: np.ndarray, grid: UniformGrid,
                representation: str = "position") -> np.ndarray:
    """Apply op to every state of a block on `grid` in `representation`."""
    return _apply_block(op, values, grid, representation)


def _apply_block(op: GridOperator, values: np.ndarray, grid: UniformGrid,
                 representation: str = "position", overwrite: bool = False) -> np.ndarray:
    """apply_block; with overwrite=True, `values` is a complex array that the
    caller owns and gives up, and the result may be written into it."""
    if not op.grid.compatible(grid):
        raise IncompatibleOperandsError("operator and state live on incompatible grids")
    out = values if overwrite else None
    if representation == "position":
        if op.kind == "position_multiply":
            return np.multiply(_complex_coordinate(grid, op.axis), values, out=out)
        if op.kind == "momentum_spectral":
            derivative = _spectral_derivative(values, grid, op.axis, out=out)
        else:
            derivative = _central_difference(values, grid, op.axis)
        derivative *= -1j * grid.hbar
        return derivative
    if representation == "momentum":
        if op.kind == "position_multiply":
            r_grid = reciprocal_grid(grid)
            pos = transform_block(values, grid, "momentum")
            pos *= _complex_coordinate(r_grid, op.axis)
            return transform_block(pos, r_grid, "position")
        return np.multiply(_complex_coordinate(grid, op.axis), values, out=out)
    raise RepresentationError(f"operators act on position or momentum states, got {representation!r}")


def apply(op: GridOperator, psi: WaveFunction) -> WaveFunction:
    """Apply op to psi; linear, pure, and representation-aware."""
    return psi._with_fresh(apply_block(op, psi.values, psi.grid, psi.representation))


def commutator_apply(a: GridOperator, b: GridOperator, psi: WaveFunction) -> WaveFunction:
    """(AB - BA) psi by two applications per term, no algebraic shortcut."""
    if not a.grid.compatible(b.grid):
        raise IncompatibleOperandsError("commutator operands live on incompatible grids")
    g, v, rep = psi.grid, psi.values, psi.representation
    # each outer operator works in the inner one's fresh result, so at most
    # two arrays the size of psi are alive at once
    ab = _apply_block(a, _apply_block(b, v, g, rep), g, rep, overwrite=True)
    ab -= _apply_block(b, _apply_block(a, v, g, rep), g, rep, overwrite=True)
    return psi._with_fresh(ab)


def _identity_residual(psi: WaveFunction, bm: float, threshold: float,
                       backend: str = "spectral") -> tuple[float, dict]:
    """max |[X, P] psi - i hbar psi| / max |psi| over the samples where
    |psi| > threshold max |psi|, and its context; bm is psi's boundary mass."""
    g = psi.grid
    comm = commutator_apply(position_operator(g), momentum_operator(g, backend=backend), psi)
    peak = float(np.max(np.abs(psi.values)))
    mask = np.abs(psi.values) > threshold * peak
    resid = np.abs(comm.values - 1j * g.hbar * psi.values)
    return float(np.max(resid[mask])) / peak, {
        "boundary_mass": bm,
        "interior_points": int(np.sum(mask)),
        "interior_mask_threshold": threshold,
        "n_points": g.n_points,
        "half_extent": g.half_extent,
        "hbar": g.hbar,
    }


def _require_boundary_clean(psi: WaveFunction) -> float:
    bm = boundary_mass(psi)
    if bm > BOUNDARY_MASS_LIMIT:
        raise BoundaryContaminationError(
            f"boundary mass {bm:.3e} exceeds {BOUNDARY_MASS_LIMIT:.0e}; "
            "the periodic commutator identity is meaningless for this state"
        )
    return bm


def poisson_residual(psi: WaveFunction, interior_mask_threshold: float = 1e-6,
                     backend: str = "spectral") -> CheckReport:
    """Pointwise residual of [X, P] psi = i hbar psi on a boundary-clean state.

    The spectral backend keeps the registered tolerance. The finite-difference
    backend converges at order spacing^2; its tolerance is 2 C h^2 with C
    estimated from the state's second derivative and recorded in the context.
    """
    if not abs(psi.norm() - 1.0) <= 1e-9:
        raise ConfigurationError("poisson_residual expects a normalized state")
    bm = _require_boundary_clean(psi)
    if psi.representation != "position":
        raise RepresentationError("poisson_residual checks position-representation states")
    g = psi.grid
    residual, context = _identity_residual(psi, bm, interior_mask_threshold, backend)
    context = {"backend": backend, **context}
    tolerance = None
    if backend != "spectral":
        # residual ~ h^2 max|psi''| / (2 max|psi|) at leading order
        second = _spectral_derivative(_spectral_derivative(psi.values, g, 0), g, 0)
        c_est = float(np.max(np.abs(second))) / (2.0 * float(np.max(np.abs(psi.values))))
        tolerance = 2.0 * c_est * g.spacing**2
        context["curvature_constant"] = c_est
    return make_report("poisson_residual", residual, tolerance, context)


def corollary_residual_momentum(g: WaveFunction, interior_mask_threshold: float = 1e-6) -> CheckReport:
    """Residual of [R, P] g = i hbar g in the momentum representation.

    R acts by conjugation through the transform pair and P by multiplication
    with p. A zero input is an invalid scenario: residual 0, flagged
    `degenerate_input`, FAIL.
    """
    if g.representation != "momentum":
        raise RepresentationError("corollary_residual_momentum checks momentum-representation states")
    if float(np.max(np.abs(g.values))) == 0.0:
        return make_report("corollary_residual_momentum", 0.0, valid=False,
                           context={"degenerate_input": True, "n_points": g.grid.n_points})
    residual, context = _identity_residual(g, _require_boundary_clean(g), interior_mask_threshold)
    return make_report("corollary_residual_momentum", residual, context=context)


def commutator_expectation_matrix(psi: WaveFunction, backend: str = "spectral") -> np.ndarray:
    """3x3 matrix <[X_m, P_n]> / (i hbar) over a 3D state; the identity target
    (see `kronecker_commutators`)."""
    return _commutator_pass(psi, backend, "commutator_expectation_matrix", cross=False)[0]


def kronecker_commutators(psi: WaveFunction, backend: str = "spectral") -> tuple[np.ndarray, float]:
    """The 3x3 matrix <[X_m, P_n]> / (i hbar) over a 3D state, and the maximum
    of |(X_0 P_1 - P_1 X_0) psi| where |psi| > 1e-6 max |psi|, over max |psi|.

    One streamed pass: for each n the state is read in slabs (`grids.slabs`)
    whole along axis n and along rows. Per slab, P_n psi is formed once; for
    each m, X_m psi takes its row dots with P_n psi (x_m is real, so
    <psi|X_m P_n psi> = <X_m psi|P_n psi>) and then turns into P_n X_m psi in
    place for its row dots with psi. Each inner product's row dots are summed
    as `inner_product_block` sums them, so every entry has the bits of the
    full-array loop. The n = 0 pass finds max |psi|; the n = 1 pass forms the
    cross commutator from the slab's live P_1 psi and P_1 X_0 psi, with the
    bits of `commutator_apply`. Besides psi it holds a few slabs and the row
    dots. Raises DegenerateStateError on a zero or non-finite state.
    """
    return _commutator_pass(psi, backend, "kronecker_commutators", cross=True)


def _commutator_pass(psi: WaveFunction, backend: str, name: str,
                     cross: bool) -> tuple[np.ndarray, float | None]:
    if psi.grid.dim != 3:
        raise ConfigurationError(f"{name} needs a 3D state")
    if psi.representation != "position":
        raise RepresentationError(f"{name} checks position-representation states")
    _require_boundary_clean(psi)
    g, v = psi.grid, psi.values
    out = np.zeros((3, 3), dtype=np.complex128)
    # (m, <X_m psi|P_n psi> or <psi|P_n X_m psi>, line): a 3D line is one row
    rows = np.empty((3, 2) + g.shape[:-1] + (1,), dtype=np.complex128)
    peaks, maxima = [], []
    for n in range(3):
        p_n = momentum_operator(g, n, backend=backend)
        floor = None
        if cross and n == 1:
            peak = worst(peaks)
            if not 0.0 < peak < math.inf:
                raise DegenerateStateError(f"{name} needs a nonzero, finite state")
            floor = 1e-6 * peak
        for index in slabs(g, n):
            if cross and n == 0:
                peaks.append(np.max(np.abs(v[index])))
            slab_max = _slab_pass(p_n, v[index], g, index, rows, floor)
            if floor is not None:
                maxima.append(slab_max)
        products = sum_row_dots(rows, g)
        for m in range(3):
            out[m, n] = complex(products[m, 0] - products[m, 1]) / (1j * g.hbar)
    return out, worst(maxima) / peak if cross else None


def _slab_pass(p_n: GridOperator, v_s: np.ndarray, grid: UniformGrid, index: tuple,
               rows: np.ndarray, floor: float | None):
    """Fill the row dots of slab `index` of psi (values v_s) for column n of
    the matrix; with `floor`, return the slab's maximum of
    |(X_0 P_n - P_n X_0) psi| where |psi| > floor. Its arrays die on return."""
    p_psi = _apply_block(p_n, v_s, grid)
    work = None
    # X_0 comes last, so that the cross commutator may overwrite P_n psi
    for m in (1, 2, 0):
        x_m = np.broadcast_to(_complex_coordinate(grid, m), grid.shape)[index]
        x_psi = np.multiply(x_m, v_s, out=work)
        row_dots(x_psi, p_psi, grid, out=rows[(m, 0) + index[:-1]])
        work = _apply_block(p_n, x_psi, grid, overwrite=True)
        row_dots(v_s, work, grid, out=rows[(m, 1) + index[:-1]])
    if floor is None:
        return None
    comm = np.multiply(x_m, p_psi, out=p_psi)
    comm -= work
    interior = np.abs(v_s) > floor
    return np.max(np.abs(comm), where=interior, initial=0.0)
