"""Uniform periodic sampling grids and wavefunction containers.

Everything numerical in this package lives on a centered periodic grid
x_j = -L + j*spacing with spacing = 2L/n and the point +L excluded. Power
of two sizes keep the conjugate transform pair exactly unitary.

The `*_block` functions act on the trailing grid.dim axes of an array, so a
(k, *grid.shape) block of k states and a single state of grid.shape go
through the same code; reductions return one value per state. The inner
product and the norm read their inputs in one pass with no temporary the
size of a state, within Higham's dot-product and pairwise-sum bounds (README,
"Accuracy of the reductions"); normalize_block scales its input in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateStateError,
    IncompatibleOperandsError,
)

REPRESENTATIONS = ("position", "momentum")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class UniformGrid:
    """Centered uniform grid, 1D or 3D cubic, carrying the value of hbar.

    Attributes:
        dim: 1 or 3.
        n_points: samples per axis, a power of two >= 8.
        half_extent: L > 0; samples cover [-L, L) on every axis.
        hbar: positive scale constant shared by every object built on the grid.
    """

    dim: int
    n_points: int
    half_extent: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ConfigurationError(f"dim must be 1 or 3, got {self.dim}")
        if not isinstance(self.n_points, int) or not _is_power_of_two(self.n_points) or self.n_points < 8:
            raise ConfigurationError(f"n_points must be a power of two >= 8, got {self.n_points}")
        if not (self.half_extent > 0 and math.isfinite(self.half_extent)):
            raise ConfigurationError(f"half_extent must be positive and finite, got {self.half_extent}")
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ConfigurationError(f"hbar must be positive and finite, got {self.hbar}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.n_points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_points,) * self.dim

    @property
    def size(self) -> int:
        return self.n_points**self.dim

    def axis_points(self) -> np.ndarray:
        """Sample positions along one axis: -L, -L+spacing, ..., L-spacing."""
        pts = np.arange(self.n_points, dtype=np.float64)
        pts *= self.spacing
        pts += -self.half_extent
        return pts

    def coordinate(self, axis: int = 0) -> np.ndarray:
        """Coordinate values along `axis`, shaped to broadcast against sample arrays."""
        if not 0 <= axis < self.dim:
            raise ConfigurationError(f"axis {axis} out of range for dim {self.dim}")
        pts = self.axis_points()
        if self.dim == 1:
            return pts
        shape = [1] * self.dim
        shape[axis] = self.n_points
        return pts.reshape(shape)

    def compatible(self, other: "UniformGrid", rel: float = 1e-12) -> bool:
        """True when the two grids agree up to floating `rel` in extent and hbar."""
        return (
            self.dim == other.dim
            and self.n_points == other.n_points
            and math.isclose(self.half_extent, other.half_extent, rel_tol=rel, abs_tol=0.0)
            and math.isclose(self.hbar, other.hbar, rel_tol=rel, abs_tol=0.0)
        )


def make_uniform_grid(dim: int, n_points: int, half_extent: float, hbar: float = 1.0) -> UniformGrid:
    """Construct a UniformGrid, validating every field."""
    return UniformGrid(dim=dim, n_points=int(n_points), half_extent=float(half_extent), hbar=float(hbar))


@dataclass(frozen=True)
class WaveFunction:
    """Complex samples on a UniformGrid, tagged with their representation."""

    grid: UniformGrid
    representation: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._keep(np.asarray(self.values, dtype=np.complex128).copy())

    def _keep(self, v: np.ndarray) -> None:
        """Check the representation and v, a complex array that no one else
        holds, then store v read-only as the values."""
        if self.representation not in REPRESENTATIONS:
            raise ConfigurationError(
                f"representation must be one of {REPRESENTATIONS}, got {self.representation!r}"
            )
        if v.shape != self.grid.shape or v.dtype != np.complex128:
            raise ConfigurationError(
                f"values of shape {v.shape} and dtype {v.dtype} do not fit grid shape {self.grid.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray, representation: str | None = None,
                    grid: UniformGrid | None = None) -> "WaveFunction":
        return WaveFunction(
            grid=grid if grid is not None else self.grid,
            representation=representation if representation is not None else self.representation,
            values=values,
        )

    @staticmethod
    def _fresh(grid: UniformGrid, representation: str, values: np.ndarray) -> "WaveFunction":
        """The constructor without the copy, for a complex array that the
        caller has just computed and holds no other reference to; the
        checks still run."""
        psi = object.__new__(WaveFunction)
        object.__setattr__(psi, "grid", grid)
        object.__setattr__(psi, "representation", representation)
        psi._keep(values)
        return psi

    def _with_fresh(self, values: np.ndarray) -> "WaveFunction":
        """with_values without the copy (see `_fresh`)."""
        return WaveFunction._fresh(self.grid, self.representation, values)

    def norm(self) -> float:
        """The norm, computed on the first call and kept: the values are read-only."""
        if "_norm" not in self.__dict__:
            object.__setattr__(self, "_norm", float(norm_block(self.values, self.grid)))
        return self._norm


def _require_same_grid(a: WaveFunction, b: WaveFunction) -> None:
    if a.representation != b.representation:
        raise IncompatibleOperandsError(
            f"representation mismatch: {a.representation!r} vs {b.representation!r}"
        )
    if not a.grid.compatible(b.grid):
        raise IncompatibleOperandsError("wavefunctions live on incompatible grids")


# Samples per dot product. OpenBLAS splits a dot of more than 10000 samples
# over its threads, so a longer row's bits would depend on the thread count.
ROW_SAMPLES = 4096
# Samples per piece of streamed work, so that a piece's arrays stay in cache:
# seeded 1D state families go through the kernels in blocks of 64 states at
# 256 points and 16 at 1024, a 3D state in `slabs` of 4 rows of 64 x 64 at
# 64^3, and weyl's oracle in blocks of draws with as many band entries.
BLOCK_SAMPLES = 2**14


def slabs(grid: UniformGrid, *whole_axes: int):
    """Index tuples that cut the samples of `grid` into slabs of at most
    BLOCK_SAMPLES samples (and at least one line) along its first axis that is
    neither in `whole_axes` nor the last. Every line along a whole axis and
    every row of the last axis lies whole inside one slab, so an FFT along a
    whole axis and `row_dots` act on a slab as on the full array. With no such
    axis (a 1D grid, or both leading 3D axes whole) the one slab is the grid."""
    free = [a for a in range(grid.dim - 1) if a not in whole_axes]
    axis = free[0] if free else 0
    width = max(1, BLOCK_SAMPLES * grid.n_points // grid.size) if free else grid.n_points
    for start in range(0, grid.n_points, width):
        index = [slice(None)] * grid.dim
        index[axis] = slice(start, start + width)
        yield tuple(index)


def row_dots(a_values: np.ndarray, b_values: np.ndarray, grid: UniformGrid,
             out: np.ndarray | None = None) -> np.ndarray:
    """conj(a) . b of two arrays of one shape, one dot per row along the last
    grid axis (rows of ROW_SAMPLES on a longer 1D grid), each conjugated,
    multiplied and added in one vecdot pass; shaped as the arrays with the
    last axis cut to its row count. `out` may view a larger row-dot array."""
    shape = np.shape(a_values)[:-1] + (-1, min(grid.n_points, ROW_SAMPLES))
    return np.vecdot(np.reshape(a_values, shape), np.reshape(b_values, shape), out=out)


def sum_row_dots(rows: np.ndarray, grid: UniformGrid):
    """Riemann inner products from whole states' row dots: a pairwise sum of
    each state's row dots, in their order, times the cell volume."""
    rows = rows.reshape(rows.shape[:rows.ndim - grid.dim] + (-1,))
    return np.sum(rows, axis=-1) * grid.spacing**grid.dim


def inner_product_block(a_values: np.ndarray, b_values: np.ndarray, grid: UniformGrid):
    """Riemann inner products <a|b> of the states in two blocks of the same
    shape on `grid`: `row_dots`, then `sum_row_dots`. Each state's rows are
    reduced alone and in the same order, so a block row gets the bits of the
    state on its own.
    """
    return sum_row_dots(row_dots(a_values, b_values, grid), grid)


def norm_block(values: np.ndarray, grid: UniformGrid):
    """Norm of every state in a block on `grid`."""
    return np.sqrt(inner_product_block(values, values, grid).real)


def normalize_block(values: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """Scale every state of a block to unit norm in place and return the block.
    Raises DegenerateStateError if any state has zero or non-finite norm."""
    n = norm_block(values, grid)
    if not np.all((n > 0.0) & np.isfinite(n)):
        raise DegenerateStateError("cannot normalize a state with zero or non-finite norm")
    values /= np.reshape(n, np.shape(n) + (1,) * grid.dim)
    return values


def inner_product(a: WaveFunction, b: WaveFunction) -> complex:
    """Riemann inner product <a|b> = sum conj(a_j) b_j * spacing^dim.

    On these periodic grids the Riemann sum coincides with the trapezoid rule,
    so it is spectrally accurate for smooth decaying states.
    """
    _require_same_grid(a, b)
    return complex(inner_product_block(a.values, b.values, a.grid))


def normalize(psi: WaveFunction) -> WaveFunction:
    """Scale psi to unit norm. Raises DegenerateStateError on a zero state."""
    return psi.with_values(normalize_block(np.array(psi.values), psi.grid))


def boundary_mass(psi: WaveFunction, cells: int = 4) -> float:
    """Fraction of |psi|^2 within `cells` samples of the boundary along any
    axis, read slab by slab (`slabs`): a 1D state is one slab, so its two
    sums are numpy's sums over the whole state."""
    g = psi.grid
    edge = np.zeros(g.n_points, dtype=bool)
    edge[:cells] = edge[g.n_points - cells:] = True
    near = functools.reduce(np.logical_or, (
        edge.reshape([-1 if a == axis else 1 for a in range(g.dim)]) for axis in range(g.dim)))
    totals, edges = [], []
    for index in slabs(g):
        mass = np.abs(psi.values[index])
        np.square(mass, out=mass)
        totals.append(np.sum(mass))
        edges.append(np.sum(mass[near[index]]))
    total = float(np.sum(totals))
    if total == 0.0:
        return 0.0
    return float(np.sum(edges)) / total


def boundary_band_fraction(values: np.ndarray, band_divisor: int = 8):
    """Fraction of l2 mass in the outer 1/band_divisor of each side of every
    1D sample row (the last axis); 0 for an all-zero row."""
    mass = np.abs(np.asarray(values))
    np.square(mass, out=mass)
    total = np.sum(mass, axis=-1)
    band = max(1, mass.shape[-1] // band_divisor)
    outer = np.sum(mass[..., :band], axis=-1) + np.sum(mass[..., -band:], axis=-1)
    # a zero total has a zero outer part, so dividing it by 1 gives 0
    return outer / np.where(total == 0.0, 1.0, total)
