"""Exact references for the grid reductions, and the bound a computed one meets.

`exact_inner` adds the real products of <a|b> with math.fsum, so the sum of
the products is exact and rounded once. A computed inner product that takes
one dot product per row along the last grid axis and adds the row dots
pairwise stays within (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., §3.1, §3.6 and §4.2)

    sqrt(2) gamma_{n+4} sum |a||b|  +  gamma_d sum |row dot|

of it, n = min(n_points, ROW_SAMPLES) samples per row, gamma_k =
k u / (1 - k u), u = 2^-53; n + 4 counts the complex product's two roundings on both sides (the
reference rounds each real product too), and d is the depth of numpy's
pairwise sum over the n_points^dim / n rows: a leaf of at most 64 complex
values in 4 accumulators (at most 20 additions) and one more level per
halving, so d = ceil(log2(rows)) + 24 covers it. The sum of |row dot| is at
most sum |a||b|. Both terms scale with spacing^dim, and the reference's own
scaling and the caller's last operation add a few units of roundoff of the
value.
"""

import math

import numpy as np

from qpb.grids import ROW_SAMPLES

U = 2.0**-53


def gamma(k):
    return k * U / (1.0 - k * U)


def _fsum(*parts):
    return math.fsum(np.concatenate([np.ravel(p) for p in parts]).tolist())


def inner_bound_factor(grid):
    """Bound on |computed - exact| <a|b> per unit of spacing^dim sum |a||b|."""
    n = min(grid.n_points, ROW_SAMPLES)
    rows = grid.n_points**grid.dim // n
    depth = 0 if rows == 1 else math.ceil(math.log2(rows)) + 24
    return math.sqrt(2.0) * gamma(n + 4) + gamma(depth)


def inner_bound(a, b, grid):
    """How far inner_product_block may sit from the exact <a|b>, for every
    state of two blocks of the same shape: the bound above, with 4 u of
    sum |a||b| >= |<a|b>| for the roundoff of the value itself. The sum of
    |a||b| is taken by numpy, a few units off; 1.01 absorbs that."""
    axes = tuple(range(-grid.dim, 0))
    magnitude = np.sum(np.abs(a) * np.abs(b), axis=axes) * grid.spacing**grid.dim
    return (1.01 * inner_bound_factor(grid) + 4.0 * U) * magnitude


def exact_inner(a, b, grid):
    """<a|b> and its inner_bound for every state of two blocks of the same
    shape: the exact sum of the products, rounded once, times spacing^dim."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    lead = a.shape[:a.ndim - grid.dim]
    values = np.empty(lead, dtype=np.complex128)
    for idx in np.ndindex(lead):
        x, y = a[idx], b[idx]
        values[idx] = complex(_fsum(x.real * y.real, x.imag * y.imag),
                              _fsum(x.real * y.imag, -(x.imag * y.real))) * grid.spacing**grid.dim
    return values, inner_bound(a, b, grid)


def exact_norm(values, grid):
    """Norm and its bound for every state of a block: sqrt of the exact
    <v|v>, and the distance from it that norm_block may reach, by
    |sqrt(c) - sqrt(r)| <= |c - r| / sqrt(r) plus the sqrt's own rounding."""
    squared, bounds = exact_inner(values, values, grid)
    norms = np.sqrt(squared.real)
    return norms, bounds / norms + 2.0 * U * norms
