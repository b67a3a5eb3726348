"""Truncated matrix realizations of operator polynomials.

The letters act on the first n_trunc number states through the ladder matrix
b with b[m-1, m] = sqrt(m):

    X = sqrt(hbar/2) (b + b*)          P = i sqrt(hbar/2) (b* - b)
    H = omega hbar (b + b*) / sqrt(2)  T = (b - b*) / (i sqrt(2) omega)

Both pairs satisfy [A, B] = i hbar on every basis state except the last, so a
product of words of total degree d is exact in the first n_trunc - d rows and
in the first n_trunc - d columns; the truncation leaks in only where both the
row and the column lie beyond them. Letters, realizations, their products
and their comparisons all stay in one band storage, band[k + s, j] =
M[j - s, j] for a matrix of half-width k, zero where j - s lies off the
matrix, so none forms an n_trunc x n_trunc array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from .poly import OperatorPoly


def letter_matrices(n_trunc: int, hbar_value: float,
                    omega: float = 1.0) -> dict[str, np.ndarray]:
    """b and each letter in band storage, band[1 + s, j] = L[j - s, j], by
    the dense formulas applied entry by entry: every entry on the matrix has
    the raw bits of the dense letter's, signs of zeros included."""
    if n_trunc < 2:
        raise ConfigurationError("matrix realization needs at least 2 basis states")
    if hbar_value <= 0:
        raise ConfigurationError("hbar_value must be positive")
    if omega <= 0:
        raise ConfigurationError("omega must be positive")
    b = np.zeros((3, n_trunc), dtype=np.complex128)
    b[2, 1:] = np.sqrt(np.arange(1, n_trunc, dtype=np.float64))
    bd = band_adjoint(b)
    sym = (b + bd) / np.sqrt(2.0)
    anti = (b - bd) / (1j * np.sqrt(2.0))
    root = np.sqrt(hbar_value / 2.0)
    return {
        "b": b,
        "X": root * (b + bd),
        "P": 1j * root * (bd - b),
        "H": omega * (hbar_value * sym),
        "T": (1.0 / omega) * anti,
    }


@lru_cache(maxsize=8)
def _letter_bands(n_trunc: int, hbar_value: float, omega: float) -> dict[str, np.ndarray]:
    """letter_matrices frozen read-only, for matrix_realize. weyl uses one
    entry per run, so the live one is never evicted."""
    bands = letter_matrices(n_trunc, hbar_value, omega)
    for band in bands.values():
        band.flags.writeable = False
    return bands


@lru_cache(maxsize=64)
def _word_band(word: tuple[str, ...], n_trunc: int, hbar_value: float,
               omega: float) -> np.ndarray:
    """Read-only band storage of a word's matrix product: for d = len(word),
    band[d + s, j] = M[j - s, j] for s = -d..d.

    Grown from the band of word[:-1] by band_product with the last letter.
    64 entries hold every word weyl's oracle realizes (61: the 31 words of
    degree <= 4 and the 45 normal-ordered words of degree <= 8 share 15), at
    most 657 band rows: 21 MB at n_trunc 2048.
    """
    if word:
        band = band_product(_word_band(word[:-1], n_trunc, hbar_value, omega),
                            _letter_bands(n_trunc, hbar_value, omega)[word[-1]])
    else:
        band = np.ones((1, n_trunc), dtype=np.complex128)
    band.flags.writeable = False
    return band


def matrix_realize(p: OperatorPoly, n_trunc: int, hbar_value: float,
                   omega: float = 1.0) -> np.ndarray:
    """Band storage of the sum of word products, with coefficients evaluated
    at hbar_value: for k = p.total_degree(), band[k + s, j] = M[j - s, j] for
    s = -k..k, zero where j - s lies off the matrix.

    A letter has only its first off-diagonals, so a word of length d touches
    diagonals -d..d. Each word's product is kept in band storage by
    _word_band (memoized, so a word met again costs nothing), and its rows
    are weighted into rows k - d .. k + d of the total, in term order.

    Entry (i, j) of a word of length d sums paths of d unit steps from i to
    j, and truncation drops only the paths that reach n_trunc, which needs
    i + j >= 2 n_trunc - d. So the realization is exact at (i, j) unless both
    i and j lie beyond protected_slice(n_trunc, p.total_degree()): the rows
    of that slice are exact, and so are its columns.
    """
    _letter_bands(n_trunc, hbar_value, omega)  # validates hbar_value and omega
    k = p.total_degree()
    total = np.zeros((2 * k + 1, n_trunc), dtype=np.complex128)
    for word, coeff in p.terms():
        d = len(word)
        total[k - d:k + d + 1] += coeff.evaluate(hbar_value) * _word_band(
            word, n_trunc, hbar_value, omega)
    return total


def band_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Band of the truncated product AB, for A and B in band storage of any
    half-widths, band[k + s, j] = M[j - s, j]: one shifted multiply-add per
    diagonal of B.

    AB[j - s, j] sums A[j - s, j - t] B[j - t, j] over B's diagonals t, and
    A's factor is a[ka + s - t, j - t] (ka, kb the half-widths of a and b).
    A term whose middle index j - t lies off the matrix is absent, exactly as
    in the dense product of the truncated matrices.
    """
    ka, kb, n = len(a) // 2, len(b) // 2, a.shape[1]
    out = np.zeros((2 * (ka + kb) + 1, n), dtype=np.result_type(a, b))
    for t in range(-min(kb, n - 1), min(kb, n - 1) + 1):
        lo, hi = max(t, 0), n + min(t, 0)
        out[kb + t:kb + t + 2 * ka + 1, lo:hi] += a[:, lo - t:hi - t] * b[kb + t, lo:hi]
    return out


def band_adjoint(band: np.ndarray) -> np.ndarray:
    """Band of the conjugate transpose, out[k + s, j] = conj(band[k - s, j - s]),
    for any half-width k; entries off the matrix are zero."""
    k, n = len(band) // 2, band.shape[1]
    out = np.zeros_like(band)
    for s in range(-min(k, n - 1), min(k, n - 1) + 1):
        lo, hi = max(s, 0), n + min(s, 0)
        out[k + s, lo:hi] = band[k - s, lo - s:hi - s].conj()
    return out


def protected_defect(x: np.ndarray, y: np.ndarray, degree: int) -> float:
    """max |X[i, j] - Y[i, j]| over the block protected_slice(n_trunc,
    degree) x protected_slice(n_trunc, degree), for X and Y in band storage
    of any half-widths. A NaN on the block is returned as NaN."""
    keep = protected_slice(x.shape[1], degree).stop
    kx, ky = len(x) // 2, len(y) // 2
    k = max(kx, ky)
    diff = np.zeros((2 * k + 1, keep), dtype=np.result_type(x, y))
    diff[k - kx:k + kx + 1] = x[:, :keep]
    diff[k - ky:k + ky + 1] -= y[:, :keep]
    rows = np.arange(keep) - np.arange(-k, k + 1)[:, None]  # row of entry (k + s, j)
    return float(np.max(np.abs(diff), where=(rows >= 0) & (rows < keep), initial=0.0))


def protected_slice(n_trunc: int, degree: int) -> slice:
    """Index range of the block a degree `degree` realization represents
    exactly at truncation n_trunc."""
    keep = n_trunc - degree
    if keep <= 0:
        raise ConfigurationError(
            f"degree {degree} leaves no protected block at truncation {n_trunc}")
    return slice(0, keep)
