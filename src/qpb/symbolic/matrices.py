"""Truncated matrix realizations of operator polynomials.

The letters act on the first n_trunc number states through the ladder matrix
b with b[m-1, m] = sqrt(m):

    X = sqrt(hbar/2) (b + b*)          P = i sqrt(hbar/2) (b* - b)
    H = omega hbar (b + b*) / sqrt(2)  T = (b - b*) / (i sqrt(2) omega)

Both pairs satisfy [A, B] = i hbar on every basis state except the last, so a
product of words of total degree d is exact on the upper-left
(n_trunc - d) block; outside it the truncation leaks in.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from .poly import OperatorPoly


def lowering_matrix(n_trunc: int) -> np.ndarray:
    if n_trunc < 2:
        raise ConfigurationError("matrix realization needs at least 2 basis states")
    return np.diag(np.sqrt(np.arange(1, n_trunc, dtype=np.float64)), k=1).astype(np.complex128)


def letter_matrices(n_trunc: int, hbar_value: float, omega: float = 1.0) -> dict[str, np.ndarray]:
    if hbar_value <= 0:
        raise ConfigurationError("hbar_value must be positive")
    if omega <= 0:
        raise ConfigurationError("omega must be positive")
    b = lowering_matrix(n_trunc)
    bd = b.conj().T
    sym = (b + bd) / np.sqrt(2.0)
    anti = (b - bd) / (1j * np.sqrt(2.0))
    root = np.sqrt(hbar_value / 2.0)
    return {
        "X": root * (b + bd),
        "P": 1j * root * (bd - b),
        "H": omega * (hbar_value * sym),
        "T": (1.0 / omega) * anti,
    }


@lru_cache(maxsize=8)
def _letter_bands(n_trunc: int, hbar_value: float,
                  omega: float) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each letter's superdiagonal L[j-1, j] and subdiagonal L[j+1, j], taken
    from letter_matrices and frozen read-only."""
    bands = {}
    for name, m in letter_matrices(n_trunc, hbar_value, omega).items():
        up, lo = np.diagonal(m, 1).copy(), np.diagonal(m, -1).copy()
        up.flags.writeable = lo.flags.writeable = False
        bands[name] = (up, lo)
    return bands


def matrix_realize(p: OperatorPoly, n_trunc: int, hbar_value: float,
                   omega: float = 1.0) -> np.ndarray:
    """Sum of word products with coefficients evaluated at hbar_value.

    A letter has only its first off-diagonals, so a word of length d touches
    diagonals -d..d. Words are multiplied out in band storage band[k + d, j]
    = M[j - d, j] (k the total degree), each letter as two shifted, scaled
    slice updates; the weighted sum is scattered into the dense matrix once.

    Trustworthy only on protected_slice(n_trunc, p.total_degree()); rows and
    columns beyond it carry truncation error.
    """
    letters = _letter_bands(n_trunc, hbar_value, omega)
    k = p.total_degree()
    total = np.zeros((2 * k + 1, n_trunc), dtype=np.complex128)
    for word, coeff in p.terms():
        m = np.zeros_like(total)
        m[k] = 1.0
        for letter in word:
            up, lo = letters[letter]
            nxt = np.zeros_like(m)
            nxt[1:, 1:] = m[:-1, :-1] * up
            nxt[:-1, :-1] += m[1:, 1:] * lo
            m = nxt
        total += coeff.evaluate(hbar_value) * m
    cols = np.arange(n_trunc)
    rows = cols - np.arange(-k, k + 1)[:, None]
    inside = (rows >= 0) & (rows < n_trunc)
    dense = np.zeros((n_trunc, n_trunc), dtype=np.complex128)
    dense[rows[inside], np.broadcast_to(cols, rows.shape)[inside]] = total[inside]
    return dense


def protected_slice(n_trunc: int, degree: int) -> slice:
    """Index range of the block a degree `degree` realization represents
    exactly at truncation n_trunc."""
    keep = n_trunc - degree
    if keep <= 0:
        raise ConfigurationError(
            f"degree {degree} leaves no protected block at truncation {n_trunc}")
    return slice(0, keep)
