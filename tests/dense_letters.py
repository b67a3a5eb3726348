"""Dense oracles for the band storage of qpb.symbolic.matrices: the ladder
letters as qpb built them before letter_matrices kept them as bands, words
multiplied out as chains of dense matmuls, and the scatter of a band into its
n_trunc x n_trunc matrix and back.

Every matrix is a full n_trunc x n_trunc array formed from the dense lowering
matrix with the same grouping of scalars. The band builder, matrix_realize,
band_product, band_adjoint and ladder.build are held to these matrices, bit
for bit where the tests say so.
"""

import numpy as np


def dense_letters(n_trunc, hbar_value, omega=1.0):
    """{"b", "X", "P", "H", "T"} as dense complex128 matrices: the letters of
    qpb.symbolic.matrices and the energy-time pair of ladder.build."""
    b = np.diag(np.sqrt(np.arange(1, n_trunc, dtype=np.float64)), k=1).astype(np.complex128)
    bd = b.conj().T
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


def dense_realize(p, n_trunc, hbar_value):
    """Word products as chains of dense matmuls from the identity; also returns
    the entrywise sum of |coeff| |L1|...|Ld| that bounds their rounding."""
    letters = dense_letters(n_trunc, hbar_value)
    total = np.zeros((n_trunc, n_trunc), dtype=np.complex128)
    magnitude = np.zeros((n_trunc, n_trunc))
    for word, coeff in p.terms():
        m = np.eye(n_trunc, dtype=np.complex128)
        mag = np.eye(n_trunc)
        for letter in word:
            m = m @ letters[letter]
            mag = mag @ np.abs(letters[letter])
        c = coeff.evaluate(hbar_value)
        total += c * m
        magnitude += abs(c) * mag
    return total, magnitude


def dense_of_band(band):
    """The n_trunc x n_trunc matrix M of a band with band[k + s, j] =
    M[j - s, j]; entries whose row j - s lies off the matrix are dropped."""
    k, n_trunc = len(band) // 2, band.shape[1]
    dense = np.zeros((n_trunc, n_trunc), dtype=band.dtype)
    flat, step = dense.reshape(-1), n_trunc + 1
    for s in range(-min(k, n_trunc - 1), min(k, n_trunc - 1) + 1):
        if s >= 0:  # diagonal s: M[j - s, j] for j = s .. n_trunc - 1
            flat[s:(n_trunc - s) * n_trunc:step] = band[k + s, s:]
        else:
            flat[-s * n_trunc::step] = band[k + s, :n_trunc + s]
    return dense


def band_of_dense(dense, k):
    """The band of half-width k of a dense matrix, band[k + s, j] = dense[j - s, j],
    zero where j - s lies off the matrix: dense_of_band's inverse on the band."""
    n_trunc = len(dense)
    band = np.zeros((2 * k + 1, n_trunc), dtype=dense.dtype)
    for s in range(-min(k, n_trunc - 1), min(k, n_trunc - 1) + 1):
        band[k + s, max(s, 0):n_trunc + min(s, 0)] = np.diagonal(dense, s)
    return band


def on_matrix(band):
    """Mask of the band entries that lie on the matrix: row j - s of entry
    (k + s, j) within 0 .. n_trunc - 1."""
    k, n_trunc = len(band) // 2, band.shape[1]
    rows = np.arange(n_trunc) - np.arange(-k, k + 1)[:, None]
    return (rows >= 0) & (rows < n_trunc)


def same_band_bits(band, dense):
    """Every entry of the band on the matrix has the raw bits of the dense
    matrix's entry, signs of zeros included, and every entry off it is zero."""
    on = on_matrix(band)
    want = band_of_dense(dense, len(band) // 2)
    return (band.dtype == dense.dtype and band[on].tobytes() == want[on].tobytes()
            and not np.any(band[~on]))
