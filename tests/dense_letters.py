"""The dense ladder letters, as qpb built them before letter_matrices kept
only their two nonzero diagonals.

Every matrix is a full n_trunc x n_trunc array formed from the dense lowering
matrix with the same grouping of scalars. The band builder, matrix_realize
and ladder.build are held to these matrices, bit for bit where the tests say
so.
"""

import numpy as np


def dense_letters(n_trunc, hbar_value, omega=1.0):
    """{"b", "X", "P", "H", "T"} as dense complex128 matrices."""
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
