"""The dense ladder arithmetic, as qpb computed it before LadderSystem kept its
letters as bands.

Each band is scattered to its full n_trunc x n_trunc matrix by dense_of_band,
and the relations of check_ladder_algebra and ht_commutator_residual are
formed by dense products, the rounding bound 1 + |A||B| + |B||A| included.
The band checks are held to these numbers.
"""

import numpy as np

from dense_letters import dense_of_band


def _commutator_defect(defect, a, b):
    abs_a, abs_b = np.abs(a), np.abs(b)
    return np.abs(defect) / (1.0 + abs_a @ abs_b + abs_b @ abs_a)


def ladder_algebra(system):
    """(residual, corner entry of [b, b*]) of check_ladder_algebra."""
    b = dense_of_band(system.lowering)
    bd = b.conj().T
    number = dense_of_band(system.number)
    n = system.n_trunc
    comm = b @ bd - bd @ b
    protected = slice(0, n - 1)
    resid = float(np.max([
        np.max(_commutator_defect(comm - np.eye(n), b, bd)[protected, protected]),
        np.max(_commutator_defect(number @ b - b @ number + b, number, b)),
        np.max(_commutator_defect(number @ bd - bd @ number - bd, number, bd)),
    ]))
    return resid, float(comm[n - 1, n - 1].real)


def ht_commutator(system):
    """(residual, corner defect) of ht_commutator_residual, and the largest
    entry of (|H||T| + |T||H|) / hbar on the protected block, the scale of
    the products' rounding."""
    energy, time = dense_of_band(system.energy), dense_of_band(system.time)
    n = system.n_trunc
    comm = energy @ time - time @ energy
    defect = np.abs(comm - 1j * system.hbar * np.eye(n)) / system.hbar
    protected = slice(0, n - 1)
    abs_h, abs_t = np.abs(energy), np.abs(time)
    scale = (abs_h @ abs_t + abs_t @ abs_h)[protected, protected] / system.hbar
    return (float(np.max(defect[protected, protected])), float(defect[n - 1, n - 1]),
            float(np.max(scale)))
