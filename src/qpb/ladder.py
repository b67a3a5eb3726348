"""Truncated ladder pair for the energy-time algebra.

The lowering matrix b has b[m-1, m] = sqrt(m). The Hermitian pair

    H = omega * (hbar * (b + b*) / sqrt(2))      T = (1 / omega) * (b - b*) / (i sqrt(2))

is read from the letters b, H and T of qpb.symbolic.matrices.letter_matrices,
whose grouping makes frequency covariance a bitwise float identity: scaling
omega rescales H by omega and T by 1/omega with no other change. Each letter
has only its first off-diagonals and is kept as letter_matrices returns it, a
(2, n_trunc - 1) band; the number operator b*b + 1/2 is kept as its diagonal.
The checks compute on these bands, so no n_trunc x n_trunc array is formed
except the protected blocks that eigh needs. Their commutator at truncation N
is

    [H, T] = i hbar [b, b*] = i hbar diag(1, ..., 1, -(N-1))

so every identity holds exactly away from the last basis state and fails
loudly at the corner, which is recorded rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ProtectedRangeError
from .report import CheckReport, make_report, worst
from .symbolic import letter_matrices


@dataclass(frozen=True)
class LadderSystem:
    """b, H and T as bands (row 0 the superdiagonal M[j, j+1], row 1 the
    subdiagonal M[j+1, j]) and the number operator as its diagonal, each a
    read-only complex copy."""

    n_trunc: int
    omega: float
    hbar: float
    lowering: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)
    time: np.ndarray = field(repr=False)
    number: np.ndarray = field(repr=False)

    def __post_init__(self):
        band, diagonal = (2, self.n_trunc - 1), (self.n_trunc,)
        for name, shape in (("lowering", band), ("energy", band), ("time", band),
                            ("number", diagonal)):
            array = np.asarray(getattr(self, name), dtype=np.complex128).copy()
            if array.shape != shape:
                raise ConfigurationError(
                    f"LadderSystem.{name} must have shape {shape}, got {array.shape}")
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def _adjoint(band: np.ndarray) -> np.ndarray:
    return band[::-1].conj()


def _band_product(a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Diagonals 0, +2 and -2 of AB, the only ones it has, for A and B given
    as bands: AB[i, i] = A[i, i-1] B[i-1, i] + A[i, i+1] B[i+1, i], AB[i, i+2]
    = A[i, i+1] B[i+1, i+2] and AB[i+2, i] = A[i+2, i+1] B[i+1, i]."""
    (a_up, a_lo), (b_up, b_lo) = a, b
    diagonal = np.zeros(a.shape[1] + 1, dtype=np.result_type(a, b))
    diagonal[1:] = a_lo * b_up
    diagonal[:-1] += a_up * b_lo
    return [diagonal, a_up[:-1] * b_up[1:], a_lo[1:] * b_lo[:-1]]


def _commutator(a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """Diagonals 0, +2 and -2 of AB - BA for the bands A and B."""
    return [x - y for x, y in zip(_band_product(a, b), _band_product(b, a))]


def _protected(diagonals: list[np.ndarray]) -> np.ndarray:
    """Entries of diagonals 0, +2 and -2 (as _band_product orders them) that
    lie in the protected block, rows and columns 0..n_trunc - 2."""
    return np.concatenate([d[:-1] for d in diagonals])


def _grading_defect(number: np.ndarray, band: np.ndarray, shift: float) -> np.ndarray:
    """|N A - A N - shift A| entry by entry over 1 + |N||A| + |A||N|, for the
    diagonal N and the band A, where N A and A N scale A's rows and columns."""
    left = np.stack([number[:-1], number[1:]])
    right = left[::-1]
    defect = left * band - band * right - shift * band
    abs_band = np.abs(band)
    return np.abs(defect) / (1.0 + np.abs(left) * abs_band + abs_band * np.abs(right))


def build(n_trunc: int = 64, omega: float = 1.0, hbar: float = 1.0) -> LadderSystem:
    if n_trunc < 4:
        raise ConfigurationError("ladder truncation below 4 leaves nothing to check")
    letters = letter_matrices(n_trunc, hbar, omega)
    b = letters["b"]
    number = _band_product(_adjoint(b), b)[0] + 0.5
    return LadderSystem(n_trunc, omega, hbar, lowering=b, energy=letters["H"],
                        time=letters["T"], number=number)


def check_ladder_algebra(system: LadderSystem) -> CheckReport:
    """Defining relations at truncation: [b, b*] = 1 away from the corner,
    and the number operator shifts b and b* by -1 and +1 everywhere. Each
    relation's defect is measured entry by entry relative to its rounding
    bound 1 + |A||B| + |B||A|: the computed products obey |fl(AB) - AB| <=
    gamma_n |A||B| componentwise (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., §3.5), so rounding alone leaves a few units of
    roundoff here at any truncation, while the entries of AB grow like
    n_trunc^1.5."""
    b = system.lowering
    bd = _adjoint(b)
    n = system.n_trunc
    comm = _commutator(b, bd)
    corner = float(comm[0][n - 1].real)
    comm[0] -= 1.0
    abs_b, abs_bd = np.abs(b), np.abs(bd)
    bound = [1.0 + x + y for x, y in zip(_band_product(abs_b, abs_bd),
                                         _band_product(abs_bd, abs_b))]
    resid = worst([
        np.max(_protected([np.abs(d) / s for d, s in zip(comm, bound)])),
        np.max(_grading_defect(system.number, b, -1.0)),
        np.max(_grading_defect(system.number, bd, 1.0)),
    ])
    return make_report("ladder_algebra", resid, context={
        "n_trunc": n,
        "corner_entry": corner,
        "residual_scaling": "entrywise, relative to 1 + |A||B| + |B||A|",
    })


def ht_commutator_residual(system: LadderSystem) -> CheckReport:
    """[H, T] = i hbar away from the truncation corner, measured relative to
    hbar: H carries the factor hbar, so its rounding does too."""
    n = system.n_trunc
    comm = _commutator(system.energy, system.time)
    comm[0] -= 1j * system.hbar
    defect = [np.abs(d) / system.hbar for d in comm]
    return make_report("ladder_ht_commutator", float(np.max(_protected(defect))), context={
        "n_trunc": n,
        "omega": system.omega,
        "hbar": system.hbar,
        "corner_defect": float(defect[0][n - 1]),
        "residual_scaling": "relative to hbar",
    })


def _protected_block(band: np.ndarray) -> np.ndarray:
    """The band's matrix on rows and columns 0..n_trunc - 2, as a dense array."""
    m = band.shape[1]
    block = np.zeros((m, m), dtype=np.complex128)
    flat = block.reshape(-1)
    flat[1::m + 1] = band[0, :-1]
    flat[m::m + 1] = band[1, :-1]
    return block


def eigenstate_overlap_check(system: LadderSystem, m_max: int = 4) -> CheckReport:
    """Unitarity of the energy-time basis change on the protected block, and
    unit norm of the first few number states in both representations: number
    state m has components u[m, j] on the j-th eigenvector of the block."""
    n = system.n_trunc
    if m_max > n - 2:
        raise ProtectedRangeError(f"m_max {m_max} outside the protected block")
    u_t = np.linalg.eigh(_protected_block(system.time))[1]
    u_h = np.linalg.eigh(_protected_block(system.energy))[1]
    overlap = u_h.conj().T @ u_t
    resid = float(np.max(np.abs(overlap.conj().T @ overlap - np.eye(n - 1))))
    norm_defects = [abs(float(np.sum(np.abs(u[m]) ** 2)) - 1.0)
                    for m in range(m_max + 1) for u in (u_t, u_h)]
    return make_report("ladder_eigenstate_overlap", worst([resid] + norm_defects), context={
        "n_trunc": n,
        "m_max": m_max,
    })


def scaling_exact_check(n_trunc: int = 64, hbar: float = 1.0,
                        omegas: tuple[float, ...] = (0.5, 2.0, 3.0)) -> CheckReport:
    """Frequency covariance and Hermiticity as exact float identities.

    Passes only when H(omega) equals omega * H(1) and T(omega) equals
    (1/omega) * T(1) entry for entry, and both are equal to their conjugate
    transposes; any defect reports residual 1.
    """
    base = build(n_trunc, 1.0, hbar)
    ok = True
    for omega in omegas:
        sys_w = build(n_trunc, omega, hbar)
        ok = ok and np.array_equal(sys_w.energy, omega * base.energy)
        ok = ok and np.array_equal(sys_w.time, (1.0 / omega) * base.time)
        ok = ok and np.array_equal(sys_w.energy, _adjoint(sys_w.energy))
        ok = ok and np.array_equal(sys_w.time, _adjoint(sys_w.time))
    return make_report("ladder_scaling_exact", 0.0 if ok else 1.0, context={
        "n_trunc": n_trunc,
        "hbar": hbar,
        "omegas": list(omegas),
    })
