"""Truncated ladder pair for the energy-time algebra.

The lowering matrix b has b[m-1, m] = sqrt(m). The Hermitian pair

    H = omega * (hbar * (b + b*) / sqrt(2))      T = (1 / omega) * (b - b*) / (i sqrt(2))

is read from the letters b, H and T of qpb.symbolic.matrices.letter_matrices,
whose grouping makes frequency covariance a bitwise float identity: scaling
omega rescales H by omega and T by 1/omega with no other change. Each letter
is kept as letter_matrices returns it, in the band storage of
qpb.symbolic.matrices (band[k + s, j] = M[j - s, j], half-width k = 1), and
the number operator b*b + 1/2 as a band of half-width 0, its diagonal. The
checks multiply these bands with band_product, so no n_trunc x n_trunc array
is formed except the protected blocks that eigh needs. Their commutator at
truncation N is

    [H, T] = i hbar [b, b*] = i hbar diag(1, ..., 1, -(N-1))

so every identity holds exactly away from the last basis state and fails
loudly at the corner, which is recorded rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ProtectedRangeError
from .report import CheckReport, make_report, worst
from .symbolic import band_adjoint, band_product, letter_matrices, protected_defect


@dataclass(frozen=True)
class LadderSystem:
    """b, H and T as (3, n_trunc) bands and the number operator as a
    (1, n_trunc) band, in the band storage of qpb.symbolic.matrices, each a
    read-only complex copy."""

    n_trunc: int
    omega: float
    hbar: float
    lowering: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)
    time: np.ndarray = field(repr=False)
    number: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, rows in (("lowering", 3), ("energy", 3), ("time", 3), ("number", 1)):
            array = np.asarray(getattr(self, name), dtype=np.complex128).copy()
            if array.shape != (rows, self.n_trunc):
                raise ConfigurationError(f"LadderSystem.{name} must have shape "
                                         f"{(rows, self.n_trunc)}, got {array.shape}")
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def _relation_defect(a: np.ndarray, b: np.ndarray, relation: np.ndarray,
                     degree: int) -> tuple[float, np.ndarray]:
    """Largest |[A, B] - R| / (1 + |A||B| + |B||A|), entry by entry over the
    block protected_slice(n_trunc, degree), for the bands A, B and R; and
    the band of [A, B]."""
    comm = band_product(a, b) - band_product(b, a)
    pad = len(comm) // 2 - len(relation) // 2
    abs_a, abs_b = np.abs(a), np.abs(b)
    ratio = (np.abs(comm - np.pad(relation, ((pad, pad), (0, 0))))
             / (1.0 + band_product(abs_a, abs_b) + band_product(abs_b, abs_a)))
    return protected_defect(ratio, np.zeros((1, a.shape[1])), degree), comm


def build(n_trunc: int = 64, omega: float = 1.0, hbar: float = 1.0) -> LadderSystem:
    if n_trunc < 4:
        raise ConfigurationError("ladder truncation below 4 leaves nothing to check")
    letters = letter_matrices(n_trunc, hbar, omega)
    b = letters["b"]
    number = band_product(band_adjoint(b), b)[2:3] + 0.5
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
    b, number = system.lowering, system.number
    bd = band_adjoint(b)
    n = system.n_trunc
    unit_defect, comm = _relation_defect(b, bd, np.ones((1, n)), 1)
    resid = worst([unit_defect, _relation_defect(number, b, -b, 0)[0],
                   _relation_defect(number, bd, bd, 0)[0]])
    return make_report("ladder_algebra", resid, context={
        "n_trunc": n,
        "corner_entry": float(comm[2, n - 1].real),
        "residual_scaling": "entrywise, relative to 1 + |A||B| + |B||A|",
    })


def ht_commutator_residual(system: LadderSystem) -> CheckReport:
    """[H, T] = i hbar away from the truncation corner, measured relative to
    hbar: H carries the factor hbar, so its rounding does too."""
    n, hbar = system.n_trunc, system.hbar
    comm = band_product(system.energy, system.time) - band_product(system.time, system.energy)
    resid = protected_defect(comm, np.full((1, n), 1j * hbar), 1) / hbar
    return make_report("ladder_ht_commutator", resid, context={
        "n_trunc": n,
        "omega": system.omega,
        "hbar": hbar,
        "corner_defect": float(abs(comm[2, n - 1] - 1j * hbar) / hbar),
        "residual_scaling": "relative to hbar",
    })


def _protected_block(band: np.ndarray) -> np.ndarray:
    """The (3, n_trunc) band's matrix on rows and columns 0..n_trunc - 2, as a
    dense array."""
    m = band.shape[1] - 1
    block = np.zeros((m, m), dtype=np.complex128)
    flat = block.reshape(-1)
    flat[::m + 1] = band[1, :m]
    flat[1::m + 1] = band[2, 1:m]
    flat[m::m + 1] = band[0, :m - 1]
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
        ok = ok and np.array_equal(sys_w.energy, band_adjoint(sys_w.energy))
        ok = ok and np.array_equal(sys_w.time, band_adjoint(sys_w.time))
    return make_report("ladder_scaling_exact", 0.0 if ok else 1.0, context={
        "n_trunc": n_trunc,
        "hbar": hbar,
        "omegas": list(omegas),
    })
