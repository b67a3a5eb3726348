"""Truncated ladder pair for the energy-time algebra.

The lowering matrix b has b[m-1, m] = sqrt(m). The Hermitian pair

    H = omega * (hbar * (b + b*) / sqrt(2))      T = (1 / omega) * (b - b*) / (i sqrt(2))

is realized from the letters H and T of qpb.symbolic.matrices.letter_matrices,
whose grouping makes frequency covariance a bitwise float identity: scaling
omega rescales H by omega and T by 1/omega with no other change. Their
commutator at truncation N is

    [H, T] = i hbar [b, b*] = i hbar diag(1, ..., 1, -(N-1))

so every identity holds exactly away from the last basis state and fails
loudly at the corner, which is recorded rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateStateError,
    PreconditionError,
    ProtectedRangeError,
)
from .report import CheckReport, make_report, worst
from .symbolic import OperatorPoly, letter_matrices, matrix_realize


_MATRICES = ("lowering", "energy", "time", "number")


@dataclass(frozen=True)
class LadderSystem:
    n_trunc: int
    omega: float
    hbar: float
    lowering: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)
    time: np.ndarray = field(repr=False)
    number: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._keep(**{name: np.asarray(getattr(self, name), dtype=np.complex128).copy()
                      for name in _MATRICES})

    def _keep(self, **matrices: np.ndarray) -> None:
        """Store complex matrices that no one else holds, read-only."""
        for name, m in matrices.items():
            m.flags.writeable = False
            object.__setattr__(self, name, m)

    @classmethod
    def _with_fresh(cls, n_trunc: int, omega: float, hbar: float,
                    **matrices: np.ndarray) -> "LadderSystem":
        """The constructor without the copies, for complex matrices that the
        caller has just built and holds no other reference to."""
        system = object.__new__(cls)
        for name, value in (("n_trunc", n_trunc), ("omega", omega), ("hbar", hbar)):
            object.__setattr__(system, name, value)
        system._keep(**matrices)
        return system


def build(n_trunc: int = 64, omega: float = 1.0, hbar: float = 1.0) -> LadderSystem:
    if n_trunc < 4:
        raise ConfigurationError("ladder truncation below 4 leaves nothing to check")
    energy = matrix_realize(OperatorPoly.letter("H"), n_trunc, hbar, omega)
    time = matrix_realize(OperatorPoly.letter("T"), n_trunc, hbar, omega)
    b = np.diag(letter_matrices(n_trunc, hbar, omega)["b"][0], k=1)
    number = b.conj().T @ b + 0.5 * np.eye(n_trunc, dtype=np.complex128)
    return LadderSystem._with_fresh(n_trunc, omega, hbar,
                                    lowering=b, energy=energy, time=time, number=number)


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def _commutator_defect(defect: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|defect| of an identity for AB - BA, entry by entry over 1 + |A||B| + |B||A|.

    The computed products obey |fl(AB) - AB| <= gamma_n |A||B| componentwise
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.5),
    so rounding alone leaves a few units of roundoff here at any truncation,
    while the entries of AB grow like n_trunc^1.5.
    """
    abs_a, abs_b = np.abs(a), np.abs(b)
    return np.abs(defect) / (1.0 + abs_a @ abs_b + abs_b @ abs_a)


def check_ladder_algebra(system: LadderSystem) -> CheckReport:
    """Defining relations at truncation: [b, b*] = 1 away from the corner,
    and the number operator shifts b and b* by -1 and +1 everywhere. Each
    relation's defect is measured relative to its rounding bound."""
    b = system.lowering
    bd = b.conj().T
    number = system.number
    n = system.n_trunc
    comm = b @ bd - bd @ b
    protected = slice(0, n - 1)
    resid = worst([
        np.max(_commutator_defect(comm - np.eye(n), b, bd)[protected, protected]),
        np.max(_commutator_defect(number @ b - b @ number + b, number, b)),
        np.max(_commutator_defect(number @ bd - bd @ number - bd, number, bd)),
    ])
    return make_report("ladder_algebra", resid, context={
        "n_trunc": n,
        "corner_entry": float(comm[n - 1, n - 1].real),
        "residual_scaling": "entrywise, relative to 1 + |A||B| + |B||A|",
    })


def ht_commutator_residual(system: LadderSystem) -> CheckReport:
    """[H, T] = i hbar away from the truncation corner, measured relative to
    hbar: H carries the factor hbar, so its rounding does too."""
    n = system.n_trunc
    comm = system.energy @ system.time - system.time @ system.energy
    target = 1j * system.hbar * np.eye(n)
    protected = slice(0, n - 1)
    defect = np.abs(comm - target) / system.hbar
    resid = _max_abs(defect[protected, protected])
    return make_report("ladder_ht_commutator", resid, context={
        "n_trunc": n,
        "omega": system.omega,
        "hbar": system.hbar,
        "corner_defect": float(defect[n - 1, n - 1]),
        "residual_scaling": "relative to hbar",
    })


def _phase_fixed_columns(matrix: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component of significant size is real
    and positive; pins the arbitrary eigenvector phase."""
    out = matrix.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col) > 1e-12 * np.max(np.abs(col))))
        pivot = col[idx]
        out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


@dataclass(frozen=True)
class EigenstateRepresentation:
    times: np.ndarray
    energies: np.ndarray
    phi: np.ndarray
    chi: np.ndarray


def _eigenbases(system: LadderSystem, m_max: int):
    """eigh of T and of H on the protected (n_trunc - 1) block, once: both
    eigenvector matrices as eigh returns them, and number states 0..m_max
    over the phase-fixed bases."""
    block = slice(0, system.n_trunc - 1)
    times, u_t = np.linalg.eigh(system.time[block, block])
    energies, u_h = np.linalg.eigh(system.energy[block, block])
    fixed_t, fixed_h = _phase_fixed_columns(u_t), _phase_fixed_columns(u_h)
    return u_t, u_h, [EigenstateRepresentation(times, energies, fixed_t[m, :].conj(),
                                               fixed_h[m, :].conj()) for m in range(m_max + 1)]


def eigenstate_representations(system: LadderSystem, m: int) -> EigenstateRepresentation:
    """Number state m expanded over the time and energy eigenbases of the
    protected (n_trunc - 1) block: phi[j] and chi[j] are its components on
    the j-th time and energy eigenvector in ascending eigenvalue order."""
    n = system.n_trunc
    if not 0 <= m <= n - 2:
        raise ProtectedRangeError(
            f"basis index {m} outside the protected block 0..{n - 2}")
    return _eigenbases(system, m)[2][m]


def eigenstate_overlap_check(system: LadderSystem, m_max: int = 4) -> CheckReport:
    """Unitarity of the energy-time basis change on the protected block, and
    unit norm of the first few number states in both representations."""
    n = system.n_trunc
    if m_max > n - 2:
        raise ProtectedRangeError(f"m_max {m_max} outside the protected block")
    u_t, u_h, reps = _eigenbases(system, m_max)
    overlap = u_h.conj().T @ u_t
    eye = np.eye(n - 1)
    resid = _max_abs(overlap.conj().T @ overlap - eye)
    norm_defects = []
    for rep in reps:
        norm_defects.append(abs(float(np.sum(np.abs(rep.phi) ** 2)) - 1.0))
        norm_defects.append(abs(float(np.sum(np.abs(rep.chi) ** 2)) - 1.0))
    resid = worst([resid] + norm_defects)
    return make_report("ladder_eigenstate_overlap", resid, context={
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
        ok = ok and np.array_equal(sys_w.energy, sys_w.energy.conj().T)
        ok = ok and np.array_equal(sys_w.time, sys_w.time.conj().T)
    return make_report("ladder_scaling_exact", 0.0 if ok else 1.0, context={
        "n_trunc": n_trunc,
        "hbar": hbar,
        "omegas": list(omegas),
    })


def energy_time_product(system: LadderSystem, coeffs: np.ndarray) -> dict:
    """Spread product and commutator expectation for a state on the number
    basis. The last basis state must be unoccupied; then the second moments
    and the commutator expectation are exact despite truncation."""
    v = np.asarray(coeffs, dtype=np.complex128)
    if v.shape != (system.n_trunc,):
        raise ConfigurationError("coefficient vector length must equal n_trunc")
    if abs(v[-1]) > 0.0:
        raise PreconditionError(
            "states touching the last basis state see the truncation corner")
    norm = float(np.linalg.norm(v))
    if norm == 0.0 or not np.isfinite(norm):
        raise DegenerateStateError("cannot take moments of a zero state")
    v = v / norm
    out = {}
    for name, op in (("energy", system.energy), ("time", system.time)):
        w = op @ v
        mean = float(np.real(np.vdot(v, w)))
        second = float(np.real(np.vdot(w, w)))
        out[f"delta_{name}"] = float(np.sqrt(max(second - mean * mean, 0.0)))
    comm = system.energy @ (system.time @ v) - system.time @ (system.energy @ v)
    out["commutator_expectation"] = complex(np.vdot(v, comm))
    out["product"] = out["delta_energy"] * out["delta_time"]
    out["bound"] = 0.5 * abs(out["commutator_expectation"])
    return out
