"""Check reports: the unit of evidence every verification emits."""

from __future__ import annotations

import json
import math

import numpy as np

from .record import Record


class Check(Record):
    """A registered check: its citation and its default tolerance."""

    __slots__ = ("paper_ref", "tolerance")

    def __init__(self, paper_ref: str, tolerance: float):
        self._set(paper_ref=paper_ref, tolerance=tolerance)


# Every check id qpb reports, with the paper step it certifies and the
# tolerance it is held to unless a suite config overrides it.
CHECKS = {
    "fourier_round_trip": Check('Eq 7, "having the inverse transform given by"', 1e-12),
    "fourier_parseval": Check('invented — artifact plumbing (supports Def 9, '
                              '"identical probablity density functions")', 1e-12),
    "fourier_hbar_scaling": Check(
        'Eq 6, "we may define the three-dimensional Fourier transform"', 1e-10),
    "fourier_tensor_factorization": Check(
        'Eq 6, "we may define the three-dimensional Fourier transform"', 1e-12),
    "poisson_residual": Check('Eq 20 / Eq 18, "= iħ I f(r)" derivation chain (§3 proof)', 1e-6),
    "poisson_fd_convergence": Check(
        'Eq 20 / Eq 18, "= iħ I f(r)" derivation chain (§3 proof)', 0.0),
    "corollary_residual_momentum": Check(
        'Eq 21 corollary, "Proof is easily obtained by direct expansion"', 1e-6),
    "tensor_kronecker": Check('Eq 22, "with δ_mn being Kronecker delta"', 1e-6),
    "kk_oracle_agreement": Check('Eq 14, "denotes Cauchy principal values"', 1e-5),
    "kk_refinement_monotone": Check('Eq 14, "denotes Cauchy principal values"', 0.0),
    "kk_residual": Check('Eq 14 both lines, "Kramers-Kronig relations ... require that"', 1e-5),
    "kk_wrong_half_plane": Check(
        'Eq 14 both lines, "Kramers-Kronig relations ... require that"', 0.0),
    "phase_equivalence": Check('§2.3, "∠Ψ(r) − ∠χ(r) = 2πq"', 1e-6),
    "weyl_poisson_exact": Check('Eq 20, "the Poisson bracket as"', 0.0),
    "weyl_sxp_normal_form": Check('Eq 25, "S{AB} = ½(AB + BA)"', 0.0),
    "weyl_centrality": Check('Eq 27–28, "which in turn results in"', 0.0),
    "weyl_adjoint_symmetry": Check('Eq 25, "S{AB} = ½(AB + BA)"', 0.0),
    "weyl_matrix_oracle": Check(
        'invented — artifact plumbing (symbolic-to-matrix cross-validation)', 1e-10),
    "weyl_parser_round_trip": Check(
        'invented — artifact plumbing (grammar round-trip safety)', 0.0),
    "uncertainty_gaussian_saturation": Check(
        'Eq 30, "once the commutators between two operators"', 1e-8),
    "uncertainty_random_bound": Check('Eq 30, "once the commutators between two operators"', 1e-8),
    "uncertainty_hermite_product": Check('Eq 31, "Δa = √(⟨A²⟩ − ⟨A⟩²)"', 1e-6),
    "uncertainty_vector_bound": Check('Eq 33, "famous uncertainty relationships"; '
                                      'Eq 34, "we have taken note of the fact that"', 1e-6),
    "uncertainty_vector_saturation": Check('Eq 33, "famous uncertainty relationships"; '
                                           'Eq 34, "we have taken note of the fact that"', 1e-6),
    "ladder_algebra": Check(
        'Eq B7A–C, "obey the algebra"; Eq B6, "it would be easy to verify the identity"', 1e-12),
    "ladder_ht_commutator": Check(
        'Eq 29, "comparable commutator between energy H and time T"', 1e-10),
    "ladder_eigenstate_overlap": Check(
        'Appendix B closing, "the time representation in the function space '
        'will be given by χ_m(e) = ⟨e|m⟩"', 1e-10),
    "ladder_scaling_exact": Check(
        'Eq B5A/B5B, "we may define the non-Hermitian ladder operators"', 0.0),
}


class CheckReport(Record):
    """One named residual with its citation tag, tolerance, and verdict.

    `paper_ref` is a machine-readable citation string identifying the derivation
    step the check certifies; it is part of the stable JSON interface.
    `valid` is False when the scenario cannot support the identity (an
    under-resolved phase, an all-zero input); the report then fails whatever
    its residual. `passed` is derived, never stored: a valid scenario with a
    finite residual within tolerance. `context` carries grid parameters and
    flags (boundary contamination, truncation defects, degenerate inputs) as
    plain JSON-serializable values.
    """

    __slots__ = ("check_id", "paper_ref", "residual", "tolerance", "valid", "context")

    def __init__(self, check_id: str, paper_ref: str, residual: float, tolerance: float,
                 valid: bool = True, context: dict | None = None):
        self._set(check_id=check_id, paper_ref=paper_ref, residual=residual,
                  tolerance=tolerance, valid=valid, context={} if context is None else context)

    @property
    def passed(self) -> bool:
        return self.valid and math.isfinite(self.residual) and self.residual <= self.tolerance


def _plain(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.complexfloating, complex)):
        c = complex(value)
        return {"re": c.real, "im": c.imag}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in np.asarray(value).tolist()] if isinstance(value, np.ndarray) \
            else [_plain(v) for v in value]
    return value


def worst(values) -> float:
    """Largest value, NaN if any value is NaN (Python's max drops a NaN that
    is not first); bound checks write max(0, floor - min(xs)) through it."""
    return float(np.max(values))


def make_report(check_id: str, residual: float, context: dict | None = None,
                valid: bool = True) -> CheckReport:
    """Build the CheckReport of a registered check; its citation and its
    default tolerance come from CHECKS (KeyError on an unknown id). A suite
    config's override replaces the tolerance afterwards (`run_suite`).

    Bound-style checks fold their one-sided slack into `residual` as a
    violation amount (zero when the bound holds), so one verdict rule applies.
    """
    check = CHECKS[check_id]
    return CheckReport(
        check_id=check_id,
        paper_ref=check.paper_ref,
        residual=float(residual),
        tolerance=float(check.tolerance),
        valid=bool(valid),
        context=_plain(context or {}),
    )


def report_as_dict(r: CheckReport) -> dict:
    """Fixed field order; the JSON key for the verdict is `pass`."""
    return {
        "check_id": r.check_id,
        "paper_ref": r.paper_ref,
        "residual": r.residual,
        "tolerance": r.tolerance,
        "pass": r.passed,
        "context": r.context,
    }


def emit_report(reports: list[CheckReport], format: str = "table") -> str:
    """Serialize reports. `json` output is byte-stable for a fixed report list."""
    if format == "json":
        return json.dumps([report_as_dict(r) for r in reports], indent=2, ensure_ascii=True)
    if format != "table":
        raise ValueError(f"unknown format {format!r}")
    if not reports:
        return "(no checks ran)"
    idw = max(len(r.check_id) for r in reports)
    lines = [f"{'check':<{idw}}  {'residual':>12}  {'tolerance':>12}  verdict  citation"]
    for r in reports:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.check_id:<{idw}}  {r.residual:>12.5e}  {r.tolerance:>12.5e}  {verdict:<7}  {r.paper_ref}"
        )
    return "\n".join(lines)
