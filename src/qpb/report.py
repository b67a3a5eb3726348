"""Check reports: the unit of evidence every verification emits."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CheckReport:
    """One named residual with its citation tag, tolerance, and verdict.

    `paper_ref` is a machine-readable citation string identifying the derivation
    step the check certifies; it is part of the stable JSON interface.
    `context` carries grid parameters and flags (boundary contamination,
    truncation defects, degenerate inputs) as plain JSON-serializable values.
    """

    check_id: str
    paper_ref: str
    residual: float
    tolerance: float
    passed: bool
    context: dict = field(default_factory=dict)


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


def worst(values, axis=None):
    """Largest value, NaN if any value is NaN (Python's max drops a NaN that
    is not first); bound checks write max(0, floor - min(xs)) through it.
    With `axis`, the row-wise largest values of stacked arrays."""
    if axis is None:
        return float(np.max(values))
    return np.max(values, axis=axis)


def make_report(check_id: str, paper_ref: str, residual: float, tolerance: float,
                context: dict | None = None) -> CheckReport:
    """Build a CheckReport with pass = (residual <= tolerance).

    Bound-style checks fold their one-sided slack into `residual` as a
    violation amount (zero when the bound holds), so the same rule applies.
    """
    residual = float(residual)
    tolerance = float(tolerance)
    return CheckReport(
        check_id=check_id,
        paper_ref=paper_ref,
        residual=residual,
        tolerance=tolerance,
        passed=bool(residual <= tolerance),
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
