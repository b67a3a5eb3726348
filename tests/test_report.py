import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qpb.report import CHECKS, CheckReport, emit_report, make_report, report_as_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def _report(check_id, residual, tolerance, **kwargs):
    """A report with its tolerance overridden, as run_suite applies a config's."""
    r = make_report(check_id, residual, **kwargs)
    return CheckReport(check_id=r.check_id, paper_ref=r.paper_ref, residual=r.residual,
                       tolerance=tolerance, valid=r.valid, context=r.context)


def test_make_report_pass_rule():
    # uncertainty_random_bound is registered at tolerance 1e-8
    assert make_report("uncertainty_random_bound", 1e-9).passed
    assert make_report("uncertainty_random_bound", 1e-8).passed
    assert not make_report("uncertainty_random_bound", 1.1e-8).passed
    assert _report("uncertainty_random_bound", 1.1e-8, 1e-7).passed


def test_make_report_reads_citation_and_default_tolerance_from_the_registry():
    report = make_report("kk_residual", 0.0)
    assert report.paper_ref == CHECKS["kk_residual"].paper_ref
    assert report.tolerance == CHECKS["kk_residual"].tolerance == 1e-5
    assert _report("kk_residual", 0.0, 0.5).tolerance == 0.5


def test_make_report_rejects_an_unknown_id():
    with pytest.raises(KeyError):
        make_report("not_a_check", 0.0)


def test_non_finite_residuals_never_pass():
    assert not _report("kk_residual", math.inf, math.inf).passed
    assert not make_report("kk_residual", math.nan).passed
    assert not _report("kk_residual", math.nan, math.inf).passed


def test_invalid_scenario_fails_at_any_tolerance():
    report = _report("kk_residual", 0.0, 1.0, valid=False)
    assert not report.passed
    assert report_as_dict(report)["pass"] is False


def test_context_is_plain_python():
    report = _report("kk_residual", 0.0, 1.0, context={
        "arr": np.arange(3.0),
        "np_float": np.float64(2.5),
        "np_int": np.int64(7),
        "np_bool": np.bool_(True),
        "nested": {"c": np.complex128(1 + 2j)},
    })
    ctx = report.context
    assert ctx["arr"] == [0.0, 1.0, 2.0]
    assert type(ctx["np_float"]) is float
    assert type(ctx["np_int"]) is int
    assert type(ctx["np_bool"]) is bool
    # the whole context must survive the strict JSON encoder
    json.dumps(ctx, allow_nan=False)


def test_json_field_order_and_pass_key():
    report = _report("phase_equivalence", 0.5, 1.0, context={"k": 1}, valid=False)
    row = report_as_dict(report)
    assert list(row) == ["check_id", "paper_ref", "residual", "tolerance", "pass", "context"]
    assert row["pass"] is False


def test_emit_json_byte_stable():
    reports = [_report("weyl_sxp_normal_form", 0.2, 0.1), _report("kk_residual", 0.0, 1.0)]
    one = emit_report(reports, "json")
    two = emit_report(reports, "json")
    assert one == two
    parsed = json.loads(one)
    assert [row["check_id"] for row in parsed] == ["weyl_sxp_normal_form", "kk_residual"]
    assert parsed[0]["pass"] is False
    # ascii-only output regardless of citation glyphs
    assert "½" in CHECKS["weyl_sxp_normal_form"].paper_ref
    emit_report([make_report("weyl_sxp_normal_form", 0.0)], "json").encode("ascii")


def test_emit_empty_list():
    assert emit_report([], "json") == "[]"
    assert emit_report([], "table") == "(no checks ran)"


def test_emit_table_contains_verdicts():
    text = emit_report([_report("kk_residual", 0.0, 1.0),
                        _report("ladder_algebra", 2.0, 1.0)], "table")
    lines = text.splitlines()
    assert any("PASS" in line and "kk_residual" in line for line in lines)
    assert any("FAIL" in line and "ladder_algebra" in line for line in lines)


def test_emit_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report([], "yaml")


def test_report_is_frozen():
    report = _report("kk_residual", 0.0, 1.0)
    # the verdict is derived from the other fields; nothing can set it
    with pytest.raises(AttributeError):
        report.passed = False
    with pytest.raises(AttributeError):
        report.valid = False
    with pytest.raises(TypeError):
        CheckReport(check_id="kk_residual", paper_ref="", residual=0.0, tolerance=1.0,
                    passed=False)
    assert isinstance(report, CheckReport)


def test_readme_check_table_matches_the_registry():
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE)
    assert len(rows) == len(CHECKS)
    assert {check_id: float(tol) for check_id, tol in rows} == {
        check_id: check.tolerance for check_id, check in CHECKS.items()}
