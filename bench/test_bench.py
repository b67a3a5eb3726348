"""Tests of the benchmark itself. Run from the repository root:

    python -m pytest bench
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_times_of_hand_built_spans():
    # root [0, 10] holds a [1, 4] (which holds [2, 3]) and a [5, 9]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (1, 5.0, 9.0, 0)]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_of_a_traced_nested_call(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(tracer, "CLOCK", lambda: float(next(ticks)))
    t = tracer.Tracer()
    leaf = t.wrap(lambda: None, "b.leaf", "b")
    inner = t.wrap(lambda: leaf(), "b.inner", "b")
    outer = t.wrap(lambda: (inner(), inner()), "a.outer", "a")
    outer()
    # ticks: outer 0..9, inner 1..4 and 5..8, leaf 2..3 and 6..7
    assert [(t.names[s[0]], s[1], s[2]) for s in t.spans] == [
        ("a.outer", 0, 9), ("b.inner", 1, 4), ("b.leaf", 2, 3), ("b.inner", 5, 8), ("b.leaf", 6, 7)]
    own = tracer.self_times(t.spans)
    assert own == [3, 2, 1, 2, 1]
    assert sum(own) == 9
    assert t.stack == [tracer.ROOT]


def test_span_closes_when_the_call_raises():
    t = tracer.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap(boom, "a.boom", "a")()
    assert None not in t.spans and t.stack == [tracer.ROOT]


def _child(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=run.child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_install_leaves_no_unwrapped_alias():
    out = _child(
        "import json, sys; sys.path.insert(0, 'bench'); import tracer, qpb.cli\n"
        "mods = {n: m for n, m in sys.modules.items() if n == 'qpb' or n.startswith('qpb.')}\n"
        "originals = {fn: None for layer, name in tracer.LAYER_MODULES.items()"
        " for fn in tracer.public_functions(mods[name]).values()}\n"
        "before = tracer.unwrapped_aliases(mods, originals)\n"
        "wrappers = tracer.install(tracer.Tracer(), mods)\n"
        "print(json.dumps({'before': before, 'after': tracer.unwrapped_aliases(mods, wrappers),"
        " 'wrapped': len(wrappers)}))")
    result = json.loads(out)
    # the scan sees copies made by `from .x import f` before installation
    for alias in ("qpb.suites.pv_quadrature_all", "qpb.pv_quadrature_all",
                  "qpb.symbolic.matrix_realize", "qpb.moments.apply"):
        assert alias in result["before"]
    assert result["after"] == []
    assert result["wrapped"] > 50


def test_traced_process_spans_cover_its_wall_time(tmp_path):
    spans = str(tmp_path / "spans.json")
    out = str(tmp_path / "out.json")
    proc = run.spawn([sys.executable, run.LAUNCH, spans, "verify", "ladder", "--format", "json",
                      "--out", out], run.child_env(), str(tmp_path / "err.txt"), 60.0)
    assert proc["status"] == 0
    assert run.check_output(out, "ladder") == (4, None)
    m = run.op_trace_metrics([dict(proc, spans=spans)])
    assert abs(m["trace.attributed_share"] - 1.0) < 0.05
    assert m["process.calls"] == 1 and m["cli.calls"] >= 1
    assert m["ladder.build.calls"] > 0 and m["kk.calls"] == 0
    assert m["process.spawn_s"] > 0 and m["process.import_s"] > 0


def _write(path, rows):
    path.write_text(json.dumps(rows))
    return str(path)


def _rows(suite):
    return [{"check_id": c, "residual": 0.0, "tolerance": 1e-6, "pass": True, "context": {}}
            for c in sorted(run.SUITE_CHECKS[suite])]


def test_check_output_accepts_a_clean_report(tmp_path):
    assert run.check_output(_write(tmp_path / "a.json", _rows("kk")), "kk") == (5, None)
    assert len(run.SUITE_CHECKS["all"]) == 28


@pytest.mark.parametrize("edit, reason", [
    (lambda rows: rows[0].update(residual=math.nan), "non-finite"),
    (lambda rows: rows[0].update(tolerance=math.inf), "non-finite"),
    (lambda rows: rows[0]["context"].update(min_ratio=math.nan), "non-finite value at"),
    (lambda rows: rows[0]["context"].update(ratios=[1.0, -math.inf]), "non-finite value at"),
    (lambda rows: rows[0].update({"pass": False}), "pass is False"),
    (lambda rows: rows[0].update(residual=1.0), "PASS with residual"),
    (lambda rows: rows.pop(), "check ids differ"),
    (lambda rows: rows.append(dict(rows[0])), "check ids differ"),
])
def test_check_output_rejects(tmp_path, edit, reason):
    rows = _rows("kk")
    edit(rows)
    n, err = run.check_output(_write(tmp_path / "a.json", rows), "kk")
    assert n == 0 and reason in err


def test_check_output_rejects_unparsable(tmp_path):
    path = tmp_path / "a.json"
    path.write_text("[{")
    assert "unparsable" in run.check_output(str(path), "kk")[1]
    assert "unparsable" in run.check_output(str(tmp_path / "missing.json"), "kk")[1]


def test_tail_needs_ten_values_beyond_a_percentile_at_or_above_the_median():
    assert run.tail([float(i) for i in range(1, 26)]) == (15.0, 60.0, 10)
    assert run.tail([float(i) for i in range(1, 20)]) == (19.0, 100.0, 0)


def test_probe_speed_over_an_op_and_around_a_short_one():
    # (time, cumulative probe CPU seconds, cumulative units), one record a second
    records = [(float(t), 0.1 * t + (0.1 * (t - 5) if t > 5 else 0.0), 1000 * t)
               for t in range(11)]
    assert calibrate.unit_s(records, 1.0, 4.0) == pytest.approx(1e-4)
    assert calibrate.unit_s(records, 6.0, 9.0) == pytest.approx(2e-4)
    # four records are needed: widened by 1 s on each side, from 4 to 7
    assert calibrate.unit_s(records, 5.0, 6.0) == pytest.approx(5 / 3 * 1e-4)
    with pytest.raises(RuntimeError):
        calibrate.unit_s(records, 20.0, 30.0)
    runs = [{"start": 6.0, "end": 9.0, "cpu_s": 3.0}]
    run.scale(runs, records)
    assert runs[0]["cpu_ref_s"] == pytest.approx(3.0 * calibrate.REF_S / 2e-4)


def test_probe_logs_and_stops(tmp_path):
    with calibrate.Probe(str(tmp_path / "probe.log"), run.child_env()) as probe:
        pass
    assert probe.proc.returncode is not None
    (_, cpu, units), = probe.records()[:1]
    assert cpu > 0 and units == calibrate.BATCH


def test_benchmark_json_follows_the_format():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


def test_every_per_layer_metric_is_produced(tmp_path):
    """gate-default runs every layer, so each listed metric has a value."""
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    op = run.run_op("gate-default", 0, str(tmp_path), traced=True)
    assert op["error"] is None
    produced = set(run.op_trace_metrics(op["procs"])) | set(run.sweep()) | {"trace.overhead"}
    assert names - produced == set()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(REPO, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gate-default",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
