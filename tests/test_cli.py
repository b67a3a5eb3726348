import gc
import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from qpb import cli
from qpb.cli import main
from qpb.suites import MAX_N_TRUNC, SuiteConfig

PKG = [sys.executable, "-m", "qpb"]


def run(*args, **kwargs):
    return subprocess.run(PKG + list(args), capture_output=True, text=True, **kwargs)


def test_all_pass_exit_zero_table():
    proc = run("verify", "ladder")
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_json_output_parses_and_sorted():
    proc = run("verify", "uncertainty", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    ids = [row["check_id"] for row in rows]
    assert ids == sorted(ids)
    assert all(set(row) == {"check_id", "paper_ref", "residual", "tolerance", "pass", "context"}
               for row in rows)


def test_repeat_runs_byte_identical():
    a = run("verify", "ladder", "--seed", "3", "--format", "json")
    b = run("verify", "ladder", "--seed", "3", "--format", "json")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_out_file_written_and_stdout_silent(tmp_path: Path):
    target = tmp_path / "report.json"
    proc = run("verify", "ladder", "--format", "json", "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    rows = json.loads(target.read_text())
    assert rows and all(row["pass"] for row in rows)


def test_tolerance_override_can_force_failure(capsys):
    proc = run("verify", "poisson", "--tolerance", "poisson_residual=1e-15")
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    # the process entry's exit still flushes the whole table
    assert main(["verify", "poisson", "--tolerance", "poisson_residual=1e-15"]) == 1
    assert proc.stdout == capsys.readouterr().out


def test_the_script_and_python_m_share_one_entry(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qpb"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    monkeypatch.setattr(cli, "run", lambda: 7)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("qpb", run_name="__main__")
    assert exc.value.code == 7


def test_main_leaves_the_collector_unfrozen(tmp_path):
    assert main(["verify", "kk", "--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    assert gc.get_freeze_count() == 0


def test_run_freezes_only_after_main_and_exits_normally():
    # atexit handlers still run, after the freeze, and the status is main's
    code = ("import atexit, gc, sys\n"
            "from qpb import cli\n"
            "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['qpb', 'verify', 'nosuch']\n"
            "sys.exit(cli.run())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
    assert proc.stdout == "atexit True\n"


def test_unknown_tolerance_key_is_config_error():
    proc = run("verify", "all", "--tolerance", "nonexistent_check=1.0")
    assert proc.returncode == 2
    assert "nonexistent_check" in proc.stderr


def test_malformed_tolerance_is_config_error():
    assert run("verify", "ladder", "--tolerance", "justakey").returncode == 2
    assert run("verify", "ladder", "--tolerance", "k=notanumber").returncode == 2


# the exact stderr of scenarios the checks cannot run on, one line each
@pytest.mark.parametrize("argv,line", [
    ("all --half-extent 4", "boundary mass 1.212e-05 exceeds 1e-06; "
                            "the periodic commutator identity is meaningless for this state"),
    ("poisson --n-points 16", "boundary mass 2.036e-06 exceeds 1e-06; "
                              "the periodic commutator identity is meaningless for this state"),
    ("kk --half-extent 4", "hilbert_spectral input has relative boundary amplitude 2.466e-01, "
                           "above the 0.1 limit for the circular transform"),
    ("uncertainty --half-extent 1e4", "cannot normalize a state with zero or non-finite norm"),
    ("poisson --half-extent 1e4", "cannot normalize a state with zero or non-finite norm"),
    ("ladder --tolerance justakey", "--tolerance expects check_id=value, got 'justakey'"),
    ("all --tolerance nonexistent_check=1.0",
     "tolerance overrides for unknown checks: nonexistent_check"),
    ("ladder --out /nonexistent/dir/x.json",
     "cannot write report to /nonexistent/dir/x.json: No such file or directory"),
    ("ladder --out .", "cannot write report to .: Is a directory"),
])
def test_config_errors_print_their_message_on_one_line(argv, line, capsys):
    assert main(["verify", *argv.split()]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {line}\n"


def test_an_unwritable_out_fails_before_any_suite_runs(monkeypatch, capsys):
    def refuse(config):
        raise AssertionError("run_suite must not start")

    monkeypatch.setattr(cli, "run_suite", refuse)
    assert main(["verify", "all", "--n-points", "65536",
                 "--out", "/nonexistent/dir/x.json"]) == 2
    assert capsys.readouterr().err == ("error: cannot write report to /nonexistent/dir/x.json: "
                                       "No such file or directory\n")


def test_out_is_untouched_by_a_config_error_and_empty_after_a_suite_error(tmp_path, capsys):
    target = tmp_path / "r.json"
    assert main(["verify", "ladder", "--tolerance", "justakey", "--out", str(target)]) == 2
    assert not target.exists()
    # the file is open before the suite runs, which then leaves the float range
    assert main(["verify", "weyl", "--hbar", "1e100", "--out", str(target)]) == 2
    assert target.read_text() == ""
    assert capsys.readouterr().err.endswith(TRAPPED)


def test_unknown_suite_is_usage_error():
    proc = run("verify", "galaxy")
    assert proc.returncode == 2


def test_the_parser_leaves_every_default_to_suite_config():
    args = vars(cli.build_parser().parse_args(["verify", "all"]))
    fields = [name for name in SuiteConfig.__slots__ if name in args]
    assert fields == ["suite"]


def test_grid_flags_reach_the_suite():
    proc = run("verify", "fourier", "--n-points", "128", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    round_trip = next(r for r in rows if r["check_id"] == "fourier_round_trip")
    assert round_trip["context"]["n_points"] == 128


def test_seed_changes_random_draws_but_not_verdicts():
    a = run("verify", "fourier", "--seed", "1", "--format", "json")
    b = run("verify", "fourier", "--seed", "2", "--format", "json")
    assert a.returncode == b.returncode == 0
    ra = json.loads(a.stdout)
    rb = json.loads(b.stdout)
    assert [r["check_id"] for r in ra] == [r["check_id"] for r in rb]
    assert all(r["pass"] for r in ra + rb)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("suite,flag", [
    ("weyl", "--hbar={}"),
    ("ladder", "--omega={}"),
    ("fourier", "--half-extent={}"),
    ("ladder", "--tolerance=ladder_algebra={}"),
])
def test_non_finite_config_is_config_error(suite, flag, value, capsys):
    assert main(["verify", suite, flag.format(value)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["fourier", "uncertainty", "weyl"])
def test_negative_seed_is_config_error(suite, capsys):
    assert main(["verify", suite, "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_weyl_n_trunc_floor_is_config_error(capsys):
    assert main(["verify", "weyl", "--n-trunc", "8"]) == 2
    assert "n_trunc" in capsys.readouterr().err
    assert main(["verify", "weyl", "--n-trunc", "9", "--format", "json"]) == 0


@pytest.mark.parametrize("flag,value", [("--n-trunc", "100000"), ("--n-trunc", "2049"),
                                        ("--n-points", str(2**17))])
def test_resource_bounds_are_config_errors_before_any_check(flag, value, monkeypatch, capsys):
    def refuse(config):
        raise AssertionError("run_suite must not start")

    monkeypatch.setattr(cli, "run_suite", refuse)
    assert main(["verify", "ladder", flag, value]) == 2
    assert "memory budget" in capsys.readouterr().err


TRAPPED = "the configuration leaves the float range\n"


# the arithmetic of each of these leaves the float range: a Python float
# power overflows (kk, fourier), or numpy's arithmetic does (weyl's products,
# and fourier's squared coordinates, the first suite of all)
@pytest.mark.parametrize("argv,suite", [
    (["weyl", "--hbar", "1e100"], "weyl"),
    (["kk", "--hbar", "1e160"], "kk"),
    (["fourier", "--hbar", "1e-300"], "fourier"),
    (["all", "--half-extent", "1e300"], "fourier"),
])
def test_values_a_suite_power_overflows_are_config_errors(argv, suite, capsys):
    assert main(["verify", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {suite}: ") and out.err.endswith(TRAPPED)
    assert out.err.count("\n") == 1


# a Python float power's error names no operation, so the function it ran in
# is named: conjugate_gaussian_pair's hbar**2, transform_block's 3D scale
@pytest.mark.parametrize("argv,function", [
    (["kk", "--hbar", "1e160"], "conjugate_gaussian_pair"),
    (["fourier", "--hbar", "1e-300"], "transform_block"),
])
def test_a_python_float_overflow_names_its_function(argv, function, capsys):
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr().err == f"error: {argv[0]}: float overflow in {function}; {TRAPPED}"


# these sat just inside the per-parameter bounds the config used to predict.
# Only kk overflows, in conjugate_gaussian_pair's far tails, where exp(-inf)
# is the Gaussian's exact 0; nothing trips the trap, so each keeps its verdict
@pytest.mark.parametrize("argv,code", [
    (["weyl", "--hbar", "3.1e49"], 0),
    (["kk", "--hbar", "1.3e154"], 0),
    (["kk", "--hbar", "7.5e-155"], 1),
    (["fourier", "--hbar", "3.2e-206"], 1),
    (["fourier", "--half-extent", "1.3e154"], 1),
])
def test_values_just_inside_the_power_bounds_end_in_a_verdict(argv, code, tmp_path):
    assert main(["verify", *argv, "--format", "json", "--out", str(tmp_path / "r.json")]) == code


@pytest.mark.parametrize("hbar,n_trunc", [("1e50", "96"), ("1e51", "64")])
def test_weyl_entries_beyond_the_float_range_are_config_errors(hbar, n_trunc, capsys):
    assert main(["verify", "weyl", "--hbar", hbar, "--n-trunc", n_trunc]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: weyl: overflow encountered in ") and err.endswith(TRAPPED)
    assert err.count("\n") == 1


# an overflow anywhere in these runs would end them in exit 2
@pytest.mark.parametrize("hbar,n_trunc", [("1e45", "2048"), ("1e40", "2048"),
                                          ("1e49", "1024"), ("1e50", "64")])
def test_large_hbar_within_the_float_range_passes_weyl(hbar, n_trunc, tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "weyl", "--hbar", hbar, "--n-trunc", n_trunc, "--format", "json",
                 "--out", str(out)]) == 0
    rows = {row["check_id"]: row for row in json.loads(out.read_text())}
    assert 0.0 < rows["weyl_matrix_oracle"]["residual"] <= 1e-10


def test_ladder_json_records_the_truncation_corner(tmp_path):
    # [b, b*] reads -(N-1) at the corner and [H, T] misses i hbar there by
    # N hbar, in every case of the omega x hbar sweep
    out = tmp_path / "r.json"
    assert main(["verify", "ladder", "--n-trunc", "16", "--format", "json",
                 "--out", str(out)]) == 0
    rows = {row["check_id"]: row for row in json.loads(out.read_text())}
    algebra = rows["ladder_algebra"]["context"]
    ht = rows["ladder_ht_commutator"]["context"]
    assert algebra["n_cases"] == ht["n_cases"] == 6
    assert algebra["corner_entries"] == pytest.approx([-15.0] * 6, rel=1e-14)
    assert ht["corner_defects"] == pytest.approx([16.0] * 6, rel=1e-14)
    assert rows["ladder_eigenstate_overlap"]["context"] == {"n_trunc": 16, "m_max": 4}
    assert rows["ladder_scaling_exact"]["context"] == {
        "n_trunc": 16, "hbar": 1.0, "omegas": [0.5, 2.0, 3.0]}


def test_large_scales_end_in_a_verdict(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    # ladder_ht_commutator is relative to hbar, so hbar = 1e5 passes
    assert main(["verify", "ladder", "--hbar", "1e5", "--format", "json", "--out", out]) == 0
    # <P> is real to a slack relative to |P psi|, so hbar = 1e50 reaches a verdict
    assert main(["verify", "uncertainty", "--hbar", "1e50", "--format", "json", "--out", out]) in (0, 1)
    # at half-extent 1e100 the spacing is 2e97, so the odd Hermite states sample
    # to zero; that is still reported as a degenerate state, not as a non-real <A>
    assert main(["verify", "uncertainty", "--half-extent", "1e100"]) == 2
    assert "cannot normalize" in capsys.readouterr().err


# Run ARGV... with stdout to OUT, and print its exit code, CPU seconds and
# ru_maxrss (KiB), read with os.wait4. Linux carries a process's RSS high-water
# mark into its child's ru_maxrss at exec, so the measured child is spawned
# from this bare interpreter rather than from the test process.
MEASURE = """
import json, os, subprocess, sys
with open(sys.argv[1], "wb") as out:
    proc = subprocess.Popen(sys.argv[2:], stdout=out)
    _, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]))
"""


def test_weyl_at_the_largest_truncation_stays_within_its_cpu_and_memory(tmp_path):
    """weyl keeps every matrix as a band, so at MAX_N_TRUNC it takes about a
    second and stays near the interpreter's own footprint (1.1 s CPU and
    54 MB on a 2-vCPU x86_64 VM; dense products took 26 s and 240 MB)."""
    out = tmp_path / "out.json"
    proc = subprocess.run([sys.executable, "-c", MEASURE, str(out), *PKG, "verify", "weyl",
                           "--n-trunc", str(MAX_N_TRUNC), "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, cpu_s, maxrss_kib = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    assert all(row["pass"] for row in json.loads(out.read_text()))
    assert cpu_s <= 4.0
    assert maxrss_kib <= 96 * 1024
