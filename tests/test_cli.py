import json
import subprocess
import sys
from pathlib import Path

import pytest

from qpb import cli
from qpb.cli import main
from qpb.suites import MAX_N_TRUNC

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


def test_tolerance_override_can_force_failure():
    proc = run("verify", "poisson", "--tolerance", "poisson_residual=1e-15")
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_unknown_tolerance_key_is_config_error():
    proc = run("verify", "all", "--tolerance", "nonexistent_check=1.0")
    assert proc.returncode == 2
    assert "nonexistent_check" in proc.stderr


def test_malformed_tolerance_is_config_error():
    assert run("verify", "ladder", "--tolerance", "justakey").returncode == 2
    assert run("verify", "ladder", "--tolerance", "k=notanumber").returncode == 2


def test_unknown_suite_is_usage_error():
    proc = run("verify", "galaxy")
    assert proc.returncode == 2


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


@pytest.mark.parametrize("argv,name", [
    (["weyl", "--hbar", "1e100"], "hbar"),
    (["kk", "--hbar", "1e160"], "hbar"),
    (["fourier", "--hbar", "1e-300"], "hbar"),
    (["all", "--half-extent", "1e300"], "half_extent"),
])
def test_values_a_suite_power_overflows_are_config_errors_before_any_check(
        argv, name, monkeypatch, capsys):
    def refuse(config):
        raise AssertionError("run_suite must not start")

    monkeypatch.setattr(cli, "run_suite", refuse)
    assert main(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} ") and "overflows" in err
    assert err.count("\n") == 1


# bounds: weyl hbar <= 2.38e51 (hbar ** 6), kk 7.46e-155 <= hbar <= 1.34e154
# (hbar ** 2 and its inverse), fourier hbar >= 3.14e-206 (hbar ** -1.5),
# half_extent <= 1.34e154 (half_extent ** 2). Just inside them numpy's own
# arithmetic overflows to inf in places and warns; the run still has to end
# in a verdict.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["weyl", "--hbar", "2.3e51"],
    ["kk", "--hbar", "1.3e154"],
    ["kk", "--hbar", "7.5e-155"],
    ["fourier", "--hbar", "3.2e-206"],
    ["fourier", "--half-extent", "1.3e154"],
])
def test_values_just_inside_the_power_bounds_end_in_a_verdict(argv, tmp_path):
    assert main(["verify", *argv, "--format", "json", "--out", str(tmp_path / "r.json")]) in (0, 1)


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
