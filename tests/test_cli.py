import json
import subprocess
import sys
from pathlib import Path

import pytest

from qpb import cli
from qpb.cli import main

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
