import json
import math
from pathlib import Path

import numpy as np
import pytest

from qpb import suites
from qpb.errors import ConfigurationError
from qpb.kk import phase_equivalence
from qpb.report import CHECKS, CheckReport, emit_report, make_report
from qpb.suites import SUITE_NAMES, SuiteConfig, _fold, run_suite

EXPECTED_PER_SUITE = {
    "fourier": 4,
    "poisson": 4,
    "kk": 5,
    "weyl": 6,
    "uncertainty": 5,
    "ladder": 4,
}


def test_every_check_id_has_a_citation():
    assert all(isinstance(c.paper_ref, str) and c.paper_ref for c in CHECKS.values())
    assert all(c.tolerance >= 0.0 and math.isfinite(c.tolerance) for c in CHECKS.values())


def _moved_values(old_json, new_json):
    """One line per value that moved between two JSON reports, old -> new:
    each check's residual, verdict and other fields, and each context key."""
    old = {r["check_id"]: r for r in json.loads(old_json)}
    new = {r["check_id"]: r for r in json.loads(new_json)}
    lines = [f"{cid}: {'added' if cid in new else 'removed'}" for cid in sorted(old.keys() ^ new.keys())]
    for cid in sorted(old.keys() & new.keys()):
        for where, a, b in (("", old[cid], new[cid]),
                            ("context.", old[cid]["context"], new[cid]["context"])):
            for key in sorted(a.keys() | b.keys()):
                if key != "context" and a.get(key) != b.get(key):
                    lines.append(f"{cid} {where}{key}: {a.get(key)!r} -> {b.get(key)!r}")
    return "\n".join(lines) or "no value moved; the bytes differ in layout"


def test_moved_values_names_each_change():
    old = json.dumps([{"check_id": "a", "residual": 0.0, "pass": True, "context": {"n": 1, "m": 2}},
                      {"check_id": "b", "residual": 1.0, "pass": True, "context": {}}])
    new = json.dumps([{"check_id": "a", "residual": 4e-16, "pass": False, "context": {"n": 1, "m": 3}},
                      {"check_id": "c", "residual": 1.0, "pass": True, "context": {}}])
    assert _moved_values(old, new).splitlines() == [
        "b: removed", "c: added", "a pass: True -> False", "a residual: 0.0 -> 4e-16",
        "a context.m: 2 -> 3"]
    assert _moved_values(old, old) == "no value moved; the bytes differ in layout"


def test_default_json_is_byte_identical_to_the_golden_copy():
    # data/default_all.json holds `qpb verify all --format json` at the
    # default config; a change that moves any residual's bits must say which
    # and why, and refresh the copy. On failure the message lists each moved
    # value, old -> new.
    golden = Path(__file__).with_name("data") / "default_all.json"
    got = emit_report(run_suite(SuiteConfig()), "json").encode()
    expected = golden.read_bytes()
    assert got == expected, "moved values:\n" + _moved_values(expected, got)


def test_suite_names_cover_builders_plus_all():
    assert set(EXPECTED_PER_SUITE) | {"all"} == set(SUITE_NAMES)


@pytest.mark.parametrize("suite,count", sorted(EXPECTED_PER_SUITE.items()))
def test_each_suite_runs_its_checks(suite, count):
    reports = run_suite(SuiteConfig(suite=suite))
    assert len(reports) == count
    ids = [r.check_id for r in reports]
    assert ids == sorted(ids)
    assert set(ids) <= set(CHECKS)
    for r in reports:
        assert r.paper_ref == CHECKS[r.check_id].paper_ref
        assert r.tolerance == CHECKS[r.check_id].tolerance


def test_all_suite_is_the_union():
    """`all` writes the bytes of its six suites' reports, sorted by check id,
    at the defaults and at another hbar and seed: no suite's result depends
    on what ran before it."""
    for kwargs in ({}, {"hbar": 2.0, "seed": 5}):
        reports = run_suite(SuiteConfig(suite="all", **kwargs))
        assert {r.check_id for r in reports} == set(CHECKS)
        assert len(reports) == sum(EXPECTED_PER_SUITE.values())
        union = sorted((r for suite in EXPECTED_PER_SUITE
                        for r in run_suite(SuiteConfig(suite=suite, **kwargs))),
                       key=lambda r: r.check_id)
        assert emit_report(reports, "json") == emit_report(union, "json"), kwargs


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SuiteConfig(suite="galaxy")
    with pytest.raises(ConfigurationError):
        SuiteConfig(hbar=-1.0)
    with pytest.raises(ConfigurationError):
        SuiteConfig(n_trunc=4)
    with pytest.raises(ConfigurationError):
        SuiteConfig(tolerances={"not_a_check": 1.0})
    with pytest.raises(ConfigurationError):
        SuiteConfig(tolerances={"kk_residual": -1.0})


@pytest.mark.parametrize("position", ["first", "last"])
def test_fold_propagates_nan_wherever_it_sits(position):
    cases = [make_report("ladder_algebra", r) for r in (1e-15, 2e-15)]
    bad = make_report("ladder_algebra", math.nan)
    cases = [bad] + cases if position == "first" else cases + [bad]
    folded = _fold("ladder_algebra", cases)
    assert math.isnan(folded.residual)
    assert not folded.passed


@pytest.mark.parametrize("override", [None, 1.0])
def test_fold_with_an_invalid_case_fails_at_any_tolerance(override, monkeypatch):
    n = 64
    mag, zero = np.ones(n), np.zeros(n)
    valid = phase_equivalence(mag, zero, zero)
    # the phase difference alternates between -0.8 and 0.8: residual 0.8, but
    # adjacent steps of 1.6 > pi/2 leave the comparison under-resolved
    under = phase_equivalence(mag, zero, 0.8 * (-1.0) ** np.arange(n))
    assert valid.passed and not under.valid
    assert under.context["insufficient_resolution"] is True
    # run_suite applies the override to the folded report
    monkeypatch.setitem(suites._BUILDERS, "kk",
                        lambda cfg: [_fold("phase_equivalence", [valid, under])])
    cfg = SuiteConfig(suite="kk",
                      tolerances={} if override is None else {"phase_equivalence": override})
    folded, = run_suite(cfg)
    assert folded.tolerance == cfg.tol("phase_equivalence")
    assert folded.residual == under.residual <= 1.0
    assert not folded.valid
    assert not folded.passed


def test_grid_defaults_differ_per_section():
    cfg = SuiteConfig()
    assert cfg.grid_1d("kk") == (4096, 64.0)
    assert cfg.grid_1d("fourier") == (256, 8.0)
    explicit = SuiteConfig(n_points=512, half_extent=12.0)
    assert explicit.grid_1d("kk") == (512, 12.0)


def test_tolerance_override_applies():
    reports = run_suite(SuiteConfig(suite="poisson", tolerances={"poisson_residual": 1e-15}))
    failed = {r.check_id for r in reports if not r.passed}
    assert "poisson_residual" in failed


def test_every_check_carries_exactly_its_own_override():
    overrides = {check_id: (i + 1) * 1e-3 for i, check_id in enumerate(sorted(CHECKS))}
    reports = run_suite(SuiteConfig(suite="all", tolerances=overrides))
    assert len(reports) == len(CHECKS) == 28
    assert {r.check_id: r.tolerance for r in reports} == overrides


def _nan_report(rep):
    return CheckReport(check_id=rep.check_id, paper_ref=rep.paper_ref, residual=math.nan,
                       tolerance=rep.tolerance, valid=rep.valid, context=rep.context)


def _nan_product_row(data):
    product = data["product"].copy()
    product[5] = math.nan
    return {**data, "product": product}


# (check, suite, suite-level function, which call to spoil, how); each spoiled
# call sits where Python's max/min would have dropped the NaN; a block kernel
# is spoiled in one row of one block
NAN_CASES = [
    ("weyl_matrix_oracle", "weyl", "matrix_realize", 7, lambda m: m * math.nan),
    ("uncertainty_random_bound", "uncertainty", "pair_moments_block", 2, _nan_product_row),
    ("poisson_fd_convergence", "poisson", "poisson_residual", 8, _nan_report),
    ("kk_wrong_half_plane", "kk", "kk_residual", 5, _nan_report),
    ("kk_refinement_monotone", "kk", "pv_quadrature", 5, lambda v: v * math.nan),
    ("tensor_kronecker", "poisson", "kronecker_commutators", 1,
     lambda r: (r[0], r[1] * math.nan)),
]


def test_a_nan_commutator_fails_the_random_bound(monkeypatch):
    # max(0.0, nan) is 0.0: a clamp by Python's max would turn a NaN into a pass
    original = suites.pair_moments_block

    def spoiled(*args, **kwargs):
        data = original(*args, **kwargs)
        return {**data, "half_commutator_magnitude": data["half_commutator_magnitude"] * math.nan}

    monkeypatch.setattr(suites, "pair_moments_block", spoiled)
    report = {r.check_id: r for r in run_suite(SuiteConfig(suite="uncertainty"))}[
        "uncertainty_random_bound"]
    assert math.isnan(report.residual)
    assert not report.passed


@pytest.mark.parametrize("check_id,suite,name,index,spoil", NAN_CASES,
                         ids=[case[0] for case in NAN_CASES])
def test_nan_inside_a_check_fails_it(monkeypatch, check_id, suite, name, index, spoil):
    original = getattr(suites, name)
    calls = []

    def spoiled(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(name)
        return spoil(out) if len(calls) == index else out

    monkeypatch.setattr(suites, name, spoiled)
    report = {r.check_id: r for r in run_suite(SuiteConfig(suite=suite))}[check_id]
    assert len(calls) >= index
    assert math.isnan(report.residual)
    assert not report.passed


def test_hermite_product_fails_on_the_wrong_level(monkeypatch):
    # level 2 built as level 3: its product reads 3.5 hbar against 2.5 hbar
    original = suites.oscillator_eigenstate

    def shifted(grid, k, *args, **kwargs):
        return original(grid, k + 1 if k == 2 else k, *args, **kwargs)

    monkeypatch.setattr(suites, "oscillator_eigenstate", shifted)
    report = {r.check_id: r for r in run_suite(SuiteConfig(suite="uncertainty"))}[
        "uncertainty_hermite_product"]
    assert report.passed is False
    assert report.residual == pytest.approx(1.0, abs=1e-9)
    assert report.context["products"][1] == pytest.approx(3.5, abs=1e-9)


def test_weyl_n_trunc_floor_follows_oracle_degree():
    for suite in ("weyl", "all"):
        with pytest.raises(ConfigurationError):
            SuiteConfig(suite=suite, n_trunc=suites.WEYL_MIN_N_TRUNC - 1)
        SuiteConfig(suite=suite, n_trunc=suites.WEYL_MIN_N_TRUNC)
    SuiteConfig(suite="ladder", n_trunc=8)


def test_resource_caps_follow_one_memory_budget():
    assert 16 * suites.MAX_N_TRUNC**2 <= suites.MEMORY_BUDGET_BYTES
    assert 16 * (suites.MAX_N_TRUNC + 1) ** 2 > suites.MEMORY_BUDGET_BYTES
    assert suites.MAX_N_POINTS == 2**16
    SuiteConfig(suite="ladder", n_trunc=suites.MAX_N_TRUNC, n_points=suites.MAX_N_POINTS)
    with pytest.raises(ConfigurationError):
        SuiteConfig(suite="ladder", n_trunc=suites.MAX_N_TRUNC + 1)
    with pytest.raises(ConfigurationError):
        SuiteConfig(suite="kk", n_points=2 * suites.MAX_N_POINTS)


def test_default_and_benchmark_configs_are_within_bounds():
    # the shipped defaults and the sizes bench/run.py runs
    for kwargs in ({}, {"suite": "kk", "n_points": 8192, "half_extent": 128.0},
                   {"suite": "uncertainty", "n_points": 1024}, {"suite": "weyl", "n_trunc": 96}):
        SuiteConfig(**kwargs)


def test_the_float_trap_restores_the_callers_error_state():
    for caller in ({}, {"all": "warn", "under": "raise"}):
        with np.errstate(**caller):
            before = np.geterr()
            run_suite(SuiteConfig(suite="ladder", n_trunc=16))
            assert np.geterr() == before
            with pytest.raises(ConfigurationError):
                run_suite(SuiteConfig(suite="ladder", hbar=1e200, omega=1e200))
            assert np.geterr() == before


def test_ladder_beyond_the_float_range_is_a_configuration_error():
    # without the trap, H = omega hbar N overflows and both ladder_ht_commutator
    # and ladder_eigenstate_overlap report NaN residuals
    with pytest.raises(ConfigurationError, match=r"^ladder: overflow encountered in multiply; "
                                                 r"the configuration leaves the float range$"):
        run_suite(SuiteConfig(suite="ladder", hbar=1e200, omega=1e200))


@pytest.mark.parametrize("arithmetic,reason", [
    (lambda: np.ones(2) / np.zeros(2), "divide by zero encountered in divide"),
    (lambda: np.zeros(2) / np.zeros(2), "invalid value encountered in divide"),
    (lambda: np.full(2, 1e300) * 1e300, "overflow encountered in multiply"),
    # Python's float errors are named by the function that raised them
    (lambda: 1e300 ** 2, "float overflow in <lambda>"),
    (lambda: 1.0 / 0.0, "float division by zero in <lambda>"),
])
def test_every_arithmetic_error_of_a_suite_becomes_one_configuration_error(
        monkeypatch, arithmetic, reason):
    def builder(cfg):
        arithmetic()
        return []

    monkeypatch.setitem(suites._BUILDERS, "kk", builder)
    with pytest.raises(ConfigurationError,
                       match=f"^kk: {reason}; the configuration leaves the float range$") as info:
        run_suite(SuiteConfig(suite="kk"))
    assert isinstance(info.value.__cause__, ArithmeticError)


def test_underflow_inside_a_suite_stays_silent_whatever_the_callers_state(monkeypatch):
    def builder(cfg):
        assert np.exp(np.full(2, -1e4)).tolist() == [0.0, 0.0]
        return [make_report("kk_residual", 0.0)]

    monkeypatch.setitem(suites._BUILDERS, "kk", builder)
    with np.errstate(under="raise"):
        assert [r.passed for r in run_suite(SuiteConfig(suite="kk"))] == [True]
