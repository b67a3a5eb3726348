import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qpb import suites
from qpb.errors import ConfigurationError, ResourceBoundError
from qpb.kk import phase_equivalence
from qpb.report import CHECKS, emit_report, make_report
from qpb.symbolic import HbarPoly, band_product, matrix_realize, random_operator_poly
from qpb.suites import KNOWN_CHECK_IDS, SUITE_NAMES, SuiteConfig, _fold, run_suite

EXPECTED_PER_SUITE = {
    "fourier": 4,
    "poisson": 4,
    "kk": 5,
    "weyl": 6,
    "uncertainty": 5,
    "ladder": 4,
}


def test_every_check_id_has_a_citation():
    assert set(CHECKS) == set(KNOWN_CHECK_IDS)
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
    assert set(ids) <= KNOWN_CHECK_IDS
    for r in reports:
        assert r.paper_ref == CHECKS[r.check_id].paper_ref
        assert r.tolerance == CHECKS[r.check_id].tolerance


def test_all_suite_is_the_union():
    """`all` writes the bytes of its six suites' reports, sorted by check id,
    at the defaults and at another hbar and seed: no suite's result depends
    on what ran before it."""
    for kwargs in ({}, {"hbar": 2.0, "seed": 5}):
        reports = run_suite(SuiteConfig(suite="all", **kwargs))
        assert {r.check_id for r in reports} == set(KNOWN_CHECK_IDS)
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
    folded = _fold("ladder_algebra", cases, 1e-12)
    assert math.isnan(folded.residual)
    assert not folded.passed


@pytest.mark.parametrize("override", [None, 1.0])
def test_fold_with_an_invalid_case_fails_at_any_tolerance(override):
    n = 64
    mag, zero = np.ones(n), np.zeros(n)
    valid = phase_equivalence(mag, zero, zero)
    # the phase difference alternates between -0.8 and 0.8: residual 0.8, but
    # adjacent steps of 1.6 > pi/2 leave the comparison under-resolved
    under = phase_equivalence(mag, zero, 0.8 * (-1.0) ** np.arange(n))
    assert valid.passed and not under.valid
    assert under.context["insufficient_resolution"] is True
    cfg = SuiteConfig(tolerances={} if override is None else {"phase_equivalence": override})
    folded = _fold("phase_equivalence", [valid, under], cfg.tol("phase_equivalence"))
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


def _nan_report(rep):
    return replace(rep, residual=math.nan)


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
    with pytest.raises(ResourceBoundError):
        SuiteConfig(suite="ladder", n_trunc=suites.MAX_N_TRUNC + 1)
    with pytest.raises(ResourceBoundError):
        SuiteConfig(suite="kk", n_points=2 * suites.MAX_N_POINTS)


def test_default_and_benchmark_configs_are_within_bounds():
    # the shipped defaults and the sizes bench/run.py runs
    for kwargs in ({}, {"suite": "kk", "n_points": 8192, "half_extent": 128.0},
                   {"suite": "uncertainty", "n_points": 1024}, {"suite": "weyl", "n_trunc": 96}):
        SuiteConfig(**kwargs)


def test_power_bounds_apply_to_the_suites_that_raise_the_power():
    for suite in ("weyl", "all"):
        with pytest.raises(ConfigurationError, match="hbar"):
            SuiteConfig(suite=suite, hbar=1e100)
    for suite in ("kk", "fourier", "poisson", "uncertainty", "ladder"):
        SuiteConfig(suite=suite, hbar=1e100)
    # weyl's powers only overflow upward, kk's hbar ** 2 also divides
    SuiteConfig(suite="weyl", hbar=1e-300)
    with pytest.raises(ConfigurationError, match="hbar"):
        SuiteConfig(suite="kk", hbar=1e-200)
    SuiteConfig(suite="ladder", hbar=1e-300, half_extent=1e300)
    with pytest.raises(ConfigurationError, match="half_extent"):
        SuiteConfig(suite="uncertainty", half_extent=1e300)


def test_weyl_entry_bound_scales_hbar_with_n_trunc():
    def limit(n_trunc):
        return (sys.float_info.max / (suites.WEYL_ENTRY_FACTOR * n_trunc**4)) ** (1 / 6)

    for n_trunc in (9, 64, 96, 2048):
        for suite in ("weyl", "all"):
            SuiteConfig(suite=suite, n_trunc=n_trunc, hbar=0.99 * limit(n_trunc))
            with pytest.raises(ConfigurationError, match="hbar"):
                SuiteConfig(suite=suite, n_trunc=n_trunc, hbar=1.01 * limit(n_trunc))
    # only weyl realizes the oracle's products
    SuiteConfig(suite="ladder", n_trunc=2048, hbar=1e50)


def test_weyl_entry_factor_bounds_the_realized_products():
    hbar, n_trunc = 1e40, 64
    rng = np.random.default_rng(0)
    largest = 0.0
    for _ in range(suites.N_ORACLE_DRAWS):
        a, b = (random_operator_poly(rng, max_degree=suites.ORACLE_TERM_DEGREE, n_terms=3)
                for _ in range(2))
        m_a, m_b = matrix_realize(a, n_trunc, hbar), matrix_realize(b, n_trunc, hbar)
        largest = max(largest, float(np.max(np.abs(
            band_product(m_a, m_b) - band_product(m_b, m_a)))))
    growth = largest / (hbar**suites.WEYL_HBAR_DEGREE * n_trunc**suites.ORACLE_TERM_DEGREE)
    assert 1.0 < growth < suites.WEYL_ENTRY_FACTOR


def test_weyl_hbar_degree_is_the_largest_power_weyl_evaluates(monkeypatch):
    degrees = []
    evaluate = HbarPoly.evaluate

    def recording(self, hbar_value):
        degrees.extend(deg for deg, _ in self.items())
        return evaluate(self, hbar_value)

    monkeypatch.setattr(HbarPoly, "evaluate", recording)
    for seed in range(3):
        run_suite(SuiteConfig(suite="weyl", seed=seed))
    assert max(degrees) == suites.WEYL_HBAR_DEGREE
