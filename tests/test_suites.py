import math
from dataclasses import replace
from types import SimpleNamespace

import pytest

from qpb import suites
from qpb.errors import ConfigurationError, ResourceBoundError
from qpb.report import make_report
from qpb.suites import CITATIONS, KNOWN_CHECK_IDS, SUITE_NAMES, SuiteConfig, _fold, run_suite

EXPECTED_PER_SUITE = {
    "fourier": 4,
    "poisson": 4,
    "kk": 5,
    "weyl": 6,
    "uncertainty": 5,
    "ladder": 4,
}


def test_every_check_id_has_a_citation():
    assert set(CITATIONS) == set(KNOWN_CHECK_IDS)
    assert all(isinstance(v, str) and v for v in CITATIONS.values())


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
        assert r.paper_ref == CITATIONS[r.check_id]


def test_all_suite_is_the_union():
    reports = run_suite(SuiteConfig(suite="all"))
    assert {r.check_id for r in reports} == set(KNOWN_CHECK_IDS)
    assert len(reports) == sum(EXPECTED_PER_SUITE.values())


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
    cases = [make_report("ladder_algebra", "ref", r, 1e-12) for r in (1e-15, 2e-15)]
    bad = make_report("ladder_algebra", "ref", math.nan, 1e-12)
    cases = [bad] + cases if position == "first" else cases + [bad]
    folded = _fold("ladder_algebra", cases, 1e-12)
    assert math.isnan(folded.residual)
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
    ("tensor_kronecker", "poisson", "commutator_apply", 1,
     lambda psi: SimpleNamespace(values=psi.values * math.nan)),
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
