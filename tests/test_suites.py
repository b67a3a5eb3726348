import math

import pytest

from qpb.errors import ConfigurationError
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
