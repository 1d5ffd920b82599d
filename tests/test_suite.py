"""Fixture registry plumbing (individual fixtures are exercised elsewhere)."""

import pytest

from idemconv.suite import FIXTURES, FixtureResult, SuiteConfig, run_fixture, run_suite

EXPECTED = [
    "example-2.4i",
    "example-2.4ii",
    "commute-oracle-sweep",
    "limit-sweep",
    "stromberg-cyclic",
    "free-product-c2c3",
    "example-3.3",
    "example-4.4i",
    "example-4.4ii",
    "example-4.4iii",
    "measure-group-sweep",
    "local-unitaries",
    "skew-exponentials",
    "structural-invariants",
]


def test_registry_contents():
    assert list(FIXTURES) == EXPECTED


def test_unknown_fixture_raises():
    with pytest.raises(KeyError):
        run_fixture("nope", SuiteConfig())
    with pytest.raises(KeyError):
        run_suite(only="nope")


def test_run_fixture_returns_result():
    res = run_fixture("example-4.4i", SuiteConfig())
    assert isinstance(res, FixtureResult)
    assert res.fixture == "example-4.4i"
    assert res.passed
    assert isinstance(res.details, dict)


def test_run_suite_filters():
    summary = run_suite(only="example-4.4i")
    assert len(summary.results) == 1
    assert summary.passed


def test_failures_are_captured_not_raised(monkeypatch):
    def boom(cfg):
        raise ValueError("synthetic corruption")

    monkeypatch.setitem(FIXTURES, "synthetic", boom)
    res = run_fixture("synthetic", SuiteConfig())
    assert not res.passed
    assert "ValueError" in res.details["error"]


def test_config_propagates_grid():
    res = run_fixture("example-3.3", SuiteConfig(grid=24))
    assert res.passed
    assert res.details["grid"] == 24


def test_limit_check_survives_optimize(run_optimized):
    # idempotent_power_limit raises InvariantViolation when the float
    # iteration stalls, so under python -O a run that cannot converge must
    # still fail the limit-sweep fixture by name
    code = (
        "from idemconv.measures import FloatMeasure\n"
        "from idemconv.suite import run_fixture\n"
        "FloatMeasure.convolve = lambda self, other: self\n"
        "res = run_fixture('limit-sweep')\n"
        "print(res.passed, res.details.get('error'))\n"
        "ok = not res.passed and 'InvariantViolation' in res.details['error']\n"
        "raise SystemExit(0 if ok else 1)\n"
    )
    run_optimized(code, timeout=120)
