"""Verify suites: pass rules, per-case failures, thread settings."""

import math

import pytest

from gegenexp import verify as vf
from gegenexp.specfun import ConvergenceError, DomainError

TWO_D_SUITES = ("main", "stz", "projection", "selberg", "warnaar", "tv")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_d_suites_pass_at_default_tolerances(seed):
    for suite in TWO_D_SUITES:
        report = vf.run_suite(suite, seed=seed)
        assert report.overall_pass, (suite, [c.rel_err for c in report.cases])
        assert len(report.cases) == vf.DEFAULT_CASES[suite]


def test_zero_cases_do_not_pass():
    report = vf.run_suite("stz", cases=0)
    assert report.cases == []
    assert report.overall_pass is False


class TestCaseErrors:
    def _builder(self, error, calls):
        def closed():
            calls.append("closed")
            raise error

        def builder(rng, n, tol):
            return [
                vf.Case("raises", {}, closed, lambda: 1.0),
                vf.Case("constant", {}, lambda: 2.0, lambda: 2.0),
            ]

        return builder

    @pytest.mark.parametrize(
        "error", [DomainError("bad point"), ConvergenceError("2F1 stalled")]
    )
    def test_closed_form_error_fails_only_its_case(self, error, monkeypatch):
        calls = []
        monkeypatch.setitem(vf._BUILDERS, "mehta", self._builder(error, calls))
        report = vf.run_suite("mehta")
        bad, good = report.cases
        assert calls == ["closed"]
        assert not bad.passed
        assert math.isnan(bad.closed_form) and math.isnan(bad.abs_err)
        assert type(error).__name__ in bad.note and str(error) in bad.note
        assert good.passed and good.note is None
        assert report.overall_pass is False


class TestMaxWorkers:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("GEGEN_THREADS", raising=False)
        assert vf.max_workers() == 1

    def test_integer(self, monkeypatch):
        monkeypatch.setenv("GEGEN_THREADS", " 3 ")
        assert vf.max_workers() == 3

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_rejects_bad_values(self, value, monkeypatch):
        monkeypatch.setenv("GEGEN_THREADS", value)
        with pytest.raises(DomainError, match="GEGEN_THREADS"):
            vf.max_workers()
