"""Verify suites: pass rules, per-case failures, usage errors."""

import math

import numpy as np
import pytest

from gegenexp import verify as vf
from gegenexp.specfun import ConvergenceError, DomainError, PoleError

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_d_suites_pass_at_default_tolerances(seed):
    # every suite, the cosine expansion and the 3D cc suite among them
    for suite in vf.SUITE_TABLE:
        report = vf.run_suite(suite, seed=seed)
        assert report.overall_pass, (suite, [c.rel_err for c in report.cases])
        assert len(report.cases) == vf.SUITE_TABLE[suite].cases


def test_all_runs_every_suite_in_table_order():
    report = vf.run_suite("all", cases=1)
    assert report.overall_pass
    assert [c.identity for c in report.cases] == [r.identity for r in vf.SUITE_TABLE.values()]


@pytest.mark.parametrize("seed", [1, 3])
def test_drawn_hermite_case_has_even_degree_sum(seed):
    # hermite's three fixed cases come first; the fourth is drawn, and at
    # seed 3 the draw is (ell, m) = (1, 2), which _even lifts to (1, 3)
    report = vf.run_suite("hermite", seed=seed, cases=4)
    assert report.overall_pass, [c.rel_err for c in report.cases]
    drawn = report.cases[-1].params
    assert (drawn["ell"] + drawn["m"]) % 2 == 0


@pytest.mark.parametrize("seed, suite, index, params", [
    (20240401, "main", 0, {"lambda": 0.5658298926272334, "mu": 2.6390462040654343,
                           "nu": 2.3540451713504575, "ell": 1, "m": 5, "x": 0.0}),
    (1, "main", 0, {"lambda": 0.5762198835147234, "mu": 2.5728144634242516,
                    "nu": 3.1732111664181493, "ell": 2, "m": 0, "x": 0.9}),
    (20240401, "hermite", 3, {"nu": 0.674372419470425, "ell": 1, "m": 1,
                              "x": 0.5107539990162384}),
    (1, "hermite", 3, {"nu": 0.6821649126360426, "ell": 0, "m": 2,
                       "x": -0.7641625926578779}),
])
def test_first_drawn_case_is_pinned(seed, suite, index, params):
    # the draws come from random.Random(seed), whose random() sequence for a
    # seed is documented to repeat (randrange's is not); a change of
    # generator, of draw order, of how a value is drawn or of Python's
    # randrange fails here by name, not only in a report's digest
    report = vf.run_suite(suite, seed=seed, cases=index + 1, timings=False)
    drawn = report.cases[index].params
    assert drawn == params
    assert [type(v) for v in drawn.values()] == [type(v) for v in params.values()]


def test_numpy_integer_seed_gives_the_same_report():
    # check_degree takes numpy integers, which random.Random does not
    plain = vf.run_suite("all", seed=7, timings=False)
    numpy_seed = vf.run_suite("all", seed=np.int64(7), timings=False)
    assert numpy_seed.to_dict() == plain.to_dict()
    assert type(numpy_seed.seed) is int


def test_moment_suite_reaches_odd_degree_sums():
    # cc lifts its draws to even ell + m; the moment suite keeps the odd sums
    # that its closed form and the plus-kernel oracle both allow
    report = vf.run_suite("moment")
    assert report.overall_pass, [c.rel_err for c in report.cases]
    assert any((c.params["ell"] + c.params["m"]) % 2 for c in report.cases)


def test_zero_cases_do_not_pass():
    report = vf.run_suite("stz", cases=0)
    assert report.cases == []
    assert report.overall_pass is False


def _recording_row(calls, error=None):
    """A two-case row whose closed form records each call; with an error
    given, case 0's closed form raises it and case 1's returns 2.0."""

    def closed(p):
        calls.append(p["i"])
        if error is not None and p["i"] == 0:
            raise error
        return 2.0

    return vf.SuiteRow("recorded", 1e-8, 2, lambda rng, i: {"i": i}, closed,
                       lambda p, tol: 2.0)


class TestCaseErrors:
    @pytest.mark.parametrize(
        "error", [DomainError("bad point"), ConvergenceError("2F1 stalled"),
                  PoleError("gamma pole at x=0.0")]
    )
    def test_closed_form_error_fails_only_its_case(self, error, monkeypatch):
        calls = []
        monkeypatch.setitem(vf.SUITE_TABLE, "mehta", _recording_row(calls, error))
        report = vf.run_suite("mehta")
        bad, good = report.cases
        assert calls == [0, 1]
        assert not bad.passed
        assert math.isnan(bad.closed_form) and math.isnan(bad.abs_err)
        assert type(error).__name__ in bad.note and str(error) in bad.note
        assert good.passed and good.note is None
        assert report.overall_pass is False


class TestUsageErrors:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_nonpositive_tol_runs_no_case(self, tol, monkeypatch):
        calls = []
        monkeypatch.setitem(vf.SUITE_TABLE, "mehta", _recording_row(calls))
        with pytest.raises(DomainError, match=f"^tol must be finite and exceed 0.0, got {tol!r}$"):
            vf.run_suite("mehta", tol=tol)
        assert calls == []

    def test_negative_cases(self):
        # a fractional count is refused too, not left to range() as a TypeError
        for cases in (-1, 2.5):
            message = f"^cases must be a nonnegative integer, got {cases!r}$"
            with pytest.raises(DomainError, match=message):
                vf.run_suite("stz", cases=cases)

    def test_negative_seed_runs_no_case(self, monkeypatch):
        calls = []
        monkeypatch.setitem(vf.SUITE_TABLE, "mehta", _recording_row(calls))
        for seed in (-1, 1.5):
            message = f"^seed must be a nonnegative integer, got {seed!r}$"
            with pytest.raises(DomainError, match=message):
                vf.run_suite("mehta", seed=seed)
        assert calls == []

