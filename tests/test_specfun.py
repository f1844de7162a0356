"""Scalar special-function kernels: values, identities, and branch logic."""

import math
import re
import threading

import mpmath as mp
import numpy as np
import pytest

from gegenexp.orthopoly import gauss_jacobi_rule
import gegenexp.specfun as sf
from gegenexp.specfun import (
    ConvergenceError,
    INTEGER_TOL,
    DomainError,
    HypStatus,
    PoleError,
    _digamma,
    _lgamma_at,
    _series,
    gamma_ratio,
    hyp2f1,
    nonpositive_int,
)

mp.mp.dps = 40


class TestGammaFamily:
    def test_log_gamma_pole(self):
        # log|Gamma| of a numerator argument is where gamma_ratio meets a pole
        for x in (0.0, -3.0, -7.0 + 1e-12):
            with pytest.raises(PoleError):
                gamma_ratio((x,))

    def test_gamma_sign_alternates(self):
        assert _lgamma_at(2.3, 0)[1] == 1.0
        assert _lgamma_at(0.3, 0)[1] == 1.0
        assert _lgamma_at(-0.5, 0)[1] == -1.0
        assert _lgamma_at(-1.5, 0)[1] == 1.0
        assert _lgamma_at(-2.5, 0)[1] == -1.0

    def test_ratio_below_one_half_matches_mpmath(self):
        # every factor goes through _lgamma_at, so below 1/2 through the
        # reflection: uniform draws on (-200, 1/2) and points 1e-7, 1e-3, a
        # quarter and a half away from a pole
        rng = np.random.default_rng(19)
        offsets = rng.choice([1e-7, -1e-7, 1e-3, -1e-3, 0.25, 0.5], 1000)
        poles = offsets - rng.integers(0, 200, 1000)
        xs = np.where(rng.random(1000) < 0.5, rng.uniform(-200.0, 0.5, 1000), poles)
        for num, den in zip(xs[0::2].tolist(), xs[1::2].tolist()):
            ref = mp.gamma(mp.mpf(num)) / mp.gamma(mp.mpf(den))
            log, sign = sf._log_gamma_ratio((num,), (den,))
            assert sign == (1.0 if ref > 0 else -1.0)
            assert abs(log - float(mp.log(abs(ref)))) <= 5e-13, (num, den)
            if abs(log) < 700.0:
                assert abs(gamma_ratio((num,), (den,)) / float(ref) - 1.0) <= 5e-13

    def test_rgamma_total(self):
        # the reciprocal gamma, a lone denominator factor, is exactly 0 at a pole
        assert gamma_ratio((), (0.0,)) == 0.0
        assert gamma_ratio((), (-3.0,)) == 0.0
        assert gamma_ratio((), (-3.0 + 5e-11,)) == 0.0
        assert gamma_ratio((), (2.0,)) == pytest.approx(1.0, rel=1e-15)

    def test_rgamma_inverts_gamma(self):
        for x in (0.1, 0.5, 1.5, 7.3, -0.5, -4.2):
            assert gamma_ratio((x,)) == pytest.approx(float(mp.gamma(x)), rel=1e-13)
            assert gamma_ratio((), (x,)) == pytest.approx(float(mp.rgamma(x)), rel=1e-13)

    def test_duplication_formula(self):
        rng = np.random.default_rng(7)
        for c in rng.uniform(0.01, 10.0, size=100):
            lhs = gamma_ratio((2.0 * c,))
            rhs = (gamma_ratio((c,)) * gamma_ratio((c + 0.5,))
                   * 2.0 ** (2.0 * c - 1.0) / math.sqrt(math.pi))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_beta(self):
        # B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b)
        assert gamma_ratio((0.5, 0.5), (1.0,)) == pytest.approx(math.pi, rel=1e-14)
        assert gamma_ratio((2.0, 3.0), (5.0,)) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_past_double_range_is_infinite(self):
        # Gamma(200) ~ 4e372 and 1/Gamma(-180.5) ~ -1e330 overflow a double
        assert gamma_ratio((200.0,)) == math.inf
        assert gamma_ratio((), (-180.5,)) == -math.inf

    def test_gamma_ratio_denominator_pole_is_zero(self):
        assert gamma_ratio((1.0,), (-2.0,)) == 0.0

    def test_gamma_ratio_numerator_pole_raises(self):
        with pytest.raises(PoleError):
            gamma_ratio((-1.0,), (2.0,))

    def test_lattice_point_factors(self):
        # a factor (c, j) is the lattice point c + j/2, taken by _lgamma_at(c, j):
        # (c, 0) is the same factor as c, and it mixes with reals in one ratio
        rng = np.random.default_rng(31)
        for c, d in rng.uniform(-30.0, 30.0, (200, 2)).tolist():
            pairs = gamma_ratio(((c, 0),), ((d, 0),), 0.3, -1.0)
            assert pairs == gamma_ratio((c,), (d,), 0.3, -1.0)
        for c, j in [(0.3, 5), (-2.7 + 1e-9, -3), (4.25, -11), (0.5, 0)]:
            ref = float(mp.gamma(mp.mpf(c) + mp.mpf(j) / 2))
            assert gamma_ratio(((c, j),)) == pytest.approx(ref, rel=1e-12)
            assert gamma_ratio((2.5,), ((c, j), 1.5)) == pytest.approx(
                float(mp.gamma(2.5) / mp.gamma(1.5)) / ref, rel=1e-12)
        # near a pole the lattice point reads c's offset, not the rounded
        # c + j/2, whose rounding costs 1e-5 here
        c = -3.0 + 1e-9
        ref = float(mp.rgamma(mp.mpf(c) - 100))
        assert gamma_ratio((), ((c, -200),)) == pytest.approx(ref, rel=1e-12)

    def test_lattice_point_poles(self):
        # a denominator pole gives 0.0, a numerator pole raises, also over a pole
        assert gamma_ratio((1.5,), ((1.0, -4),)) == 0.0
        assert gamma_ratio((), ((0.5, -3), (2.0, 1))) == 0.0
        for call in (lambda: gamma_ratio(((1.0, -6),)),
                     lambda: gamma_ratio(((1.0, -6), 2.0), ((0.5, -1),))):
            with pytest.raises(PoleError):
                call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gamma_ratio((0.0,), (0.0,)),
            lambda: gamma_ratio((1.0, -2.0), (-3.0,)),
            lambda: gamma_ratio((-1.0, 1.0), (0.0,)),
        ],
        ids=["zero-over-zero", "pole-over-pole", "beta"],
    )
    def test_numerator_pole_raises_before_a_denominator_pole(self, call):
        # 0/0: the ratio has a finite limit (B(-1, 1) = -1) that the log-space
        # product cannot give, so it raises rather than return 0.0
        with pytest.raises(PoleError):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gamma_ratio((math.nan,)),
            lambda: gamma_ratio((), (-math.inf,)),
            lambda: gamma_ratio((), (math.nan,)),
            lambda: _lgamma_at(math.nan, 0),
            lambda: nonpositive_int(-math.inf),
            lambda: gamma_ratio((math.inf,), (math.inf,)),
            lambda: gamma_ratio((math.inf, 1.0), (math.inf,)),
            lambda: _lgamma_at(math.inf, 0),
            lambda: nonpositive_int(math.inf),
        ],
        ids=["ratio-nan", "ratio-minus-inf", "rgamma-nan", "gamma-nan", "minus-inf",
             "ratio-inf-over-inf", "beta-inf", "gamma-inf", "plus-inf"],
    )
    def test_non_finite_arguments_raise(self, call):
        # +inf once passed the pole test's x > 1/2 shortcut, and
        # lgamma(inf) - lgamma(inf) gave nan
        with pytest.raises(DomainError):
            call()


class TestHugeArguments:
    """math.lgamma overflows above ~2.6e305: a finite argument past that is a
    DomainError that names it, not an OverflowError."""

    @pytest.mark.parametrize(
        "call, arg",
        [
            (lambda: gamma_ratio((1e306,)), "1e+306"),
            (lambda: gamma_ratio((), (3e305,)), "3e+305"),
            (lambda: gamma_ratio((1e308, 1.0), (1e308 + 1.0,)), "1e+308"),
            (lambda: gamma_ratio((2.0,), (0.5, 1e307)), "1e+307"),
            (lambda: _lgamma_at(1e306, 3), "1e+306"),
            (lambda: _lgamma_at(0.5, 6e305), "3e+305"),
        ],
        ids=["gamma", "rgamma", "beta", "ratio-den", "lattice", "lattice-j"],
    )
    def test_domain_error_names_argument(self, call, arg):
        with pytest.raises(DomainError, match=f"^gamma argument {re.escape(arg)} is past"):
            call()

    def test_below_the_overflow(self):
        # the largest arguments log-gamma takes still give +inf and 0
        assert gamma_ratio((2.5e305,)) == math.inf
        assert gamma_ratio((), (2.5e305,)) == 0.0
        assert _lgamma_at(2.5e305, 0)[0] == math.lgamma(2.5e305)


class TestCheckPoints:
    @pytest.mark.parametrize(
        "x, bound, message",
        [
            (math.nan, 1.0, "x must lie in [-1, 1], got nan"),
            (math.inf, 1.0, "x must lie in [-1, 1], got inf"),
            (-math.inf, 1.0, "x must lie in [-1, 1], got -inf"),
            (1.5, 1.0, "x must lie in [-1, 1], got 1.5"),
            (np.float64(-1.5), 1.0, "x must lie in [-1, 1], got -1.5"),
            (2, 1.0, "x must lie in [-1, 1], got 2.0"),
            (math.nan, math.inf, "x must be finite, got nan"),
            (-math.inf, math.inf, "x must be finite, got -inf"),
            (np.float64(math.inf), math.inf, "x must be finite, got inf"),
        ],
        ids=["nan", "inf", "minus-inf", "outside", "float64", "int", "nan-unbounded",
             "minus-inf-unbounded", "float64-inf-unbounded"],
    )
    def test_one_point_message(self, x, bound, message):
        # one float that passes returns before the array path; every other
        # point gets that path's message
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sf.check_points("x", x, bound)

    @pytest.mark.parametrize("x", [1.0, -1.0, 0.0, np.float64(0.5), 1, [0.5, -1.0]])
    def test_points_in_bound_pass(self, x):
        assert sf.check_points("x", x, 1.0) is None


class TestLgammaAt:
    def test_matches_mpmath_on_a_half_lattice(self):
        # c + j/2 over both signs, including points 1e-4 and 1e-9 from poles
        for c in (0.3, 2.0 + 1e-4, 4.5 - 1e-9, 1.0 + 0.5 * math.sqrt(2.0)):
            for j in range(-400, 401):
                logabs, sign = _lgamma_at(c, j)
                ref = mp.gamma(mp.mpf(c) + mp.mpf(j) / 2)
                assert sign == (1.0 if ref > 0 else -1.0)
                assert abs(logabs - float(mp.log(abs(ref)))) <= 2e-13 * max(1.0, abs(logabs))

    def test_poles(self):
        # x = 1 + j/2 is a nonpositive integer for j = -2, -4, -6, -8
        for j in range(-8, 3):
            pole = j <= -2 and j % 2 == 0
            assert (_lgamma_at(1.0, j) == (math.inf, 1.0)) == pole, j
        assert _lgamma_at(-3.0 + 0.5 * INTEGER_TOL, 0) == (math.inf, 1.0)


class TestDigamma:
    def test_against_mpmath(self):
        rng = np.random.default_rng(41)
        xs = np.concatenate([rng.uniform(-60.0, 60.0, 600), rng.uniform(0.0, 3.0, 300)])
        xs = xs[(np.abs(xs - np.round(xs)) > 1e-3) & (xs > -60.0)]
        xs = np.concatenate([xs, [3.0, 1e-8, 1.4616321449683622]])
        for x in xs:
            ref = float(mp.digamma(mp.mpf(float(x))))
            assert abs(_digamma(float(x)) - ref) <= 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0, -7.0 + 1e-12])
    def test_pole_raises(self, x):
        with pytest.raises(PoleError):
            _digamma(x)


def _rising(y, n):
    """The rising factorial (y)_n as Gamma(y + n) / Gamma(y)."""
    return gamma_ratio((y + n,), (y,))


class TestPochhammer:
    """Rising factorials through gamma_ratio: identities that tie the sign
    and the reflection below 1/2 of different gamma factors together."""

    def test_base_cases(self):
        assert _rising(3.0, 0) == 1.0
        assert _rising(0.5, 2) == pytest.approx(0.75, rel=1e-15)
        assert _rising(-2.0, 4) == 0.0

    def test_reflection_identity(self):
        # (y)_i Gamma(1-y-i) = (-1)^i Gamma(1-y)
        rng = np.random.default_rng(11)
        for _ in range(60):
            y = rng.uniform(-4.0, 4.0)
            i = int(rng.integers(0, 7))
            if gamma_ratio((), (1.0 - y - i,)) == 0.0 or gamma_ratio((), (1.0 - y,)) == 0.0:
                continue
            lhs = _rising(y, i) * gamma_ratio((1.0 - y - i,))
            rhs = (-1.0) ** i * gamma_ratio((1.0 - y,))
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_duplication_identity(self):
        # (y/2)_j ((1+y)/2)_j = 2^(-2j) (y)_{2j}
        rng = np.random.default_rng(12)
        for _ in range(60):
            y = rng.uniform(-4.0, 4.0)
            j = int(rng.integers(0, 7))
            lhs = _rising(y / 2.0, j) * _rising((1.0 + y) / 2.0, j)
            rhs = 2.0 ** (-2 * j) * _rising(y, 2 * j)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)

    def test_shift_identity(self):
        # (y)_i (1-y)_{2j} = (1-y-i)_{2j} (y-2j)_i
        rng = np.random.default_rng(13)
        for _ in range(60):
            y = rng.uniform(-4.0, 4.0)
            i = int(rng.integers(0, 6))
            j = int(rng.integers(0, 5))
            lhs = _rising(y, i) * _rising(1.0 - y, 2 * j)
            rhs = _rising(1.0 - y - i, 2 * j) * _rising(y - 2.0 * j, i)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


def _series_oracle(a, b, c, z, terms=4000):
    """Plain term-by-term summation, independent of the evaluator's routing."""
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
    return total


class TestHyp2f1:
    def test_constant_term(self):
        for a, b, c in [(1.3, -0.2, 0.7), (5.0, 2.0, 9.0)]:
            r = hyp2f1(a, b, c, 0.0)
            assert r.value == 1.0

    def test_log_closed_form(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        r = hyp2f1(1.0, 1.0, 2.0, 0.5)
        assert r.value == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
        assert r.value == pytest.approx(_series_oracle(1.0, 1.0, 2.0, 0.5), rel=1e-14)

    def test_terminating_at_one(self):
        r = hyp2f1(-1.0, 3.0, 2.0, 1.0)
        assert r.value == pytest.approx(-0.5, abs=1e-15)
        assert r.status is HypStatus.TERMINATED

    def test_termination_detection_snaps(self):
        r = hyp2f1(-3.0 + 2e-11, 1.7, 0.9, 0.8)
        assert r.status is HypStatus.TERMINATED
        assert r.terms_used == 4

    def test_gauss_summation_status(self):
        r = hyp2f1(0.3, 0.4, 2.0, 1.0)
        assert r.status is HypStatus.GAUSS_SUMMED
        ref = gamma_ratio((2.0, 1.3), (1.7, 1.6))
        assert r.value == pytest.approx(ref, rel=1e-14)

    def test_gauss_pole_cancels_to_zero(self):
        # c - a = -1 makes the prefactor reciprocal gamma vanish while
        # c - a - b = 0.5 keeps the value finite
        r = hyp2f1(3.0, -1.5, 2.0, 1.0)
        assert r.value == 0.0
        assert r.status is HypStatus.POLE_CANCELLED_ZERO

    @pytest.mark.parametrize(
        "a, b, c", [(-150.5, 0.5, 50.0), (-180.25, 0.5, 3.0), (0.5, -200.5, 10.0)]
    )
    def test_gauss_sum_with_huge_gamma_ratios(self, a, b, c):
        # 1/Gamma(c-a) or 1/Gamma(c-b) is far outside the double range, yet
        # neither is a pole and the sum is of order one
        r = hyp2f1(a, b, c, 1.0)
        assert r.status is HypStatus.GAUSS_SUMMED
        assert r.value == pytest.approx(float(mp.hyp2f1(a, b, c, 1)), rel=1e-12)

    def test_divergence_at_one(self):
        with pytest.raises(DomainError):
            hyp2f1(1.5, 1.0, 2.0, 1.0)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            hyp2f1(0.3, 0.4, 1.2, 1.5)
        with pytest.raises(DomainError):
            hyp2f1(0.3, 0.4, 1.2, -1.0)

    @pytest.mark.parametrize(
        "args",
        [
            (math.nan, 1.0, 2.0, 0.5),
            (-math.inf, 1.0, 2.0, 0.5),
            (1.0, math.inf, 2.0, 0.5),
            (1.0, 1.0, math.nan, 0.5),
            (1.0, 1.0, 2.0, math.nan),
        ],
    )
    def test_non_finite_arguments_raise(self, args):
        with pytest.raises(DomainError):
            hyp2f1(*args)

    def test_c_pole_raises_without_termination(self):
        with pytest.raises(PoleError):
            hyp2f1(0.3, 0.4, -2.0, 0.5)

    def test_c_pole_after_termination_is_fine(self):
        # series ends (a = -1) before the c denominator reaches its zero
        r = hyp2f1(-1.0, 0.7, -2.5, 0.5)
        assert r.status is HypStatus.TERMINATED

    def test_series_cap_is_an_error(self):
        with pytest.raises(ConvergenceError):
            _series(0.3, 0.4, 0.5, 0.999999)

    @pytest.mark.parametrize(
        "a,b,c,z",
        [
            (0.3, -1.7, 1.9, 0.4),
            (0.25, 0.5, 2.3, 0.9),
            (-0.7, 1.4, 2.05, 0.97),
            (1.3, -2.6, 0.8, 0.85),
            (0.3, 0.7, 3.0, 0.9),  # integer c-a-b = 2
            (0.5, 0.5, 1.0, 0.99),  # integer c-a-b = 0
            (0.3, 0.7, 2.0, 0.93),  # integer c-a-b = 1
            (1.5, 2.5, 3.0, 0.9),  # integer c-a-b = -1
            (2.2, 2.8, 3.0, 0.85),  # integer c-a-b = -2
            (0.7, 1.1, 1.9, -0.9),
            (0.7, 1.1, 1.9, -0.3),
            (1.1, 0.2, 2.4, 0.77),
        ],
    )
    def test_against_high_precision(self, a, b, c, z):
        ref = float(mp.hyp2f1(a, b, c, z))
        got = hyp2f1(a, b, c, z).value
        assert got == pytest.approx(ref, rel=5e-13)

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize(
        "a,b", [(-0.3, 1.7), (0.4, -0.6), (-2.7, -0.45), (-4.3, 2.2), (1.3, -5.7)]
    )
    def test_log_branch_against_high_precision(self, a, b, m, monkeypatch):
        # integer c - a - b = m with z > Z_SWITCH takes the logarithmic branch
        calls = []
        log_case = sf._log_case
        monkeypatch.setattr(
            sf, "_log_case", lambda *args: calls.append(args) or log_case(*args)
        )
        for z in (0.76, 0.85, 0.93, 0.99):
            ref = float(mp.hyp2f1(a, b, mp.mpf(a) + mp.mpf(b) + m, z))
            assert hyp2f1(a, b, a + b + m, z).value == pytest.approx(ref, rel=1e-13)
        assert len(calls) == 4

    def test_quadratic_transformation(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            a = rng.uniform(0.05, 3.0)
            b = rng.uniform(0.05, 3.0)
            u = rng.uniform(-0.9, 0.9)
            lhs = hyp2f1(1.0 - a, b, 2.0 * b, u).value
            z2 = (u / (2.0 - u)) ** 2
            rhs = (1.0 - u / 2.0) ** (a - 1.0) * hyp2f1(
                (1.0 - a) / 2.0, (2.0 - a) / 2.0, b + 0.5, z2
            ).value
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_gauss_summation_vs_euler_integral(self):
        # 2F1(a,b;c;1) = Gamma(c)/(Gamma(b)Gamma(c-b)) * B(b, c-a-b), with the
        # beta factor integrated numerically instead of evaluated in closed form
        rng = np.random.default_rng(31)
        for _ in range(20):
            b = rng.uniform(0.3, 2.0)
            a = rng.uniform(-1.5, 1.2)
            c = a + b + rng.uniform(0.4, 2.5)
            _, weights = gauss_jacobi_rule(c - a - b - 1.0, b - 1.0, 80)
            quad = float(weights.sum()) * 2.0 ** (a + 1.0 - c)
            euler = quad * gamma_ratio((c,), (b, c - b))
            got = hyp2f1(a, b, c, 1.0).value
            assert got == pytest.approx(euler, rel=1e-9)


def _half_closed_form(a, c):
    """2F1(a, 1-a; c; 1/2) = 2^(1-c) sqrt(pi) Gamma(c) / (Gamma((a+c)/2)
    Gamma((c-a+1)/2)), Gauss's second summation theorem."""
    return gamma_ratio(
        (c,), ((a + c) / 2.0, (c - a + 1.0) / 2.0),
        scale_log=(1.0 - c) * sf.LN2 + 0.5 * sf.LNPI,
    )


class TestHyp2f1Half:
    def test_terminating(self):
        # 1 - a = 0 and -1: the series stops after one and two terms
        for a, c, value in ((1.0, 1.0, 1.0), (2.0, 3.0, 2.0 / 3.0)):
            assert hyp2f1(a, 1.0 - a, c, 0.5).value == pytest.approx(value, rel=1e-14)
            assert _half_closed_form(a, c) == pytest.approx(value, rel=1e-14)

    def test_matches_series(self):
        assert _half_closed_form(0.3, 1.7) == pytest.approx(
            hyp2f1(0.3, 0.7, 1.7, 0.5).value, rel=1e-12
        )

    def test_random_points(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            a = rng.uniform(-2.0, 2.0)
            c = rng.uniform(0.2, 4.0)
            assert _half_closed_form(a, c) == pytest.approx(
                hyp2f1(a, 1.0 - a, c, 0.5).value, rel=1e-10, abs=1e-12
            )


def test_thread_safety():
    args = [(0.3 + 0.01 * k, 0.7, 1.9, 0.9) for k in range(64)]
    expected = [hyp2f1(*a).value for a in args]
    got = [None] * len(args)

    def work(start):
        for k in range(start, len(args), 8):
            got[k] = hyp2f1(*args[k]).value

    threads = [threading.Thread(target=work, args=(start,)) for start in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads)
    assert got == expected
