"""Scalar special-function kernels: values, identities, and branch logic."""

import math
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
    _lgamma_1d,
    _series,
    beta,
    gamma,
    gamma_ratio,
    gamma_sign,
    gamma_sign_array,
    hyp2f1,
    hyp2f1_half,
    log_gamma,
    nonpositive_int,
    nonpositive_int_mask,
    pochhammer,
    rgamma,
)

mp.mp.dps = 40


class TestGammaFamily:
    def test_log_gamma_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)

    def test_log_gamma_pole(self):
        for x in (0.0, -3.0, -7.0 + 1e-12):
            with pytest.raises(PoleError):
                log_gamma(x)

    def test_gamma_sign_alternates(self):
        assert gamma_sign(2.3) == 1.0
        assert gamma_sign(-0.5) == -1.0
        assert gamma_sign(-1.5) == 1.0
        assert gamma_sign(-2.5) == -1.0

    def test_array_pole_rule_matches_scalar(self):
        pts = [0.5] + [
            n + sgn * k * INTEGER_TOL
            for n in (0.0, -1.0, -7.0)
            for k in (0.5, 2.0)
            for sgn in (1.0, -1.0)
        ]
        mask = nonpositive_int_mask(np.array(pts))
        signs = gamma_sign_array(np.array(pts))
        for x, pole, sign in zip(pts, mask, signs):
            assert bool(pole) == (nonpositive_int(x) is not None), x
            assert float(sign) == gamma_sign(x), x
        assert mask.tolist() == [False] + [True, True, False, False] * 3

    def test_rgamma_total(self):
        assert rgamma(0.0) == 0.0
        assert rgamma(-3.0) == 0.0
        assert rgamma(-3.0 + 5e-11) == 0.0
        assert rgamma(2.0) == pytest.approx(1.0, rel=1e-15)

    def test_rgamma_inverts_gamma(self):
        for x in (0.1, 0.5, 1.5, 7.3, -0.5, -4.2):
            assert rgamma(x) * gamma(x) == pytest.approx(1.0, rel=1e-13)

    def test_duplication_formula(self):
        rng = np.random.default_rng(7)
        for c in rng.uniform(0.01, 10.0, size=100):
            lhs = gamma(2.0 * c)
            rhs = gamma(c) * gamma(c + 0.5) * 2.0 ** (2.0 * c - 1.0) / math.sqrt(math.pi)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_beta(self):
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_past_double_range_is_infinite(self):
        # Gamma(200) ~ 4e372 and 1/Gamma(-180.5) ~ -1e330 overflow a double
        assert gamma(200.0) == math.inf
        assert rgamma(-180.5) == -math.inf

    def test_gamma_ratio_denominator_pole_is_zero(self):
        assert gamma_ratio((1.0,), (-2.0,)) == 0.0

    def test_gamma_ratio_numerator_pole_raises(self):
        with pytest.raises(PoleError):
            gamma_ratio((-1.0,), (2.0,))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gamma_ratio((math.nan,)),
            lambda: gamma_ratio((), (-math.inf,)),
            lambda: rgamma(math.nan),
            lambda: log_gamma(math.nan),
            lambda: nonpositive_int(-math.inf),
        ],
        ids=["ratio-nan", "ratio-minus-inf", "rgamma-nan", "log-gamma-nan", "minus-inf"],
    )
    def test_non_finite_arguments_raise(self, call):
        with pytest.raises(DomainError):
            call()


class TestLgamma1d:
    def test_matches_mpmath_on_a_half_lattice(self):
        # c + j/2 over both signs, including points 1e-4 and 1e-9 from poles
        for c in (0.3, 2.0 + 1e-4, 4.5 - 1e-9, 1.0 + 0.5 * math.sqrt(2.0)):
            j = np.arange(-400, 401)
            logabs, sign, pole = _lgamma_1d(c, j)
            for k in range(j.size):
                x = mp.mpf(c) + mp.mpf(int(j[k])) / 2
                assert not pole[k]
                ref = mp.gamma(x)
                assert sign[k] == (1.0 if ref > 0 else -1.0)
                assert abs(logabs[k] - float(mp.log(abs(ref)))) <= 2e-13 * max(
                    1.0, abs(logabs[k])
                )

    def test_poles(self):
        j = np.arange(-8, 3)
        logabs, sign, pole = _lgamma_1d(1.0, j)
        # x = 1 + j/2 is a nonpositive integer for j = -2, -4, -6, -8
        assert pole.tolist() == [k <= -2 and k % 2 == 0 for k in j.tolist()]
        assert np.all(logabs[pole] == 0.0) and np.all(sign[pole] == 1.0)


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


class TestPochhammer:
    def test_base_cases(self):
        assert pochhammer(3.0, 0) == 1.0
        assert pochhammer(0.5, 2) == pytest.approx(0.75, rel=1e-15)
        assert pochhammer(-2.0, 4) == 0.0

    def test_reflection_identity(self):
        # (y)_i Gamma(1-y-i) = (-1)^i Gamma(1-y)
        rng = np.random.default_rng(11)
        for _ in range(60):
            y = rng.uniform(-4.0, 4.0)
            i = int(rng.integers(0, 7))
            if rgamma(1.0 - y - i) == 0.0 or rgamma(1.0 - y) == 0.0:
                continue
            lhs = pochhammer(y, i) * gamma(1.0 - y - i)
            rhs = (-1.0) ** i * gamma(1.0 - y)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_duplication_identity(self):
        # (y/2)_j ((1+y)/2)_j = 2^(-2j) (y)_{2j}
        rng = np.random.default_rng(12)
        for _ in range(60):
            y = rng.uniform(-4.0, 4.0)
            j = int(rng.integers(0, 7))
            lhs = pochhammer(y / 2.0, j) * pochhammer((1.0 + y) / 2.0, j)
            rhs = 2.0 ** (-2 * j) * pochhammer(y, 2 * j)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)

    def test_shift_identity(self):
        # (y)_i (1-y)_{2j} = (1-y-i)_{2j} (y-2j)_i
        rng = np.random.default_rng(13)
        for _ in range(60):
            y = rng.uniform(-4.0, 4.0)
            i = int(rng.integers(0, 6))
            j = int(rng.integers(0, 5))
            lhs = pochhammer(y, i) * pochhammer(1.0 - y, 2 * j)
            rhs = pochhammer(1.0 - y - i, 2 * j) * pochhammer(y - 2.0 * j, i)
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
            rule = gauss_jacobi_rule(c - a - b - 1.0, b - 1.0, 80)
            quad = float(rule.weights.sum()) * 2.0 ** (a + 1.0 - c)
            euler = quad * gamma_ratio((c,), (b, c - b))
            got = hyp2f1(a, b, c, 1.0).value
            assert got == pytest.approx(euler, rel=1e-9)


class TestHyp2f1Half:
    def test_terminating(self):
        assert hyp2f1_half(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert hyp2f1_half(2.0, 3.0) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_matches_series(self):
        assert hyp2f1_half(0.3, 1.7) == pytest.approx(
            hyp2f1(0.3, 0.7, 1.7, 0.5).value, rel=1e-12
        )

    def test_random_points(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            a = rng.uniform(-2.0, 2.0)
            c = rng.uniform(0.2, 4.0)
            assert hyp2f1_half(a, c) == pytest.approx(
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
