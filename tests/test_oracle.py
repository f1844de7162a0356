"""Quadrature oracle: exactness, split logic, refinement, and honesty."""

import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from gegenexp import oracle as orc
from gegenexp import verify as vf
from gegenexp.expansion import (
    ExpansionParams,
    dotsenko_fateev,
    hermite_kernel_integral,
    plus_base_integral,
    projection_integral,
    shear_averaged_projection,
    sheared_integral,
    warnaar,
    weighted_power_mass,
)
from gegenexp.oracle import (
    KERNELS,
    OracleConvergenceError,
    QuadratureSpec,
    convolution_profile,
    integrate_hermite_2d,
    refine_until,
    regularized_inverse_square,
)
from gegenexp.orthopoly import u_prefactor
from gegenexp.specfun import DomainError, gamma_ratio


class TestSpecValidation:
    def test_kernel_name(self):
        with pytest.raises(DomainError):
            QuadratureSpec(kernel="sqrt")

    def test_integrability_guards(self):
        with pytest.raises(DomainError):
            QuadratureSpec(kernel="abs", kernel_exponent=-1.0)
        # the weight exponent lam - 1/2 must exceed -1
        for pair in ((-0.7, 0.5), (-0.5, 1.0), (1.0, -0.5)):
            with pytest.raises(DomainError, match="Gegenbauer parameter"):
                QuadratureSpec(kernel="abs", gegenbauer=pair)

    def test_nan_exponents(self):
        with pytest.raises(DomainError):
            QuadratureSpec(kernel="abs", kernel_exponent=math.nan)
        with pytest.raises(DomainError):
            QuadratureSpec(kernel="abs", gegenbauer=(0.5, math.nan))

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_exponents(self, value):
        with pytest.raises(DomainError, match="finite"):
            QuadratureSpec(kernel="abs", kernel_exponent=value)
        with pytest.raises(DomainError, match="finite"):
            QuadratureSpec(kernel="abs", gegenbauer=(value, 0.5))

    @pytest.mark.parametrize("n", [-1, 1.0, 2.5, None])
    def test_degree_is_a_nonnegative_integer(self, n):
        for degrees in ((n, 0), (0, n)):
            with pytest.raises(DomainError, match="degree"):
                QuadratureSpec(kernel="abs", gegenbauer=(1.0, 1.0), degrees=degrees)

    def test_positive_degree_needs_nonzero_parameter(self):
        # C_n^0 vanishes for n > 0, and these specs were refused; at a
        # parameter 0 the factor is now T_n under the Chebyshev weight.
        # (s - t)^2 against T_2(s) and the Legendre weight in t is
        # int T_2(s) s^2 (1-s^2)^(-1/2) ds * 2 = pi / 4 * 2
        spec = QuadratureSpec(kernel="abs", kernel_exponent=2.0, x_shear=1.0,
                              gegenbauer=(0.0, 0.5), degrees=(2, 0))
        assert refine_until(spec, 1e-12).value == pytest.approx(math.pi / 2.0, rel=1e-12)
        # (s - t) against (1-s^2)^(1/2) and T_1(t): -(pi / 2) int t^2 (1-t^2)^(-1/2) dt
        spec = QuadratureSpec(kernel="abssgn", kernel_exponent=1.0, x_shear=1.0,
                              gegenbauer=(1.0, 0.0), degrees=(0, 1))
        assert refine_until(spec, 1e-12).value == pytest.approx(-math.pi**2 / 4.0, rel=1e-12)
        spec = QuadratureSpec(kernel="abs", gegenbauer=(0.0, 0.5))
        assert refine_until(spec, 1e-10).value == pytest.approx(2.0 * math.pi, rel=1e-10)

    @pytest.mark.parametrize(
        "axis",
        [(0.0, math.inf), (math.nan, 0.0), (-math.inf, 0.5), (-1.0, 0.5), (0.5, -1.2), (0.5,)],
    )
    def test_extra_axis_entries(self, axis, monkeypatch):
        # checked when the spec is made, not when a rung first evaluates it
        calls = []
        monkeypatch.setattr(orc, "_rung", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="extra_axis"):
            refine_until(QuadratureSpec(kernel="abs", kernel_exponent=1.0, extra_axis=axis), 1e-6)
        assert calls == []

    @pytest.mark.parametrize("x", [0.4, 1.0])
    def test_extra_axis_takes_no_shear(self, x):
        # the extra axis sets the shear, so a set x_shear would be ignored
        with pytest.raises(DomainError, match="extra_axis"):
            QuadratureSpec(kernel="abs", extra_axis=(1.0, 0.0), x_shear=x)

    @pytest.mark.parametrize("x", [1.5, -2.0, math.nan, math.inf])
    def test_shear_outside_unit_interval(self, x):
        # past |x| = 1 the split no longer lies inside [-1, 1]
        with pytest.raises(DomainError, match="x_shear"):
            QuadratureSpec(kernel="plus", kernel_exponent=1.0, x_shear=x)


class TestBasics:
    def test_arcsine_mass(self):
        order, levels = orc._ladder(0)
        _, w = orc._interval_rule(-1.0, 1.0, -0.5, -0.5, levels, order)
        assert w.sum() == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("a0,a1", [(0.4, -0.3), (1.7, 0.0)])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_asymmetric_rule_moments(self, a0, a1, level):
        # int_0^1 u^a0 (1-u)^a1 u^j du = B(a0 + 1 + j, a1 + 1): a panel the
        # rule misplaced or misscaled, on either side, would break these
        order, levels = orc._ladder(level)
        u, w = orc._interval_rule(0.0, 1.0, a0, a1, levels, order)
        assert w.sum() == pytest.approx(gamma_ratio((a0 + 1.0, a1 + 1.0), (a0 + a1 + 2.0,)),
                                        rel=1e-13)
        assert w @ u == pytest.approx(gamma_ratio((a0 + 2.0, a1 + 1.0), (a0 + a1 + 3.0,)),
                                      rel=1e-13)

    def test_square_area(self):
        r = refine_until(QuadratureSpec(kernel="abs"), 1e-8)
        assert r.value == pytest.approx(4.0, abs=1e-11)

    def test_plus_part_of_linear_kernel(self):
        r = refine_until(
            QuadratureSpec(kernel="plus", kernel_exponent=1.0, x_shear=0.0),
            1e-8,
        )
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_monomial_factors(self):
        # at x = 0 the quadratic kernel is s^2: int s^2 dt ds = (2/3) * 2
        spec = QuadratureSpec(kernel="abs", kernel_exponent=2.0)
        assert refine_until(spec, 1e-8).value == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_weighted_mass_matches_closed_form(self):
        for lam, mu, nu in [(0.5, 0.5, 1.0), (1.3, 0.7, 0.6), (0.3, 2.1, 1.7)]:
            spec = QuadratureSpec(
                kernel="abs",
                kernel_exponent=2 * nu,
                x_shear=1.0,
                gegenbauer=(lam, mu),
            )
            r = refine_until(spec, 1e-10)
            assert r.value == pytest.approx(
                weighted_power_mass(lam, mu, nu), rel=1e-10
            )


class TestSplitLogic:
    def _spec(self, kind, seedling):
        lam, mu, nu, x, ell, m = seedling
        return QuadratureSpec(
            kernel=kind,
            kernel_exponent=2 * nu,
            x_shear=x,
            gegenbauer=(lam, mu),
            degrees=(ell, m),
        )

    def test_plus_plus_minus_is_abs(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            seedling = (
                float(rng.uniform(0.3, 2.0)),
                float(rng.uniform(0.3, 2.0)),
                float(rng.uniform(0.3, 2.0)),
                float(rng.uniform(-1.0, 1.0)),
                int(rng.integers(0, 4)),
                int(rng.integers(0, 4)),
            )
            plus = refine_until(self._spec("plus", seedling), 1e-10).value
            minus = refine_until(self._spec("minus", seedling), 1e-10).value
            absval = refine_until(self._spec("abs", seedling), 1e-10).value
            assert plus + minus == pytest.approx(absval, abs=1e-10)

    def test_shear_reflection_symmetry(self):
        # t -> -t sends the shear x to -x and scales by the t-factor parity
        for m in (2, 3):
            seed_pos = (0.8, 1.1, 0.9, 0.37, 1, m)
            seed_neg = (0.8, 1.1, 0.9, -0.37, 1, m)
            a = refine_until(self._spec("plus", seed_pos), 1e-10).value
            b = refine_until(self._spec("plus", seed_neg), 1e-10).value
            assert a == pytest.approx((-1.0) ** m * b, rel=1e-10, abs=1e-12)


class TestRefinement:
    def test_smooth_converges_immediately(self):
        # at x = 0 the quartic kernel is s^4, which rung 0 already integrates
        spec = QuadratureSpec(kernel="abs", kernel_exponent=4.0)
        r = refine_until(spec, 1e-12)
        assert r.level == 1 and r.est_error <= 1e-12

    def test_bad_target(self):
        with pytest.raises(DomainError):
            refine_until(QuadratureSpec(kernel="abs"), 0.0)

    @pytest.mark.parametrize("target", [math.nan, -1e-8])
    def test_usage_error_evaluates_nothing(self, target, monkeypatch):
        calls = []
        monkeypatch.setattr(orc, "_eval_2d", lambda *args: calls.append(args))
        with pytest.raises(DomainError):
            refine_until(QuadratureSpec(kernel="abs"), target)
        assert calls == []

    def test_driver_stops_at_first_agreeing_rung(self):
        # rung k returns 2^-k: consecutive rungs differ by 2^-k
        r = orc._refine(lambda k: (2.0**-k, 10, 0.0), 0.3, 5)
        assert (r.value, r.est_error, r.evaluations, r.level) == (0.25, 0.25, 30, 2)
        with pytest.raises(OracleConvergenceError) as info:
            orc._refine(lambda k: (2.0**-k, 10, 0.0), 0.01, 3)
        assert (info.value.value, info.value.est_error) == (0.125, 0.125)
        # rung 2 lies 0.25 from rung 1: a floor between that and the target
        # becomes the estimate, and one at or above the target raises with
        # the value and that estimate
        r = orc._refine(lambda k: (2.0**-k, 10, 0.28), 0.3, 5)
        assert (r.value, r.est_error, r.evaluations, r.level) == (0.25, 0.28, 30, 2)
        for floor in (0.3, 0.5):
            with pytest.raises(OracleConvergenceError, match="noise floor") as info:
                orc._refine(lambda k: (2.0**-k, 10, floor), 0.3, 5)
            assert (info.value.value, info.value.est_error) == (0.25, floor)
        # rungs that agree exactly certify no more than 4e-16 |value|
        r = orc._refine(lambda k: (1e3, 10, 1e-20), 1e-9, 5)
        assert (r.est_error, r.level) == (4e-16 * 1e3, 1)

    def test_estimate_honesty(self):
        # true error (vs closed form) at most 10x the reported estimate in
        # at least 95% of a small calibration corpus
        rng = np.random.default_rng(41)
        ok = 0
        total = 20
        for _ in range(total):
            lam = float(rng.uniform(0.3, 2.2))
            mu = float(rng.uniform(0.3, 2.2))
            nu = float(rng.uniform(0.2, 2.5))
            spec = QuadratureSpec(
                kernel="abs",
                kernel_exponent=2 * nu,
                x_shear=1.0,
                gegenbauer=(lam, mu),
            )
            r = refine_until(spec, 1e-9)
            truth = weighted_power_mass(lam, mu, nu)
            if abs(r.value - truth) <= 10.0 * max(r.est_error, 1e-16 * abs(truth)):
                ok += 1
        assert ok >= 0.95 * total


    @pytest.mark.parametrize("x", [0.9999, -0.9999, 1.0 - 1e-7])
    def test_near_corner_shears(self, x):
        # the split line nearly meets a corner of the square: the mesh takes
        # 14 and 24 geometric layers toward the corners, and rung 1 meets
        # the closed form
        for a, b, c in [(0.7, 1.3, 1.1), (2.1, 0.4, 0.8), (0.35, 0.5, 0.65)]:
            spec = QuadratureSpec(
                kernel="plus",
                kernel_exponent=2.0 * c - 1.0,
                x_shear=x,
                gegenbauer=(a - 0.5, b - 0.5),
            )
            r = refine_until(spec, 1e-9)
            assert r.value == pytest.approx(plus_base_integral(a, b, c, x), rel=1e-9)
            assert r.level == 1

    def test_default_main_case_starts_coarse(self, monkeypatch):
        # a default-seed main case converges on the ladder's first rungs
        results = []
        real = orc.refine_until

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(orc, "refine_until", recording)
        report = vf.run_suite("main", cases=1)
        assert report.overall_pass
        assert len(results) == 1
        assert results[0].evaluations < 100_000


class TestHermite2D:
    def test_separable_case(self):
        r = integrate_hermite_2d(1.0, 0.0, 0, 0, 1e-12)
        assert r.value == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_odd_symmetry_vanishes(self):
        r = integrate_hermite_2d(0.8, 0.0, 1, 0, 1e-12)
        assert abs(r.value) < 1e-10

    def test_diagonal_case(self):
        r = integrate_hermite_2d(0.5, 1.0, 0, 0, 1e-11)
        assert r.value == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-10)

    def test_domain(self):
        for nu, x in [(0.0, 0.5), (math.nan, 0.5), (1.0, math.nan)]:
            with pytest.raises(DomainError):
                integrate_hermite_2d(nu, x, 0, 0, 1e-8)

    def test_degrees_are_checked_by_name_before_any_rule(self, monkeypatch):
        # refused under its own name, as the closed form refuses it, before
        # any rule is built or hermite sees it as n
        def no_rule(*args):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(orc, "generalized_hermite_rule", no_rule)
        monkeypatch.setattr(orc, "gauss_hermite_rule", no_rule)
        for ell, m, name in ((-1, 0, "ell"), (0, -1, "m"), (2.5, 0, "ell"), (0, 2.5, "m")):
            with pytest.raises(DomainError, match=f"^{name} must be a nonnegative integer"):
                integrate_hermite_2d(1.0, 0.5, ell, m, 1e-6)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_shear_is_a_domain_error(self):
        # r^(2 nu) past the double range: neither a numpy warning, a NaN
        # value nor Python's OverflowError, but the closed form's DomainError
        for nu, x in ((1.0, 1e200), (1.0, -1.7e308), (300.0, 100.0)):
            with pytest.raises(DomainError, match="^value overflows at"):
                integrate_hermite_2d(nu, x, 0, 0, 1e-6)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_degrees_are_a_domain_error(self):
        # the recurrences pass the double range and their differences turn
        # to NaN: the closed form's DomainError at the same point, with no
        # numpy warning, rather than an OracleConvergenceError carrying NaN
        with pytest.raises(DomainError, match="^value overflows at"):
            hermite_kernel_integral(1.3, 300, 300, 0.5)
        with pytest.raises(DomainError, match="^value overflows at"):
            integrate_hermite_2d(1.3, 0.5, 300, 300, 1e-6)

    def test_every_rung_is_exact(self):
        # rung k takes n + k nodes per axis, n = (ell + m) // 2 + 1, and is
        # exact, so refinement stops at rung 1; at ell = m = 0 rung 0 is the
        # rules' masses, sqrt(pi) Gamma(nu + 1/2) r^(2 nu)
        r = integrate_hermite_2d(0.8, 0.6, 3, 1, 1e-9)
        assert (r.level, r.evaluations) == (1, 3 * 3 + 4 * 4)
        r = integrate_hermite_2d(1.3, 1.0, 0, 0, 1e-9)
        assert (r.level, r.evaluations) == (1, 1 + 2 * 2)
        assert r.value == pytest.approx(2.0**1.3 * math.sqrt(math.pi) * math.gamma(1.8), rel=1e-14)

    @staticmethod
    @mp.workdps(40)
    def _reference(nu, ell, m, x):
        """The integral at 40 digits, ell + m even: (-nu)_h (-1)^((ell-m)/2)
        2^(ell+m) sqrt(pi) Gamma(nu+1/2) (x^2+1)^(nu-h) x^m, h = (ell+m)/2."""
        nu, x, h = mp.mpf(nu), mp.mpf(x), (ell + m) // 2
        return float(mp.rf(-nu, h) * (-1) ** ((ell - m) // 2) * mp.mpf(2) ** (ell + m)
                     * mp.sqrt(mp.pi) * mp.gamma(nu + 0.5) * (x * x + 1) ** (nu - h) * x**m)

    @pytest.mark.parametrize("top", [7, 12])
    def test_estimate_covers_the_error(self, top):
        # 200 draws, nu in (0.4, 2.5), |x| <= 4, ell, m <= top with ell + m
        # even, at target 1e-6 (1 + |value|): each result lies within its
        # est_error, or the call raises where the terms dwarf the value and
        # the rounding floor exceeds the target; at top 7 no draw raises
        rng = np.random.default_rng(2031 + top)
        raised = 0
        for _ in range(200):
            nu, x = rng.uniform(0.4, 2.5), rng.uniform(-4.0, 4.0)
            ell, m = (int(k) for k in rng.integers(0, top + 1, 2))
            if (ell + m) % 2:
                m = m - 1 if m else 1
            ref = self._reference(nu, ell, m, x)
            try:
                r = integrate_hermite_2d(nu, x, ell, m, 1e-6 * (1.0 + abs(ref)))
            except OracleConvergenceError:
                raised += 1
                continue
            assert abs(r.value - ref) <= r.est_error, (nu, x, ell, m)
        assert raised == 0 or top > 7


class TestTriangles:
    def test_halves_sum_to_full(self):
        lam, mu, nu = 0.9, 1.3, 0.7
        # at x = 1 the minus kernel is the half s < t and plus the half t < s
        common = dict(
            kernel_exponent=2 * nu,
            x_shear=1.0,
            gegenbauer=(lam, mu),
        )
        lower = refine_until(QuadratureSpec(kernel="minus", **common), 1e-10).value
        upper = refine_until(QuadratureSpec(kernel="plus", **common), 1e-10).value
        assert lower + upper == pytest.approx(
            weighted_power_mass(lam, mu, nu), rel=1e-10
        )


#: (lam, mu, nu, ell, m) at unit shear: lam or mu at 0 or negative, and
#: nu - (ell+m)/2 and lam + nu + (ell-m)/2 off the integers, so the closed
#: form's 2F1 at z = 1 is a Gauss sum, not a terminating one
UNIT_CASES = [
    (0.0, 0.7, 1.23, 2, 3),
    (-0.4, 0.0, 0.37, 5, 4),
    (1.3, -0.4, 2.83, 0, 5),
    (-0.25, 2.5, 0.61, 5, 5),
    (0.0, 0.0, 1.87, 1, 0),
    (-0.4, -0.3, 0.1, 1, 2),
]


class TestUnitShear:
    """x = +-1, where the split line runs into two corners of the square:
    _mesh takes no layers there, and its tip folds the corners' powers."""

    @pytest.mark.parametrize("x", [1.0, -1.0])
    @pytest.mark.parametrize("kind", KERNELS)
    @pytest.mark.parametrize("lam,mu,nu,ell,m", UNIT_CASES)
    def test_sheared_closed_form(self, lam, mu, nu, ell, m, kind, x):
        for z in (nu - (ell + m) / 2.0, lam + nu + (ell - m) / 2.0):
            assert abs(z - round(z)) > 0.01
        spec = QuadratureSpec(kind, 2.0 * nu, x, (lam, mu), (ell, m))
        truth = sheared_integral(kind, lam, mu, nu, ell, m, x) / (
            u_prefactor(lam, ell) * u_prefactor(mu, m)
        )
        r = refine_until(spec, 1e-10)
        assert abs(r.value - truth) <= 1e-12 * weighted_power_mass(lam, mu, nu)

    @pytest.mark.parametrize("eps", [0, 1])
    @pytest.mark.parametrize(
        "lam,mu,nu", [(0.0, 0.7, 1.5), (0.0, 0.0, 1.0), (1.3, 0.0, 0.35), (2.5, 0.2, 2.0)]
    )
    def test_projection_closed_form(self, lam, mu, nu, eps):
        # odd ell + m + eps vanish: the minus half is the plus half's mirror
        for ell, m in [(0, 0), (1, 0), (2, 3), (5, 4), (4, 4), (5, 5)]:
            truth = projection_integral(ExpansionParams(lam, mu, nu, eps), ell, m)
            spec = QuadratureSpec(("abs", "abssgn")[eps], 2.0 * nu, 1.0, (lam, mu), (ell, m))
            r = refine_until(spec, 1e-10)
            assert abs(r.value - truth) <= 1e-12 * weighted_power_mass(lam, mu, nu)

    @pytest.mark.parametrize("kind", KERNELS)
    def test_unit_shear_meets_the_layered_mesh(self, kind):
        # the integral is continuous in the shear, and at 1 - 1e-9 the mesh
        # takes it on 30 layers where at 1 the tip folds the corners; a
        # corner exponent of 2.6 and 0.5 keeps the shear step's own change
        # near 1e-9 of the value
        for lam, mu, p in [(1.2, 0.7, 1.4), (-0.4, 0.6, 0.3)]:
            unit, near = (
                refine_until(QuadratureSpec(kind, p, x, (lam, mu), (2, 1)), 1e-10).value
                for x in (1.0, 1.0 - 1e-9)
            )
            plus = refine_until(QuadratureSpec("plus", p, 1.0, (lam, mu), (2, 1)), 1e-10)
            assert abs(unit - near) <= 1e-8 * abs(plus.value)

    @pytest.mark.parametrize(
        "lam,mu,p,x",
        [(0.3, 0.2, -0.5, 1.0 - d) for d in (1e-3, 1e-5, 1e-7, 1e-9)]
        + [(-0.4, 0.6, 0.3, 1.0 - 1e-9)],
    )
    def test_near_corner_stops_at_rung_one(self, lam, mu, p, x):
        # the split line passes 1 - x from two corners; the mesh's layers
        # toward them keep every rule exponential, so even 1 - 1e-9 needs
        # no rung past the first
        r = refine_until(QuadratureSpec("plus", p, x, (lam, mu), (2, 1)), 1e-10)
        assert r.level <= 1

    @pytest.mark.parametrize("lam,mu", [(0.2, 0.3), (0.15, 0.35)])
    def test_warnaar_halves_stop_at_rung_one(self, lam, mu):
        # the warnaar suite's triangles at its oracle target, on the tip's
        # four pieces, which fold both corners' powers
        for kernel in ("minus", "plus"):
            r = refine_until(QuadratureSpec(kernel, -(lam + mu), 1.0, (mu, lam)), 1e-8)
            assert r.level == 1
            assert r.evaluations == 4 * (8**2 + 11**2)  # four pieces per rung
        assert vf.warnaar_left_side(lam, mu, 1e-8) == pytest.approx(warnaar(lam, mu), abs=1e-13)

    @pytest.mark.parametrize("x", [1.0, -1.0])
    @pytest.mark.parametrize("lam,mu,p", [(-0.4, -0.4, -0.9), (-0.25, -0.25, -0.5)])
    def test_divergent_corner_raises(self, lam, mu, p, x):
        # 1 + p + ws + wt <= -1: the integral diverges at the corner, where
        # the tip's Duffy pieces cannot fold that exponent, so the spec is
        # refused before any rung runs
        for kernel in KERNELS:
            with pytest.raises(DomainError, match="corner exponent"):
                refine_until(QuadratureSpec(kernel, p, x, (lam, mu)), 1e-8)


class TestRegularizedKernel:
    def test_profile_even_and_compact(self):
        g, evals = convolution_profile(
            0.8, 0.9, np.array([0.31, -0.31, 2.3, -2.0]), orc._ladder(2)
        )
        assert g[0] == g[1] and g[0] > 0.0
        assert g[2] == 0.0 and g[3] == 0.0
        # _ladder(2) = (order 14, 16 grading levels): the two rows at |u| =
        # 0.31 take the 16-level v rule, 2 * 17 * 14 = 476 nodes, and the two
        # at |u| >= 2/3 the one-level rule, 2 * 14 = 28 nodes
        assert evals == 2 * 476 + 2 * 28 == 1008

    @pytest.mark.parametrize("lam,mu", [(0.9, 2.0), (2.0, 0.9), (1.45, 1.45), (2.0, 2.0)])
    def test_profile_is_the_power_form(self, lam, mu):
        # one exp of summed logs against the two powers on the rule the row
        # takes, at u = 0, at the smallest and the largest node of df's
        # graded u rule: each node rounds by about (1 + |exp_s log(a + hv)| +
        # |exp_t log(2 - hv)|) eps, and both sums then round alike
        exp_s, exp_t = lam - 0.5, mu - 0.5
        order, levels = size = orc._ladder(3)
        u = orc._interval_rule(0.0, 2.0, 0.0, 0.0, 15, order)[0]
        eps = np.finfo(float).eps
        for a in (0.0, u.min(), u.max()):
            depth = 0 if 3.0 * a >= 2.0 else levels
            v, wv = orc._interval_rule(0.0, 1.0, exp_t, exp_s, depth, order)
            (g,), _ = convolution_profile(exp_s, exp_t, [a], size)
            hv = (2.0 - a) * v
            f = (a + hv) ** exp_s * (2.0 - hv) ** exp_t
            scale = (2.0 - a) ** (1.0 + exp_s + exp_t)
            assert abs(g - scale * (f @ wv)) <= 8.0 * eps * scale * (np.abs(wv) @ np.abs(f)), a

    @pytest.mark.parametrize("lam,mu", [(0.9, 2.0), (2.0, 0.9), (1.45, 1.45), (-0.3, 1.6)])
    def test_far_rows_match_the_deep_rule(self, lam, mu):
        # a row with 3a >= 2 takes the one-level v rule, whose end panels,
        # 1/2 wide, lie a/h >= 1/2 from the factors' zeros at v = -a/h and
        # 1 + a/h: on df's u nodes of rungs 0 and 1 it matches the two powers
        # on the levels-deep rule within the rounding of both sums, each
        # within 8 eps as in test_profile_is_the_power_form (measured 5.7)
        exp_s, exp_t = lam - 0.5, mu - 0.5
        eps = np.finfo(float).eps
        for level in (0, 1):
            order, levels = size = orc._ladder(level + 2)
            u = orc._interval_rule(0.0, 2.0, 0.0, 0.0, 13 + 2 * level, order)[0]
            u = u[3.0 * u >= 2.0]
            g, evals = convolution_profile(exp_s, exp_t, u, size)
            assert evals == u.size * 2 * order
            v, wv = orc._interval_rule(0.0, 1.0, exp_t, exp_s, levels, order)
            hv = (2.0 - u[:, None]) * v
            f = (u[:, None] + hv) ** exp_s * (2.0 - hv) ** exp_t
            scale = (2.0 - u) ** (1.0 + exp_s + exp_t)
            bound = 16.0 * eps * scale * (np.abs(f) @ np.abs(wv))
            assert np.all(np.abs(g - scale * (f @ wv)) <= bound)

    @pytest.mark.parametrize("ea,eb", [(1.5, 0.4), (0.4, 1.5), (-0.8, 1.1), (0.95, 0.95)])
    @pytest.mark.parametrize("order", [14, 17])
    def test_one_level_rule_moments(self, ea, eb, order):
        # the far rows' rule: two panels of width 1/2, each folding its own
        # end's exponent, the other end's factor absorbed, 1/2 away
        v, w = orc._interval_rule(0.0, 1.0, ea, eb, 0, order)
        assert v.size == 2 * order
        for k in range(9):
            exact = gamma_ratio((ea + 1.0 + k, eb + 1.0), (ea + eb + 2.0 + k,))
            assert w @ v**k == pytest.approx(exact, rel=1e-13), k

    def test_matches_continuation_closed_form(self):
        for lam, mu in [(1.3, 1.4), (2.0, 0.8)]:
            r = regularized_inverse_square(lam, mu, 1e-6)
            ref = dotsenko_fateev(lam, mu)
            assert r.value == pytest.approx(ref, rel=1e-5)

    def test_domain_guard(self):
        # lam + mu > 1 is refused with the closed form's own message
        for lam, mu in [(0.7, 0.2), (0.5, 0.5)]:
            with pytest.raises(DomainError, match=r"^requires lam \+ mu > 1$"):
                regularized_inverse_square(lam, mu, 1e-6)
            with pytest.raises(DomainError, match=r"^requires lam \+ mu > 1$"):
                dotsenko_fateev(lam, mu)
        # each parameter is checked before any rule is built, under its own name
        for lam, mu, name in [
            (-1.0, 2.5, "lam"),
            (2.5, -0.7, "mu"),
            (math.inf, 1.0, "lam"),
            (math.nan, 1.0, "lam"),
        ]:
            with pytest.raises(DomainError, match=f"^{name} must be finite and exceed -0.5"):
                regularized_inverse_square(lam, mu, 1e-4)

    def test_evaluation_counts(self):
        # Rows times v-width per rung, the near rows (3|u| < 2, and u = 0) on
        # the levels-deep rule, the far rows on the one-level rule.  Rung 0:
        # _ladder(2) = (14, 16), u on 13 levels each way, 2 * 14 * 14 = 392
        # nodes, 187 of them near; widths 2 * 17 * 14 = 476 and 2 * 14 = 28.
        # Rung 1: _ladder(3) = (17, 21), u on 15 levels, 2 * 16 * 17 = 544
        # nodes, 262 near; widths 2 * 22 * 17 = 748 and 2 * 17 = 34.
        # 188 * 476 + 205 * 28 + 263 * 748 + 282 * 34 = 301_540.
        r = regularized_inverse_square(1.3, 1.4, 1e-6)
        assert r.level == 1
        assert r.evaluations == 301_540

    def test_estimate_covers_error_over_draw_range(self):
        # consecutive rungs share the G(u) - G(0) rounding noise, so their
        # difference alone understates the error; the noise floor covers it.
        # At (0.9, 0.9) that floor, 2.9e-6, is above the target: the call
        # raises, and the estimate it carries covers the error
        raised = []
        for lam, mu in itertools.product(np.linspace(0.9, 2.0, 6), repeat=2):
            try:
                r = regularized_inverse_square(lam, mu, 1e-6)
            except OracleConvergenceError as exc:
                raised.append((lam, mu))
                r = exc
            ref = dotsenko_fateev(lam, mu)
            assert abs(r.value - ref) <= r.est_error
        assert raised == [(0.9, 0.9)]

    @pytest.mark.parametrize("lam,mu", [(0.95, 1.9), (1.1, 1.7), (1.45, 1.15)])
    def test_symmetric_in_the_weights(self, lam, mu):
        # swapping s and t swaps the weights: the two calls integrate on
        # different rules (exp_s and exp_t trade endpoints) and must agree
        # within their estimates, with no closed form read
        r, swapped = (regularized_inverse_square(*p, 1e-6) for p in ((lam, mu), (mu, lam)))
        assert abs(r.value - swapped.value) <= r.est_error + swapped.est_error

    @pytest.mark.parametrize("lam,mu", [(0.8, 0.9), (0.6, 1.1)])
    def test_floor_above_target_raises(self, lam, mu):
        # rungs 3 and 4 agree within 1e-6, but rung 4's noise floor is
        # 1.5e-5: the result cannot be held to the target, so it raises
        # with the value and that floor rather than return it
        with pytest.raises(OracleConvergenceError) as info:
            regularized_inverse_square(lam, mu, 1e-6)
        assert info.value.est_error > 1e-5
        assert abs(info.value.value - dotsenko_fateev(lam, mu)) <= info.value.est_error

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="below lam = 1/2 the rung difference understates the error",
    )
    def test_estimate_covers_error_below_half(self):
        # (lam, mu) = (0.2, 1.1): the value lies ~1.0e-3 from the closed form
        # while est_error is ~6.5e-4
        r = regularized_inverse_square(0.2, 1.1, 6.6e-4)
        assert abs(r.value - dotsenko_fateev(0.2, 1.1)) <= r.est_error


class TestThreeDimensional:
    SPEC = QuadratureSpec(
        kernel="abs",
        kernel_exponent=2.0,
        gegenbauer=(1.0, 1.0),
        extra_axis=(1.0, 0.0),
    )

    def test_known_value(self):
        r = refine_until(self.SPEC, 1e-7)
        assert r.level <= 2
        # 5 pi^2 / 96, reduced by hand from the gamma product
        assert r.value == pytest.approx(5.0 * math.pi**2 / 96.0, rel=1e-7)

    def test_evaluation_counts(self):
        # 32 then 48 outer shears, each (4 + 3 L) 8^2 and (4 + 3 L) 11^2
        # with L its layers: 329 and 513 pieces in all
        assert orc._rung(self.SPEC, 0)[1] == 21_056
        assert orc._rung(self.SPEC, 1)[1] == 62_073

    @pytest.mark.parametrize(
        "lam,mu,nu,b,ell,m",
        itertools.product((0.5, 1.8), (0.5, 1.8), (0.6, 2.2), (-0.5, 0.0, 1.5), (0, 2), (0, 2)),
    )
    def test_closed_form_met_at_rung_one(self, lam, mu, nu, b, ell, m, monkeypatch):
        # the corners of the cc suite's draw range, and b = -0.5 below it,
        # where the extra axis's (1 - y)^b weight is singular
        spec = QuadratureSpec(
            kernel="abs",
            kernel_exponent=2.0 * nu,
            gegenbauer=(lam, mu),
            degrees=(ell, m),
            extra_axis=(mu + m / 2.0, b),
        )
        truth = shear_averaged_projection(lam, mu, nu, b, ell, m)
        # both targets climb the same rungs: evaluate each rung once
        rungs = {}
        real = orc._rung

        def once(s, level):
            if level not in rungs:
                rungs[level] = real(s, level)
            return rungs[level]

        monkeypatch.setattr(orc, "_rung", once)
        for target in (1e-8, 1e-6):
            r = refine_until(spec, target)
            err = abs(r.value - truth)
            assert r.level == 1
            assert err <= target
            assert err <= max(r.est_error, 1e-12)


def _geg_spec(kernel, n_s=3, n_t=1, **fields):
    return QuadratureSpec(
        kernel=kernel, kernel_exponent=1.4, gegenbauer=(0.8, 0.3),
        degrees=(n_s, n_t), **fields,
    )


def _vector_specs():
    # factor parities chosen so that no integral vanishes by symmetry
    specs = {kernel: _geg_spec(kernel) for kernel in KERNELS}
    specs["abssgn"] = _geg_spec("abssgn", n_t=2)
    return specs


class TestShearVector:
    SHEARS = np.array([-1.0, -0.6, 0.0, 0.35, 0.9, 1.0])

    @pytest.mark.parametrize("name", sorted(_vector_specs()))
    def test_each_shear_matches_its_scalar_call(self, name):
        spec = _vector_specs()[name]
        order = orc._ladder(1)[0]
        values, evals = orc._eval_2d(spec, self.SHEARS, order)
        scale = np.abs(values).max()
        total = 0
        for x, v in zip(self.SHEARS, values):
            one, one_evals = orc._eval_2d(spec, [x], order)
            assert abs(v - one[0]) <= 1e-14 * scale
            total += one_evals
        # each shear takes its own layers, so shears differ in cost
        assert evals == total


class TestChunking:
    """A _CHUNK of 2^8 entries changes only the blocking, not the values."""

    def _small_chunk(self, monkeypatch, compute):
        default = compute()
        monkeypatch.setattr(orc, "_CHUNK", 1 << 8)
        return default, compute()

    def test_eval_2d(self, monkeypatch):
        spec = _vector_specs()["abssgn"]
        shears = np.linspace(-1.0, 1.0, 7)
        a, b = self._small_chunk(monkeypatch, lambda: orc._eval_2d(spec, shears, orc._ladder(2)[0]))
        np.testing.assert_allclose(b[0], a[0], rtol=1e-13, atol=1e-13 * np.abs(a[0]).max())
        assert a[1] == b[1]

    def test_eval_3d(self, monkeypatch):
        spec = QuadratureSpec(
            kernel="abs",
            kernel_exponent=1.7,
            gegenbauer=(0.9, 1.4),
            degrees=(2, 2),
            extra_axis=(1.2, 0.5),
        )
        a, b = self._small_chunk(monkeypatch, lambda: orc._rung(spec, 1))
        assert b[0] == pytest.approx(a[0], rel=1e-13, abs=0.0) and a[1] == b[1]

    def test_convolution_profile(self, monkeypatch):
        u = np.linspace(-2.1, 2.1, 101)
        a, b = self._small_chunk(
            monkeypatch, lambda: convolution_profile(0.8, 0.9, u, orc._ladder(2))
        )
        np.testing.assert_allclose(b[0], a[0], rtol=1e-13, atol=1e-13 * np.abs(a[0]).max())
        assert a[1] == b[1]


#: One call per chunked kernel, each with many row blocks.
CHUNKED = {
    "eval_2d": lambda: orc._eval_2d(
        _geg_spec("abs", 5, 5), np.linspace(-1.0, 1.0, 7), orc._ladder(2)[0]
    ),
    "eval_3d": lambda: orc._rung(_geg_spec("abs", 5, 5, extra_axis=(1.2, 0.5)), 1),
    "convolution_profile": lambda: convolution_profile(
        0.8, 0.9, np.linspace(-2.0, 2.0, 3001), orc._ladder(3)
    ),
}


@pytest.mark.parametrize("kernel", sorted(CHUNKED))
def test_block_peak_stays_under_trim_threshold(kernel, monkeypatch):
    # All temporaries of one row block together stay within 256 KB, glibc's
    # default trim threshold plus top pad, so blocks reuse heap pages rather
    # than trimming them and faulting them back in.  tracemalloc sees numpy's
    # buffers on every platform, whatever the allocator.
    peaks = []
    real = orc._chunked_rows

    def traced(n, width, block):
        def measured(r):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = block(r)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return out

        return real(n, width, measured)

    monkeypatch.setattr(orc, "_chunked_rows", traced)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        CHUNKED[kernel]()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(peaks) > 1
    assert max(peaks) <= 256 * 1024


def test_tensor_moments_match_beta():
    # |s - x t|^2 = s^2 - 2 x s t + x^2 t^2: the odd middle term vanishes and
    # the other two are separable beta moments of the weights
    lam, mu = 1.2, 0.7

    def beta(a, b):
        return gamma_ratio((a, b), (a + b,))

    for x in (0.0, 0.45, -1.0):
        spec = QuadratureSpec(
            kernel="abs", kernel_exponent=2.0, x_shear=x, gegenbauer=(lam, mu)
        )
        got = refine_until(spec, 1e-8).value
        exact = (
            beta(1.5, lam + 0.5) * beta(0.5, mu + 0.5)
            + x * x * beta(0.5, lam + 0.5) * beta(1.5, mu + 0.5)
        )
        assert got == pytest.approx(exact, rel=1e-12)


#: One case per oracle backend: target -> QuadResult.
BACKENDS = {
    "refine_until": lambda target: refine_until(
        QuadratureSpec(
            kernel="abs",
            kernel_exponent=0.2,
            x_shear=1.0,
            gegenbauer=(0.2, 0.1),
        ),
        target,
    ),
    "hermite": lambda target: integrate_hermite_2d(0.8, 0.6, 1, 1, target),
    "finite_part": lambda target: regularized_inverse_square(1.3, 1.4, target),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestOneStoppingRule:
    def test_unreachable_target_raises_with_estimate(self, backend):
        with pytest.raises(OracleConvergenceError) as info:
            BACKENDS[backend](1e-30)
        assert math.isfinite(info.value.value)
        assert math.isfinite(info.value.est_error) and info.value.est_error > 0.0

    def test_reachable_target_is_met(self, backend):
        r = BACKENDS[backend](1e-6)
        assert r.est_error <= 1e-6
        assert 1 <= r.level <= 5 and r.evaluations > 0

    def test_results_are_python_floats(self, backend):
        # every backend returns and raises plain floats, not numpy scalars
        with pytest.raises(OracleConvergenceError) as info:
            BACKENDS[backend](1e-30)
        for result in (BACKENDS[backend](1e-6), info.value):
            assert type(result.value) is float and type(result.est_error) is float
