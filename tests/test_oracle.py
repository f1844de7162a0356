"""Quadrature oracle: exactness, split logic, refinement, and honesty."""

import math

import numpy as np
import pytest

from gegenexp import oracle as orc
from gegenexp import verify as vf
from gegenexp.expansion import identity_rhs, plus_base_integral, weighted_power_mass
from gegenexp.oracle import (
    OracleConvergenceError,
    QuadratureSpec,
    convolution_profile,
    integrate,
    integrate_hermite_2d,
    refine_until,
    regularized_inverse_square,
)
from gegenexp.specfun import DomainError, beta


class TestSpecValidation:
    def test_kernel_name(self):
        with pytest.raises(DomainError):
            QuadratureSpec(kernel="sqrt")

    def test_integrability_guards(self):
        with pytest.raises(DomainError):
            QuadratureSpec(kernel="abs", kernel_exponent=-1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(weight_exponents=(-1.2, 0.0))

    def test_dimension_three_needs_extra_axis(self):
        with pytest.raises(DomainError):
            QuadratureSpec(dimension=3)


class TestBasics:
    def test_arcsine_mass(self):
        r = integrate(QuadratureSpec(dimension=1, weight_exponents=(-0.5, -0.5)))
        assert r.value == pytest.approx(math.pi, abs=1e-12)

    def test_square_area(self):
        r = integrate(QuadratureSpec(dimension=2))
        assert r.value == pytest.approx(4.0, abs=1e-11)

    def test_plus_part_of_linear_kernel(self):
        r = integrate(
            QuadratureSpec(dimension=2, kernel="plus", kernel_exponent=1.0, x_shear=0.0)
        )
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_monomial_factors(self):
        # int s^2 dt ds over the square = (2/3) * 2
        spec = QuadratureSpec(
            dimension=2, polynomial_factors=(("monomial", 2), None)
        )
        assert integrate(spec).value == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_weighted_mass_matches_closed_form(self):
        for lam, mu, nu in [(0.5, 0.5, 1.0), (1.3, 0.7, 0.6), (0.3, 2.1, 1.7)]:
            spec = QuadratureSpec(
                dimension=2,
                kernel="abs",
                kernel_exponent=2 * nu,
                x_shear=1.0,
                weight_exponents=(lam - 0.5, mu - 0.5),
                tol=1e-10,
            )
            r = refine_until(spec, 1e-10)
            assert r.value == pytest.approx(
                weighted_power_mass(lam, mu, nu), rel=1e-10
            )


class TestSplitLogic:
    def _spec(self, kind, seedling):
        lam, mu, nu, x, ell, m = seedling
        return QuadratureSpec(
            dimension=2,
            kernel=kind,
            kernel_exponent=2 * nu,
            x_shear=x,
            weight_exponents=(lam - 0.5, mu - 0.5),
            polynomial_factors=(("gegenbauer", lam, ell), ("gegenbauer", mu, m)),
            tol=1e-10,
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
            plus = integrate(self._spec("plus", seedling)).value
            minus = integrate(self._spec("minus", seedling)).value
            absval = integrate(self._spec("abs", seedling)).value
            assert plus + minus == pytest.approx(absval, abs=1e-10)

    def test_shear_reflection_symmetry(self):
        # t -> -t sends the shear x to -x and scales by the t-factor parity
        for m in (2, 3):
            seed_pos = (0.8, 1.1, 0.9, 0.37, 1, m)
            seed_neg = (0.8, 1.1, 0.9, -0.37, 1, m)
            a = integrate(self._spec("plus", seed_pos)).value
            b = integrate(self._spec("plus", seed_neg)).value
            assert a == pytest.approx((-1.0) ** m * b, rel=1e-10, abs=1e-12)


class TestRefinement:
    def test_smooth_converges_immediately(self):
        spec = QuadratureSpec(dimension=2, polynomial_factors=(("monomial", 4), None))
        r = refine_until(spec, 1e-12, max_level=1)
        assert r.est_error <= 1e-12

    def test_exhaustion_carries_best_value(self):
        spec = QuadratureSpec(
            dimension=2,
            kernel="abs",
            kernel_exponent=0.2,
            x_shear=1.0,
            weight_exponents=(-0.3, -0.4),
        )
        with pytest.raises(OracleConvergenceError) as info:
            refine_until(spec, 1e-30, max_level=1)
        assert math.isfinite(info.value.value)

    def test_bad_target(self):
        with pytest.raises(DomainError):
            refine_until(QuadratureSpec(), 0.0)

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
                dimension=2,
                kernel="abs",
                kernel_exponent=2 * nu,
                x_shear=1.0,
                weight_exponents=(lam - 0.5, mu - 0.5),
            )
            r = refine_until(spec, 1e-9)
            truth = weighted_power_mass(lam, mu, nu)
            if abs(r.value - truth) <= 10.0 * max(r.est_error, 1e-16 * abs(truth)):
                ok += 1
        assert ok >= 0.95 * total


    @pytest.mark.parametrize("x", [0.9999, -0.9999, 1.0 - 1e-7])
    def test_near_corner_shears(self, x):
        # the split line nearly meets a corner of the square: the endpoint
        # factor left on the outer axis is the ladder's hardest case
        for a, b, c in [(0.7, 1.3, 1.1), (2.1, 0.4, 0.8), (0.35, 0.5, 0.65)]:
            spec = QuadratureSpec(
                dimension=2,
                kernel="plus",
                kernel_exponent=2.0 * c - 1.0,
                x_shear=x,
                weight_exponents=(a - 1.0, b - 1.0),
            )
            r = refine_until(spec, 1e-9)
            assert r.value == pytest.approx(plus_base_integral(a, b, c, x), rel=1e-9)

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
        r = integrate_hermite_2d(1.0, 0.0, 0, 0)
        assert r.value == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_odd_symmetry_vanishes(self):
        r = integrate_hermite_2d(0.8, 0.0, 1, 0)
        assert abs(r.value) < 1e-10

    def test_diagonal_case(self):
        r = integrate_hermite_2d(0.5, 1.0, 0, 0)
        assert r.value == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_hermite_2d(0.0, 0.5, 0, 0)


class TestTriangles:
    def test_halves_sum_to_full(self):
        lam, mu, nu = 0.9, 1.3, 0.7
        common = dict(
            dimension=2,
            kernel="abs",
            kernel_exponent=2 * nu,
            x_shear=1.0,
            weight_exponents=(lam - 0.5, mu - 0.5),
            tol=1e-10,
        )
        lower = integrate(QuadratureSpec(triangle="s<t", **common)).value
        upper = integrate(QuadratureSpec(triangle="t<s", **common)).value
        assert lower + upper == pytest.approx(
            weighted_power_mass(lam, mu, nu), rel=1e-10
        )


def test_unit_rule_is_read_only():
    for arr in orc._unit_rule(0.4, -0.3, 6, 8):
        with pytest.raises(ValueError):
            arr[0] = 5.0


class TestRegularizedKernel:
    def test_profile_even_and_compact(self):
        assert convolution_profile(0.8, 0.9, 0.31) == pytest.approx(
            convolution_profile(0.8, 0.9, -0.31), rel=1e-13
        )
        assert convolution_profile(0.8, 0.9, 2.3) == 0.0

    def test_matches_continuation_closed_form(self):
        for lam, mu in [(1.3, 1.4), (2.0, 0.8)]:
            r = regularized_inverse_square(lam - 0.5, mu - 0.5)
            ref = identity_rhs("dotsenko_fateev", {"lam": lam, "mu": mu})
            assert r.value == pytest.approx(ref, rel=1e-5)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            regularized_inverse_square(0.2, -0.3)


class TestThreeDimensional:
    def test_known_value(self):
        spec = QuadratureSpec(
            dimension=3,
            kernel="abs",
            kernel_exponent=2.0,
            weight_exponents=(0.5, 0.5),
            extra_axis=(1.0, 0.0),
            tol=1e-7,
        )
        r = refine_until(spec, 1e-7, max_level=2)
        # 5 pi^2 / 96, reduced by hand from the gamma product
        assert r.value == pytest.approx(5.0 * math.pi**2 / 96.0, rel=1e-7)


def test_tensor_moments_match_beta():
    # separable monomials against closed-form beta moments
    lam, mu = 1.2, 0.7
    for i, j in [(0, 0), (2, 4), (6, 2)]:
        spec = QuadratureSpec(
            dimension=2,
            weight_exponents=(lam - 0.5, mu - 0.5),
            polynomial_factors=(("monomial", i), ("monomial", j)),
        )
        got = integrate(spec).value
        exact = beta((i + 1) / 2.0, lam + 0.5) * beta((j + 1) / 2.0, mu + 0.5)
        assert got == pytest.approx(exact, rel=1e-12)
