"""Closed forms of the kernel expansion and their cross-identities."""

import math

import mpmath as mp
import numpy as np
import pytest

import gegenexp.expansion as ex
from gegenexp.expansion import (
    ExpansionParams,
    HypothesisError,
    coeff_grid,
    coeff_table,
    cosine_expansion,
    dotsenko_fateev,
    expansion_coeff,
    hermite_kernel_integral,
    kernel_value,
    mehta2,
    moment_of_plus_integral,
    plus_base_integral,
    plus_part_integral,
    projection_integral,
    selberg2,
    series_eval,
    series_eval_grid,
    sheared_integral,
    shear_averaged_projection,
    tail_bound,
    tarasov_varchenko,
    truncation_order,
    warnaar,
    weighted_power_mass,
)
from gegenexp.oracle import QuadratureSpec, refine_until
from gegenexp.orthopoly import (
    gegenbauer_norm_sq,
    u_prefactor,
)
from gegenexp.specfun import DomainError, gamma
from gegenexp.verify import sheared_oracle


class TestCoefficients:
    def test_quadratic_kernel_values(self):
        assert expansion_coeff(1, 1, 1, 0, 0) == pytest.approx(0.5, rel=1e-13)
        assert expansion_coeff(1, 1, 1, 1, 1) == pytest.approx(-0.5, rel=1e-13)
        assert expansion_coeff(1, 1, 1, 4, 0) == 0.0

    def test_quadratic_kernel_table(self):
        t = coeff_table(ExpansionParams(1, 1, 1, 0), 2, 2)
        expect = np.array([[0.5, 0.0, 0.25], [0.0, -0.5, 0.0], [0.25, 0.0, 0.0]])
        np.testing.assert_allclose(t.values, expect, atol=1e-13)

    def test_parity_mask(self):
        t = coeff_table(ExpansionParams(0.7, 1.9, 2.4, 1), 5, 5)
        ell = np.arange(6)[:, None]
        m = np.arange(6)[None, :]
        assert np.all(t.values[(ell + m) % 2 == 0] == 0.0)

    def test_grid_matches_scalar(self):
        g = coeff_grid(ExpansionParams(1.7, 0.9, 2.3, 0), 8, 8)
        for ell in range(9):
            for m in range(9):
                assert g[ell, m] == pytest.approx(
                    expansion_coeff(1.7, 0.9, 2.3, ell, m), rel=1e-12, abs=1e-300
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            expansion_coeff(-1.0, 1.0, 1.0, 0, 0)
        with pytest.raises(DomainError):
            ExpansionParams(1.0, 1.0, 1.0, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters(self, bad):
        for lam, mu, nu in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(DomainError, match="requires lam, mu, nu > 0"):
                expansion_coeff(lam, mu, nu, 0, 0)
            with pytest.raises(DomainError, match="requires lam, mu, nu > 0"):
                ExpansionParams(lam, mu, nu, 0)
            with pytest.raises(DomainError, match="all finite"):
                plus_part_integral(lam, mu, nu, 0, 0, 0.5)
            with pytest.raises(DomainError, match="all finite"):
                plus_base_integral(lam, mu, nu + 0.5, 0.5)

    @mp.workdps(40)
    def test_grid_against_mpmath_at_large_indices(self):
        # six seeded parameter sets and one with lam 2e-4 from a half-integer,
        # whose gamma arguments pass near poles; 150 entries each with l,
        # m <= 1200; integer and half-integer nu put exact zeros on the grid
        rng = np.random.default_rng(1200)
        n, worst, zeros = 1200, 0.0, 0
        for k in range(7):
            lam, mu = rng.uniform(0.1, 8.0, 2)
            draws = (rng.uniform(0.2, 30.0), float(rng.integers(1, 5)), rng.integers(1, 12) / 2)
            nu = draws[k % 3]
            if k == 6:
                lam, mu, nu = 3.4998, 7.83, 4.5
            grid = coeff_grid(ExpansionParams(lam, mu, nu, 0), n, n)
            lam_, mu_, nu_ = mp.mpf(lam), mp.mpf(mu), mp.mpf(nu)
            num = (
                mp.gamma(lam_ + mu_ + 2 * nu_ + 1) * mp.gamma(lam_) * mp.gamma(mu_)
                * mp.gamma(2 * nu_ + 1) / mp.power(2, 2 * nu_)
            )
            for ell, m in rng.integers(0, n + 1, size=(150, 2)).tolist():
                s, d = mp.mpf(ell + m) / 2, mp.mpf(ell - m) / 2
                ref = (-1) ** m * (lam_ + ell) * (mu_ + m) * num * (
                    mp.rgamma(nu_ + 1 + lam_ + mu_ + s) * mp.rgamma(nu_ + 1 - s)
                    * mp.rgamma(nu_ + 1 + lam_ + d) * mp.rgamma(nu_ + 1 + mu_ - d)
                )
                if ref == 0:
                    zeros += 1
                    assert grid[ell, m] == 0.0
                else:
                    worst = max(worst, float(abs((grid[ell, m] - ref) / ref)))
        assert zeros > 0
        assert worst <= 1e-11, worst

    def test_table_matches_oracle_projections(self):
        # dense table against quadrature of the projection integrals
        params = ExpansionParams(2.0, 3.0, 6.0, 0)
        table = coeff_table(params, 8, 8)
        for ell in range(0, 9, 2):
            for m in range(0, 9, 2):
                spec = QuadratureSpec(
                    kernel="abs",
                    kernel_exponent=12.0,
                    x_shear=1.0,
                    weight_exponents=(1.5, 2.5),
                    polynomial_factors=(
                        ("gegenbauer", 2.0, ell),
                        ("gegenbauer", 3.0, m),
                    ),
                )
                proj = refine_until(spec, 1e-11).value / (
                    gegenbauer_norm_sq(2.0, ell) * gegenbauer_norm_sq(3.0, m)
                )
                assert table.values[ell, m] == pytest.approx(
                    proj, rel=1e-8, abs=1e-12
                )


class TestSeries:
    def test_polynomial_kernel_exact(self):
        p = ExpansionParams(1, 1, 1, 0)
        r = series_eval(p, 0.3, 0.7, 4, 4, force=True)
        assert r.value == pytest.approx(0.16, abs=1e-12)

    def test_odd_kernel_vanishes_on_diagonal(self):
        p = ExpansionParams(1, 1, 3.5, 1)
        r = series_eval(p, 0.42, 0.42, 30, 30)
        assert abs(r.value) <= max(r.tail_bound, 1e-12)

    def test_hypothesis_enforced(self):
        p = ExpansionParams(1, 1, 1, 0)
        with pytest.raises(HypothesisError):
            series_eval(p, 0.1, 0.2, 4, 4)

    def test_sup_error_decreases(self):
        p = ExpansionParams(1, 1, 3.5, 0)
        pts = np.linspace(-1, 1, 41)
        kern = kernel_value(p, pts[:, None], pts[None, :])
        errs = []
        for n in (10, 20, 40, 60):
            s = series_eval_grid(p, pts, pts, n, n)
            errs.append(np.abs(s - kern).max())
        assert all(a >= b for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-6

    def test_tail_bound_dominates_true_error(self):
        p = ExpansionParams(1, 1, 3.5, 0)
        pts = np.linspace(-1, 1, 21)
        kern = kernel_value(p, pts[:, None], pts[None, :])
        for n in (8, 16, 32):
            s = series_eval_grid(p, pts, pts, n, n)
            true_err = np.abs(s - kern).max()
            assert tail_bound(p, n, n) >= true_err


class TestTruncation:
    def test_trivial_tolerance(self):
        assert truncation_order(ExpansionParams(1, 1, 3.5, 0), 1e10) == (0, 0)
        assert truncation_order(ExpansionParams(1, 1, 3.5, 1), 1e10) == (0, 1)

    def test_orders_meet_tolerance_a_posteriori(self):
        p = ExpansionParams(1, 1, 3.5, 0)
        pts = np.linspace(-1, 1, 21)
        kern = kernel_value(p, pts[:, None], pts[None, :])
        for tol in (1e-4, 1e-6):
            L, M = truncation_order(p, tol)
            s = series_eval_grid(p, pts, pts, L, M)
            assert np.abs(s - kern).max() < tol

    def test_monotone_in_tolerance(self):
        p = ExpansionParams(1, 1, 3.5, 0)
        loose = truncation_order(p, 1e-4)
        tight = truncation_order(p, 1e-8)
        assert loose[0] <= tight[0] and loose[1] <= tight[1]


def _ladder(eps, max_order):
    """The search ladder of truncation_order, written out independently."""
    rungs = [(0, 1)] if eps == 1 else [(0, 0)]
    n = 1
    while n <= max_order:
        rungs.append((n, n))
        n += 1 if n < 64 else (4 if n < 256 else (16 if n < 1024 else 64))
    return rungs


def _sweep_params():
    rng = np.random.default_rng(20240401)
    for i in range(20):
        lam, mu = rng.uniform(0.3, 2.5, 2)
        margin = rng.uniform(1.5, 3.0)
        nu = (lam + mu + 4.0 + margin) / 2.0
        yield ExpansionParams(lam, mu, nu, i % 2), (1e-4, 1e-5, 1e-6)[i % 3]


@pytest.fixture
def grid_sizes(monkeypatch):
    """Record the side of every term grid truncation_order builds."""
    sizes = []
    build = ex._term_sup_grid

    def spy(params, L, M):
        sizes.append(max(L, M))
        return build(params, L, M)

    monkeypatch.setattr(ex, "_term_sup_grid", spy)
    return sizes


class TestTruncationGrid:
    def test_matches_tail_bound_scan(self):
        for p, tol in _sweep_params():
            scan = next(
                (L, M)
                for L, M in _ladder(p.eps, ex.MAX_ORDER)
                if tail_bound(p, L, M) < tol
            )
            assert scan[0] <= 160  # keeps the brute-force scan fast
            assert truncation_order(p, tol) == scan

    def test_grid_read_is_bitwise_tail_bound(self):
        size = 200
        for eps in (0, 1):
            p = ExpansionParams(0.8, 1.7, 4.6, eps)
            T = ex._term_sup_grid(p, size, size)
            rungs = [(L, M) for L, M in _ladder(eps, size) if max(L, M) + ex._WINDOW <= size]
            rungs += [(10, 40), (57, 3)]
            for L, M in rungs:
                assert ex._tail_from_grid(T, p, L, M) == tail_bound(p, L, M)

    def test_one_grid_per_growth_step(self, grid_sizes):
        assert truncation_order(ExpansionParams(1, 1, 3.5, 0), 1e-8) == (416, 416)
        assert len(grid_sizes) <= 2 + math.log2(grid_sizes[-1] / 32)
        assert grid_sizes == sorted(set(grid_sizes))

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_bad_tolerance_builds_no_grid(self, grid_sizes, tol):
        with pytest.raises(DomainError, match=f"got {tol!r}"):
            truncation_order(ExpansionParams(1, 1, 3.5, 0), tol)
        assert grid_sizes == []

    def test_unreachable_tolerance_caps_grid(self, grid_sizes, monkeypatch):
        monkeypatch.setattr(ex, "MAX_ORDER", 100)
        with pytest.raises(DomainError, match="tail estimate cannot reach"):
            truncation_order(ExpansionParams(1, 1, 3.5, 0), 1e-300)
        assert max(grid_sizes) == 100 + ex._WINDOW


class TestShearedIntegral:
    def test_center_factorizes(self):
        val = plus_part_integral(0.7, 1.3, 0.9, 0, 0, 0.0)
        ref = math.pi**1.5 * gamma(1.4) / (2.0 * gamma(2.6) * gamma(2.3))
        assert val == pytest.approx(ref, rel=1e-14)

    def test_monomial_prefactor_kills_origin(self):
        assert plus_part_integral(0.7, 1.3, 0.9, 0, 2, 0.0) == 0.0

    def test_oracle_agreement(self):
        for lam, mu, nu, ell, m, x in [
            (1.0, 1.0, 1.2, 1, 2, 0.6),
            (0.6, 2.2, 1.7, 3, 1, 0.9),
            (1.4, 0.8, 2.9, 2, 2, 1.0),
        ]:
            oracle = sheared_oracle("plus", lam, mu, nu, ell, m, x, 1e-10)
            assert plus_part_integral(lam, mu, nu, ell, m, x) == pytest.approx(
                oracle, abs=1e-8, rel=1e-8
            )

    @mp.workdps(40)
    def test_large_indices_at_unit_shear(self):
        # the Gauss sum at x = 1 takes 1/Gamma of arguments near 200
        lam, mu, nu, ell, m = 1.3, 0.7, 2.3, 200, 200
        half_sum, half_diff = mp.mpf(ell + m) / 2, mp.mpf(ell - m) / 2
        ref = (
            mp.pi**2
            * mp.gamma(2 * nu + 1)
            * mp.rgamma(nu - half_sum + 1)
            * mp.rgamma(mu + m + 1)
            * mp.rgamma(lam + nu + half_diff + 1)
            / mp.power(2, 2 * nu + 1)
            * mp.hyp2f1(half_sum - nu, -lam - nu - half_diff, mu + m + 1, 1)
        )
        val = plus_part_integral(lam, mu, nu, ell, m, 1.0)
        assert val == pytest.approx(float(ref), rel=1e-12, abs=0.0)

    def test_variant_parity_zeros(self):
        assert sheared_integral("abs", 1, 1, 1.2, 1, 2, 0.6) == 0.0
        assert sheared_integral("abssgn", 1, 1, 1.2, 2, 2, 0.6) == 0.0

    def test_variant_relations(self):
        base = plus_part_integral(1, 1, 1.2, 1, 2, 0.6)
        assert sheared_integral("minus", 1, 1, 1.2, 1, 2, 0.6) == pytest.approx(
            -base, rel=1e-15
        )
        assert sheared_integral("abssgn", 1, 1, 1.2, 1, 2, 0.6) == pytest.approx(
            2 * base, rel=1e-15
        )

    def test_base_integral_and_reduction(self):
        assert plus_base_integral(1.0, 1.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)
        # degree-zero reduction: the weighted pair integral is the base one
        # up to the two normalization constants
        lam, mu, nu, x = 0.8, 1.7, 1.3, 0.62
        lhs = plus_part_integral(lam, mu, nu, 0, 0, x)
        rhs = (
            math.pi
            / (gamma(lam + 0.5) * gamma(mu + 0.5))
            * plus_base_integral(lam + 0.5, mu + 0.5, nu + 0.5, x)
        )
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_base_integral_oracle(self):
        a, b, c, x = 1.4, 0.9, 1.1, 0.5
        spec = QuadratureSpec(
            kernel="plus",
            kernel_exponent=2 * c - 1,
            x_shear=x,
            weight_exponents=(a - 1, b - 1),
        )
        assert plus_base_integral(a, b, c, x) == pytest.approx(
            refine_until(spec, 1e-10).value, abs=1e-8
        )


class TestProjection:
    def test_quadratic_value(self):
        p = ExpansionParams(1, 1, 1, 0)
        assert projection_integral(p, 0, 0) == pytest.approx(math.pi**2 / 8, rel=1e-13)

    def test_parity_vanishing(self):
        p = ExpansionParams(1.5, 0.8, 2.2, 0)
        assert projection_integral(p, 2, 1) == 0.0

    def test_parity_vanishing_confirmed_by_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            lam = float(rng.uniform(0.3, 2.0))
            mu = float(rng.uniform(0.3, 2.0))
            nu = float(rng.uniform(0.4, 2.5))
            eps = int(rng.integers(0, 2))
            ell = int(rng.integers(0, 4))
            m = int(rng.integers(0, 4))
            if (ell + m + eps) % 2 == 0:
                m += 1
            assert projection_integral(ExpansionParams(lam, mu, nu, eps), ell, m) == 0.0
            spec = QuadratureSpec(
                kernel="abs" if eps == 0 else "abssgn",
                kernel_exponent=2 * nu,
                x_shear=1.0,
                weight_exponents=(lam - 0.5, mu - 0.5),
                polynomial_factors=(("gegenbauer", lam, ell), ("gegenbauer", mu, m)),
            )
            assert abs(refine_until(spec, 1e-10).value) < 1e-9

    def test_specialization_chain(self):
        # mass identity == degree-zero projection == rescaled sheared integral
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = float(rng.uniform(0.2, 3.0))
            mu = float(rng.uniform(0.2, 3.0))
            nu = float(rng.uniform(0.3, 3.0))
            mass = weighted_power_mass(lam, mu, nu)
            proj = projection_integral(ExpansionParams(lam, mu, nu, 0), 0, 0)
            b1 = (
                2.0
                * plus_part_integral(lam, mu, nu, 0, 0, 1.0)
                * gamma(lam + 0.5)
                * gamma(mu + 0.5)
                / math.pi
            )
            assert proj == pytest.approx(mass, rel=1e-10)
            assert b1 == pytest.approx(mass, rel=1e-10)


class TestMomentAndTriple:
    def test_moment_matches_quadrature(self):
        from gegenexp.oracle import _interval_rule

        lam, mu, nu, beta_, ell, m = 1.0, 1.0, 1.2, 0.0, 1, 2
        xn, xw = _interval_rule(0.0, 1.0, 2 * mu + m + 1.0, beta_, 30, 20)
        vals = np.array([plus_part_integral(lam, mu, nu, ell, m, float(x)) for x in xn])
        quad = float(xw @ ((1.0 + xn) ** beta_ * vals))
        assert moment_of_plus_integral(lam, mu, nu, beta_, ell, m) == pytest.approx(
            quad, rel=1e-7
        )

    def test_triple_parity_error(self):
        with pytest.raises(DomainError):
            shear_averaged_projection(1.0, 1.0, 1.0, 0.0, 1, 2)

    def test_triple_vs_moment_link(self):
        # triple integral = 4 / (normalizations) * moment, for even ell + m
        for lam, mu, nu, b, ell, m in [
            (1.0, 1.0, 1.0, 0.0, 2, 0),
            (0.8, 1.3, 1.6, 0.5, 1, 1),
        ]:
            lhs = shear_averaged_projection(lam, mu, nu, b, ell, m)
            rhs = (
                4.0
                / (u_prefactor(lam, ell) * u_prefactor(mu, m))
                * moment_of_plus_integral(lam, mu, nu, b, ell, m)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_triple_known_value(self):
        # hand-reduced value at the all-ones parameter point
        assert shear_averaged_projection(1, 1, 1, 0, 0, 0) == pytest.approx(
            5.0 * math.pi**2 / 96.0, rel=1e-13
        )


class TestCosine:
    def test_vanishing_configuration(self):
        assert cosine_expansion(2.0, 0, 0.0, math.pi, 4) == pytest.approx(0.0, abs=1e-10)

    def test_polynomial_case(self):
        v = cosine_expansion(2.0, 0, math.pi / 3, math.pi / 4, 6)
        ref = (math.cos(math.pi / 3) + math.cos(math.pi / 4)) ** 2
        assert v == pytest.approx(ref, rel=1e-13)

    def test_degree_seven_sup_error(self):
        angles = np.linspace(0.1, math.pi - 0.1, 9)
        worst = 0.0
        for phi in angles:
            for psi in angles:
                k = math.cos(phi) + math.cos(psi)
                ref = abs(k) ** 7 * math.copysign(1.0, k)
                v = cosine_expansion(7.0, 1, float(phi), float(psi), 40)
                worst = max(worst, abs(v - ref))
        assert worst < 1e-5


class TestHermiteIntegral:
    def test_known_values(self):
        assert hermite_kernel_integral(0.5, 0, 0, 1.0) == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-14
        )
        nu = 1.3
        assert hermite_kernel_integral(nu, 0, 0, 0.0) == pytest.approx(
            math.sqrt(math.pi) * gamma(nu + 0.5), rel=1e-14
        )

    def test_parity_error(self):
        with pytest.raises(DomainError):
            hermite_kernel_integral(1.0, 1, 2, 0.5)

    def test_limit_bridge_from_projection(self):
        # rescaled projections converge to the Gaussian-kernel closed form
        ell = m = 1
        nu = 2.0
        ref = hermite_kernel_integral(nu, ell, m, 1.0)
        lam = 1e4
        pr = projection_integral(ExpansionParams(lam, lam, nu, 0), ell, m)
        scaled = lam ** (nu + 1 - (ell + m) / 2) * math.factorial(ell) * math.factorial(m) * pr
        assert scaled == pytest.approx(ref, rel=1e-3)


class TestIdentities:
    def test_mehta_value(self):
        assert mehta2(1.0) == pytest.approx(2.0, rel=1e-14)

    def test_selberg_reduces_to_mass(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            lam = float(rng.uniform(0.2, 3.0))
            nu = float(rng.uniform(0.2, 3.0))
            a = selberg2(lam, nu)
            b = weighted_power_mass(lam, lam, nu)
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: selberg2(-0.8, 1.0),
            lambda: warnaar(0.6, 0.5),
            lambda: tarasov_varchenko(1.0, -0.5),
            lambda: dotsenko_fateev(0.4, 0.6),
            lambda: mehta2(-0.7),
            lambda: weighted_power_mass(-0.7, 1.0, 1.0),
            lambda: weighted_power_mass(-0.4, -0.4, -0.2),
            lambda: mehta2(math.nan),
            lambda: selberg2(math.inf, 1.0),
        ],
        ids=["selberg2", "warnaar", "tarasov_varchenko", "dotsenko_fateev", "mehta2",
             "mass", "mass-corner", "mehta2-nan", "selberg2-inf"],
    )
    def test_outside_convergence_region(self, call):
        # outside the region the gamma products are finite but mean nothing
        with pytest.raises(DomainError):
            call()


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: shear_averaged_projection(math.nan, 1.0, 1.0, 0.0, 0, 0),
            lambda: shear_averaged_projection(1.0, 1.0, 1.0, 0.0, -1, 1),
            lambda: cosine_expansion(math.nan, 0, 0.1, 0.2, 4),
            lambda: moment_of_plus_integral(1.0, 1.0, math.nan, 0.0, 0, 0),
            lambda: hermite_kernel_integral(1.0, 0, 0, math.nan),
            lambda: hermite_kernel_integral(math.inf, 0, 0, 0.5),
        ],
        ids=["triple-nan", "triple-negative-index", "cosine-nan", "moment-nan",
             "hermite-nan-x", "hermite-inf-nu"],
    )
    def test_domain_error(self, call):
        with pytest.raises(DomainError):
            call()
