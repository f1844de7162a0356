"""Closed forms of the kernel expansion and their cross-identities."""

import math
import re

import mpmath as mp
import numpy as np
import pytest

import gegenexp.expansion as ex
from gegenexp.expansion import (
    ExpansionParams,
    HypothesisError,
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
from gegenexp.oracle import (
    QuadratureSpec,
    integrate_hermite_2d,
    refine_until,
    regularized_inverse_square,
)
from gegenexp.orthopoly import (
    gauss_jacobi_rule,
    gegenbauer,
    gegenbauer_all,
    gegenbauer_norm_sq,
    hermite,
    u_prefactor,
)
from gegenexp.specfun import DomainError, PoleError, _lgamma_at, gamma_ratio, hyp2f1
from gegenexp.verify import _shear_averaged_oracle, run_suite, sheared_oracle


class TestCoefficients:
    def test_quadratic_kernel_values(self):
        assert expansion_coeff(1, 1, 1, 0, 0) == pytest.approx(0.5, rel=1e-13)
        assert expansion_coeff(1, 1, 1, 1, 1) == pytest.approx(-0.5, rel=1e-13)
        assert expansion_coeff(1, 1, 1, 4, 0) == 0.0

    def test_quadratic_kernel_table(self):
        t = coeff_table(ExpansionParams(1, 1, 1, 0), 2, 2)
        expect = np.array([[0.5, 0.0, 0.25], [0.0, -0.5, 0.0], [0.25, 0.0, 0.0]])
        np.testing.assert_allclose(t, expect, atol=1e-13)

    def test_parity_mask(self):
        t = coeff_table(ExpansionParams(0.7, 1.9, 2.4, 1), 5, 5)
        ell = np.arange(6)[:, None]
        m = np.arange(6)[None, :]
        assert np.all(t[(ell + m) % 2 == 0] == 0.0)

    def test_grid_matches_scalar(self):
        # each entry is the scalar coefficient in the table of its parity
        for eps in (0, 1):
            g = coeff_table(ExpansionParams(1.7, 0.9, 2.3, eps), 8, 8)
            for ell in range(9):
                for m in range(9):
                    want = expansion_coeff(1.7, 0.9, 2.3, ell, m)
                    if (ell + m) % 2 != eps:
                        want = 0.0
                    assert g[ell, m] == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_domain(self):
        with pytest.raises(DomainError):
            expansion_coeff(-1.0, 1.0, 1.0, 0, 0)
        with pytest.raises(DomainError):
            ExpansionParams(1.0, 1.0, 1.0, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters(self, bad):
        for (lam, mu, nu), name in zip(((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)),
                                       ("lam", "mu", "nu")):
            # lam and mu take their floor 0, the Chebyshev point; nu does not
            rule = "exceed 0.0" if name == "nu" else "at least 0.0"
            with pytest.raises(DomainError, match=f"^{name} must be finite and {rule}, got"):
                expansion_coeff(lam, mu, nu, 0, 0)
            with pytest.raises(DomainError, match=f"^{name} must be finite and {rule}, got"):
                ExpansionParams(lam, mu, nu, 0)
            floor = 0.0 if name == "nu" else -0.5
            with pytest.raises(DomainError, match=f"^{name} must be finite and exceed {floor}"):
                plus_part_integral(lam, mu, nu, 0, 0, 0.5)
            abc = {"lam": "a", "mu": "b", "nu": "c"}[name]
            floor = 0.5 if name == "nu" else 0.0
            with pytest.raises(DomainError, match=f"^{abc} must be finite and exceed {floor}"):
                plus_base_integral(lam, mu, nu + 0.5, 0.5)

    @mp.workdps(40)
    def test_grid_against_mpmath_at_large_indices(self):
        # six seeded parameter sets and one with lam 2e-4 from a half-integer,
        # whose gamma arguments pass near poles; 150 entries each with l,
        # m <= 1200; integer and half-integer nu put exact zeros on the grid.
        # Each entry is read from the table of its parity, where it is kept,
        # and must be zero in the other.  The scalar expansion_coeff must
        # give the same entry, which it reads from the same lattice pairs.
        rng = np.random.default_rng(1200)
        n, worst, worst_scalar, zeros = 1200, 0.0, 0.0, 0
        for k in range(7):
            lam, mu = rng.uniform(0.1, 8.0, 2)
            draws = (rng.uniform(0.2, 30.0), float(rng.integers(1, 5)), rng.integers(1, 12) / 2)
            nu = draws[k % 3]
            if k == 6:
                lam, mu, nu = 3.4998, 7.83, 4.5
            tables = [coeff_table(ExpansionParams(lam, mu, nu, eps), n, n) for eps in (0, 1)]
            lam_, mu_, nu_ = mp.mpf(lam), mp.mpf(mu), mp.mpf(nu)
            num = (
                mp.gamma(lam_ + mu_ + 2 * nu_ + 1) * mp.gamma(lam_) * mp.gamma(mu_)
                * mp.gamma(2 * nu_ + 1) / mp.power(2, 2 * nu_)
            )
            for ell, m in rng.integers(0, n + 1, size=(150, 2)).tolist():
                grid = tables[(ell + m) % 2]
                assert tables[1 - (ell + m) % 2][ell, m] == 0.0
                scalar = expansion_coeff(lam, mu, nu, ell, m)
                s, d = mp.mpf(ell + m) / 2, mp.mpf(ell - m) / 2
                ref = (-1) ** m * (lam_ + ell) * (mu_ + m) * num * (
                    mp.rgamma(nu_ + 1 + lam_ + mu_ + s) * mp.rgamma(nu_ + 1 - s)
                    * mp.rgamma(nu_ + 1 + lam_ + d) * mp.rgamma(nu_ + 1 + mu_ - d)
                )
                if ref == 0:
                    zeros += 1
                    assert grid[ell, m] == 0.0 and scalar == 0.0
                else:
                    worst = max(worst, float(abs((grid[ell, m] - ref) / ref)))
                    worst_scalar = max(worst_scalar, float(abs((scalar - ref) / ref)))
        assert zeros > 0
        assert worst <= 1e-11, worst
        assert worst_scalar <= 1e-11, worst_scalar

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
                    gegenbauer=(2.0, 3.0),
                    degrees=(ell, m),
                )
                proj = refine_until(spec, 1e-11).value / (
                    gegenbauer_norm_sq(2.0, ell) * gegenbauer_norm_sq(3.0, m)
                )
                assert table[ell, m] == pytest.approx(
                    proj, rel=1e-8, abs=1e-12
                )


class TestLatticeGammas:
    """The array lattice against _lgamma_at, entry by entry."""

    @pytest.mark.parametrize(
        "c",
        [3.0, 2.5, -3.0, -2.5, 3.0 + 1e-11, 2.5 - 1e-11, -4.0 + 1e-11,
         3.0 + 1e-9, 2.5 - 1e-9, -4.5 - 1e-9, -7.3, 0.2, 11.37],
    )
    @pytest.mark.parametrize(
        "j",
        [np.arange(-700, 301), np.arange(-300, 701), np.arange(1), np.array([0, 1])],
        ids=["ascending", "descending", "one-point", "two-points"],
    )
    def test_matches_lgamma_at_entry_by_entry(self, c, j):
        # c on an integer or a half-integer, 1e-11 (a pole) and 1e-9 (not
        # one) away, and negative; the two long j, ascending as every lattice
        # vector is (the id "descending" names the mirror range -300..700
        # that the -s lattice once took in descending order), reach x = 1/2
        # from either side.  Poles and signs match to the bit.  A log
        # lies within 16 eps of the larger of |log Gamma| and an anchor
        # block's sum of log|x|, the two sums the recurrence rounds
        (log, sign), = ex._lattice_gammas((c, j))
        ref = np.array([_lgamma_at(c, k) for k in j.tolist()])
        assert np.array_equal(sign, ref[:, 1])
        pole = ref[:, 0] == math.inf
        assert np.array_equal(log == math.inf, pole)
        if len(j) > 2:
            assert pole.any() == (abs(c - round(2.0 * c) / 2.0) < 1e-10)
        x = c + 0.5 * j[~pole]
        scale = np.maximum(np.abs(ref[~pole, 0]), ex._ANCHOR * np.log(2.0 + np.abs(x)))
        assert np.all(np.abs(log[~pole] - ref[~pole, 0]) <= 16 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("c", [3.0, -2.5 + 1e-9, 7.81])
    def test_entry_does_not_depend_on_the_range(self, c):
        # anchors sit at fixed lattice points, so any sub-range gives the
        # same entries to the bit, as the tail's grid reads need
        j = np.arange(-500, 501)
        (log, sign), = ex._lattice_gammas((c, j))
        for lo, hi in ((0, 1001), (37, 38), (100, 333), (498, 640), (900, 1001)):
            (sub_log, sub_sign), = ex._lattice_gammas((c, j[lo:hi]))
            assert np.array_equal(sub_log, log[lo:hi]) and np.array_equal(sub_sign, sign[lo:hi])

    @pytest.mark.parametrize(
        "lam,mu,nu", [(0.0, 0.0, 3.5), (1.3, 1.3, 4.1), (0.7, 1.3, 4.1), (0.0, 2.0, 0.45)]
    )
    def test_one_vector_per_distinct_c(self, lam, mu, nu):
        # at lam = mu = 0 all four pairs share c = nu + 1, and at lam = mu
        # the two l - m pairs do; each c is taken once and sliced, which
        # gives every pair's own vector to the bit.  The -s and -d pairs run
        # down, so their own vectors are taken ascending and turned round
        s, d = np.arange(0, 171), np.arange(-90, 81)
        groups = ex._denominator_lattices(lam, mu, nu, s, d)
        for (log, sign), group in zip(ex._reciprocal_gammas(*groups), groups):
            own_log, own_sign = 0.0, 1.0
            for c, j in group:
                step = 1 if j[0] <= j[-1] else -1
                (lg, sg), = ex._lattice_gammas((c, j[::step]))
                own_log, own_sign = own_log - lg[::step], own_sign * sg[::step]
            assert np.array_equal(log, own_log) and np.array_equal(sign, own_sign)


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

    @pytest.mark.parametrize(
        "s, t, name, bad",
        [(5.0, 0.2, "s", 5.0), (math.nan, 0.2, "s", math.nan),
         (0.2, -1.0 - 1e-12, "t", -1.0 - 1e-12), ([-1.0, 0.3], [1.0, 1.5, math.nan], "t", 1.5)],
        ids=["s-far", "s-nan", "t-just-below", "t-grid"],
    )
    def test_points_outside_the_square_raise(self, s, t, name, bad):
        # the tail estimate is a sup over [-1, 1]^2: at s = 5 the series gave
        # 140811.6 against a kernel of 58706.8, with an estimate of 0.0172
        p = ExpansionParams(1, 1, 3.5, 0)
        with pytest.raises(DomainError, match=f"^{name} must lie in \\[-1, 1\\], got {bad!r}$"):
            series_eval_grid(p, s, t, 10, 10)
        if np.ndim(s) == 0:
            with pytest.raises(DomainError, match=f"^{name} must lie in"):
                series_eval(p, s, t, 10, 10)

    def test_corners_of_the_square_evaluate(self):
        p = ExpansionParams(1, 1, 3.5, 0)
        for s, t in ((1.0, -1.0), (-1.0, -1.0), (1.0, 1.0)):
            r = series_eval(p, s, t, 60, 60)
            assert abs(r.value - kernel_value(p, s, t)) <= r.tail_bound

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
    @pytest.mark.parametrize(
        "lam, mu, nu, eps",
        [
            (0.8, 1.7, 4.6, 0),
            (0.8, 1.7, 4.6, 1),
            (1.0, 1.0, 3.0, 0),  # polynomial kernels: pole zeros past l + m = 6
            (0.6, 1.9, 2.5, 1),
            (0.4, 2.2, 2.5 + 1e-9, 0),  # next to a half-integer
            (2.3, 0.3, 3.5 - 1e-12, 1),
        ],
    )
    def test_term_grid_is_bitwise_coeff_magnitude(self, lam, mu, nu, eps):
        # the grid takes coeff_table's magnitudes before any sign, so it
        # equals |coeff_table| C_l(1) C_m(1) to the bit
        p, N = ExpansionParams(lam, mu, nu, eps), 90
        ref = np.abs(coeff_table(p, N, N))
        ref *= ex._endpoint_values(lam, N)[:, None]
        ref *= ex._endpoint_values(mu, N)
        assert np.array_equal(ex._term_sup_grid(p, N, N), ref)

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

    def test_shells_sum_each_ring(self):
        # shell k sums the grid over max(l, m) = k, and a leading block of
        # the grid gives the same shells to the bit
        T = ex._term_sup_grid(ExpansionParams(0.8, 1.7, 4.6, 1), 150, 150)
        k = np.arange(151)
        ring = np.maximum.outer(k, k)
        shell = ex._shell_sums(T)
        np.testing.assert_allclose(shell, [T[ring == i].sum() for i in k], rtol=1e-14)
        for n in (1, 63, 64, 65, 130):
            assert np.array_equal(ex._shell_sums(T[:n, :n]), shell[:n])

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
        ref = math.pi**1.5 * math.gamma(1.4) / (2.0 * math.gamma(2.6) * math.gamma(2.3))
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

    @mp.workdps(40)
    @pytest.mark.parametrize(
        "lam, mu, nu, ell", [(1.2, 0.8, 1.0028, 174), (0.7, 1.1, 2.9995, 200)]
    )
    def test_near_pole_against_mpmath(self, lam, mu, nu, ell):
        # at x = 0, m = 0 the plus part is its gamma ratio, whose denominator
        # nu + 1 - ell/2 lies 2.8e-3 and 5e-4 from a pole; taken from the
        # rounded float nu - ell/2 + 1 it was 2.2e-12 and 4.4e-12 off
        lam_, mu_, nu_ = (mp.mpf(v) for v in (lam, mu, nu))
        ref = (
            mp.pi**2 * mp.gamma(2 * nu_ + 1) / mp.power(2, 2 * nu_ + 1)
            * mp.rgamma(nu_ + 1 - mp.mpf(ell) / 2) * mp.rgamma(mu_ + 1)
            * mp.rgamma(lam_ + nu_ + 1 + mp.mpf(ell) / 2)
        )
        got = plus_part_integral(lam, mu, nu, ell, 0, 0.0)
        assert got == pytest.approx(float(ref), rel=5e-13, abs=0.0)

    def test_variant_parity_zeros(self):
        assert sheared_integral("abs", 1, 1, 1.2, 1, 2, 0.6) == 0.0
        assert sheared_integral("abssgn", 1, 1, 1.2, 2, 2, 0.6) == 0.0

    @pytest.mark.parametrize("kind, ell, m", [("abs", 1, 0), ("abssgn", 1, 1)])
    @pytest.mark.parametrize(
        "lam, mu, nu, x, message",
        [
            (-5.0, 1.0, 1.0, 0.5, "lam must be finite and exceed -0.5, got -5.0"),
            (math.nan, 1.0, 1.0, 0.5, "lam must be finite and exceed -0.5, got nan"),
            (1.0, -0.5, 1.0, 0.5, "mu must be finite and exceed -0.5, got -0.5"),
            (1.0, math.inf, 1.0, 0.5, "mu must be finite and exceed -0.5, got inf"),
            (1.0, 1.0, 0.0, 0.5, "nu must be finite and exceed 0.0, got 0.0"),
            (1.0, 1.0, math.nan, 0.5, "nu must be finite and exceed 0.0, got nan"),
            (1.0, 1.0, 1.0, 7.0, "x must lie in [-1, 1], got 7.0"),
            (1.0, 1.0, 1.0, math.nan, "x must lie in [-1, 1], got nan"),
        ],
        ids=["lam", "lam-nan", "mu", "mu-inf", "nu", "nu-nan", "x", "x-nan"],
    )
    def test_vanishing_variant_checks_its_arguments(self, kind, ell, m, lam, mu, nu, x,
                                                    message):
        # the parity zero is no answer outside plus_part_integral's domain
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sheared_integral(kind, lam, mu, nu, ell, m, x)

    def test_variant_relations(self):
        # the factors written out, not read from SHEAR_KINDS, so a wrong weight shows
        for ell, m in [(1, 2), (2, 2), (0, 3), (4, 0)]:
            even = (ell + m) % 2 == 0
            factors = {"plus": 1.0, "minus": 1.0 if even else -1.0,
                       "abs": 2.0 if even else 0.0, "abssgn": 0.0 if even else 2.0}
            base = plus_part_integral(1.1, 0.7, 1.2, ell, m, 0.6)
            for kind, factor in factors.items():
                assert sheared_integral(kind, 1.1, 0.7, 1.2, ell, m, 0.6) == factor * base, (
                    kind, ell, m)

    @pytest.mark.parametrize("kind", ["absolute", ["abs"], None])
    def test_unknown_variant(self, kind):
        with pytest.raises(DomainError, match=f"^unknown variant {re.escape(repr(kind))}$"):
            sheared_integral(kind, 1.0, 1.0, 1.0, 0, 0, 0.5)

    def test_base_integral_and_reduction(self):
        assert plus_base_integral(1.0, 1.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)
        # degree-zero reduction: the weighted pair integral is the base one
        # up to the two normalization constants
        lam, mu, nu, x = 0.8, 1.7, 1.3, 0.62
        lhs = plus_part_integral(lam, mu, nu, 0, 0, x)
        rhs = (
            math.pi
            / (math.gamma(lam + 0.5) * math.gamma(mu + 0.5))
            * plus_base_integral(lam + 0.5, mu + 0.5, nu + 0.5, x)
        )
        assert lhs == pytest.approx(rhs, rel=1e-13)

    @mp.workdps(40)
    def test_base_integral_against_mpmath(self):
        # the paper's base formula, which the package no longer spells:
        # sqrt(pi) G(a) G(b) G(c) / (2 G(a+c) G(b+1/2)) 2F1(1/2-c, 1-a-c; b+1/2; x^2)
        def ref(a, b, c, x):
            a, b, c, x = map(mp.mpf, (a, b, c, x))
            return float(mp.sqrt(mp.pi) * mp.gamma(a) * mp.gamma(b) * mp.gamma(c)
                         / (2 * mp.gamma(a + c) * mp.gamma(b + 0.5))
                         * mp.hyp2f1(0.5 - c, 1 - a - c, b + 0.5, x**2))

        rng = np.random.default_rng(20)
        points = [(rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0), rng.uniform(0.51, 3.0),
                   x) for x in [-1.0, 0.0, 1.0] + list(rng.uniform(-1.0, 1.0, 21))]
        # a or b just above gamma_ratio's pole snap at 1e-10
        points += [(3e-10, 1.0, 1.0, 0.5), (1e-9, 0.7, 1.3, -0.4), (1.5, 2e-10, 1.2, 0.3),
                   (5e-10, 5e-10, 0.6, 1.0)]
        for a, b, c, x in points:
            assert plus_base_integral(a, b, c, x) == pytest.approx(ref(a, b, c, x),
                                                                   rel=1e-13), (a, b, c, x)
        # Gamma(a) Gamma(b) / pi past the double range stays inside the one
        # log-space ratio; log-gamma ~ 860 there leaves ~1e-13 of rounding
        for a, b, c, x in [(200.0, 1.0, 1.0, 0.0), (200.0, 1.0, 1.0, 0.1),
                           (1.0, 200.0, 1.0, 0.5), (180.0, 190.0, 2.5, -0.3)]:
            assert plus_base_integral(a, b, c, x) == pytest.approx(ref(a, b, c, x),
                                                                   rel=1e-12), (a, b, c, x)

    def test_base_integral_below_the_pole_snap(self):
        # a within 1e-10 of 0 is Gamma's pole, not a lam = a - 1/2 out of range
        with pytest.raises(PoleError, match=r"^gamma pole at x=1e-20$"):
            plus_base_integral(1e-20, 1.0, 1.0, 0.5)

    def test_base_integral_oracle(self):
        a, b, c, x = 1.4, 0.9, 1.1, 0.5
        spec = QuadratureSpec(
            kernel="plus",
            kernel_exponent=2 * c - 1,
            x_shear=x,
            gegenbauer=(a - 0.5, b - 0.5),
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
                gegenbauer=(lam, mu),
                degrees=(ell, m),
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
                * math.gamma(lam + 0.5)
                * math.gamma(mu + 0.5)
                / math.pi
            )
            assert proj == pytest.approx(mass, rel=1e-10)
            assert b1 == pytest.approx(mass, rel=1e-10)


def _triple_reference(lam, mu, nu, b, ell, m):
    """shear_averaged_projection's closed form in mpmath at the working
    precision."""
    lam_, mu_, nu_, b_ = (mp.mpf(v) for v in (lam, mu, nu, b))
    half, d = (ell + m) // 2, mp.mpf(ell - m) / 2
    return (
        mp.sqrt(mp.pi) * (-1) ** ((m - ell) // 2)
        * mp.rf(2 * lam_, ell) * mp.rf(2 * mu_, m) * mp.rf(-nu_, half)
        / (mp.factorial(ell) * mp.factorial(m))
        * mp.gamma(lam_ + 0.5) * mp.gamma(mu_ + 0.5) * mp.gamma(nu_ + 0.5)
        * mp.gamma(lam_ + mu_ + 2 * nu_ + b_ + 2) * mp.gamma(b_ + 1)
        * mp.rgamma(lam_ + mu_ + nu_ + b_ + half + 2)
        * mp.rgamma(lam_ + nu_ + d + 1) * mp.rgamma(mu_ + nu_ + b_ - d + 2)
    )


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

    @mp.workdps(40)
    @pytest.mark.parametrize(
        "lam, mu, nu, beta_, ell, m",
        [
            (0.9593148736127595, 0.725011039766178, 0.49977932562306604,
             1.7269848574167423, 146, 159),
            (0.9874425395504722, 1.53415020850241, 1.5126574604495275,
             0.28472226773156595, 5, 146),
            (1.5739400862416495, 1.3580699842910515, 0.6970250313423998,
             1.4450049843665482, 163, 2),
        ],
        ids=["nu-side", "lam-side", "mu-side"],
    )
    def test_moment_near_poles_against_mpmath(self, lam, mu, nu, beta_, ell, m):
        # one denominator gamma sits within 2.3e-4 of a pole at each point:
        # nu + 1 - (ell+m)/2, lam + nu + 1 + (ell-m)/2 and
        # mu + nu + beta + 2 + (m-ell)/2.  Taking it from the rounded float
        # c + j/2 loses 3.6e-11 to 6.3e-11 here; at the lattice point the
        # error left, at most 2.1e-12, is the rounding of c itself
        lam_, mu_, nu_, b_ = (mp.mpf(v) for v in (lam, mu, nu, beta_))
        ref = (
            (-1) ** m * mp.pi**2 / mp.power(2, 2 * nu_ + 2)
            * mp.gamma(2 * nu_ + 1) * mp.gamma(b_ + 1) * mp.gamma(lam_ + mu_ + 2 * nu_ + b_ + 2)
            * mp.rgamma(nu_ - mp.mpf(ell + m) / 2 + 1)
            * mp.rgamma(lam_ + nu_ + mp.mpf(ell - m) / 2 + 1)
            * mp.rgamma(mu_ + nu_ + b_ + mp.mpf(m - ell) / 2 + 2)
            * mp.rgamma(lam_ + mu_ + nu_ + b_ + mp.mpf(m + ell) / 2 + 2)
        )
        got = moment_of_plus_integral(lam, mu, nu, beta_, ell, m)
        assert got == pytest.approx(float(ref), rel=5e-12, abs=0.0)

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

    @mp.workdps(40)
    @pytest.mark.parametrize(
        "lam, mu, nu, b, ell, m",
        [
            (1.0, 1.0, 1.3, 0.5, 170, 0),
            (1.0, 1.0, 1.3, 0.5, 200, 0),
            (1.2, 0.8, 1.7, 0.3, 180, 180),
            (0.7, 1.9, 2.0, -0.4, 12, 30),
            (0.0, 1.1, 0.6, 0.2, 0, 40),
        ],
        ids=["ell-170", "ell-200", "both-180", "integer-nu", "lam-zero"],
    )
    def test_triple_against_mpmath(self, lam, mu, nu, b, ell, m):
        # factorials and Pochhammer symbols of degree ~200 overflow a double
        # on their own, while the value does not
        ref = _triple_reference(lam, mu, nu, b, ell, m)
        val = shear_averaged_projection(lam, mu, nu, b, ell, m)
        if ref == 0:
            assert val == 0.0
        else:
            assert val == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    @mp.workdps(40)
    def test_triple_near_pole_against_mpmath(self):
        # lam + nu + 1 + (ell - m)/2 lies 1.1e-4 from a pole.  From the
        # rounded float it was 3.8e-11 off.  At its lattice point the error
        # left, 2.3e-12, is the rounding of c = lam + nu + 1 itself: no
        # double lies nearer than 2.2e-16 to it, and psi ~ 9e3 there
        point = (1.4960538898316895, 1.9374165575072757, 1.503846110168311,
                 0.3205308291458222, 4, 180)
        ref = _triple_reference(*point)
        assert shear_averaged_projection(*point) == pytest.approx(float(ref), rel=5e-12, abs=0.0)

    def test_triple_known_value(self):
        # hand-reduced value at the all-ones parameter point
        assert shear_averaged_projection(1, 1, 1, 0, 0, 0) == pytest.approx(
            5.0 * math.pi**2 / 96.0, rel=1e-13
        )


class TestCosine:
    def test_vanishing_configuration(self):
        assert cosine_expansion(2.0, 0, 0.0, math.pi, 4)[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_polynomial_case(self):
        v = cosine_expansion(2.0, 0, math.pi / 3, math.pi / 4, 6)[0, 0]
        ref = (math.cos(math.pi / 3) + math.cos(math.pi / 4)) ** 2
        assert v == pytest.approx(ref, rel=1e-13)

    def test_degree_seven_sup_error(self):
        angles = np.linspace(0.1, math.pi - 0.1, 9)
        k = np.add.outer(np.cos(angles), np.cos(angles))
        worst = np.abs(cosine_expansion(7.0, 1, angles, angles, 40) - np.abs(k) ** 7 * np.sign(k))
        assert worst.max() < 1e-5

    def test_grid_entry_is_the_sum_at_its_angles(self):
        # the lattice sum written out term by term; the tolerance is relative
        # to the sum of |terms|, since some entries cancel to ~1e-6 of it
        rho, parity, K = 3.3, 1, 12
        phi, psi = np.array([0.2, 1.1, 2.9]), np.array([0.5, 1.6, 2.2, 3.0])
        grid = cosine_expansion(rho, parity, phi, psi, K)
        assert grid.shape == (3, 4)
        pref = 2.0**-rho * math.gamma(rho + 1.0) ** 2
        for i, a in enumerate(phi):
            for j, b in enumerate(psi):
                terms = [
                    pref * math.cos(l * a) * math.cos(m * b)
                    * gamma_ratio((), (1.0 + (rho + l + m) / 2.0, 1.0 + (rho - l - m) / 2.0,
                                       1.0 + (rho + l - m) / 2.0, 1.0 + (rho - l + m) / 2.0))
                    for l in range(-K, K + 1)
                    for m in range(-K, K + 1)
                    if (l - m - parity) % 2 == 0
                ]
                scale = math.fsum(map(abs, terms))
                assert abs(grid[i, j] - math.fsum(terms)) <= 1e-13 * scale

    def test_returned_matrix_is_not_shared(self):
        # changing a returned grid in place leaves the next call's untouched
        first = cosine_expansion(7.0, 1, [0.3, 1.2], [0.4, 2.0], 40)
        before = first.copy()
        first[...] *= 2.0
        np.testing.assert_array_equal(
            cosine_expansion(7.0, 1, [0.3, 1.2], [0.4, 2.0], 40), before
        )


class TestChebyshevPoint:
    """lam = 0 (or mu = 0): the series takes T_n, the limit of (lam + n)
    Gamma(lam) C_n^lam / e_n, and the oracle T_n under the Chebyshev weight."""

    @pytest.mark.parametrize("seed", range(8))
    def test_sheared_integral_against_the_oracle(self, seed):
        rng = np.random.default_rng([seed, 24])
        kind = ("plus", "minus", "abs", "abssgn")[seed % 4]
        lam, mu = rng.uniform(0.2, 2.0, 2)
        lam, mu = (0.0, mu) if seed % 3 == 0 else (lam, 0.0) if seed % 3 == 1 else (0.0, 0.0)
        nu, x = rng.uniform(0.3, 2.5), rng.uniform(-1.0, 1.0)
        ell, m = (int(k) for k in rng.integers(0, 6, 2))
        closed = sheared_integral(kind, lam, mu, nu, ell, m, x)
        oracle = sheared_oracle(kind, lam, mu, nu, ell, m, x, 1e-9)
        assert abs(closed - oracle) <= 1e-9, (kind, lam, mu, nu, ell, m, x)

    @pytest.mark.parametrize("lam, mu, nu, eps, ell, m", [
        (0.0, 1.2, 3.3, 0, 2, 0), (0.0, 0.7, 2.1, 1, 3, 2), (1.4, 0.0, 1.6, 0, 1, 5),
        (0.0, 0.0, 2.6, 1, 4, 1),
    ])
    def test_projection_against_the_oracle(self, lam, mu, nu, eps, ell, m):
        closed = projection_integral(ExpansionParams(lam, mu, nu, eps), ell, m)
        spec = QuadratureSpec("abssgn" if eps else "abs", 2.0 * nu, 1.0, (lam, mu), (ell, m))
        assert closed == pytest.approx(refine_until(spec, 1e-12).value, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("lam, mu, nu, b, ell, m", [
        (0.0, 1.0, 1.0, 0.0, 2, 0), (1.3, 0.0, 1.4, 0.6, 1, 1), (0.0, 0.0, 0.9, 1.1, 3, 1),
    ])
    def test_shear_averaged_projection_against_the_oracle(self, lam, mu, nu, b, ell, m):
        # the closed form read C_ell^0 = 0 while the oracle's spec now takes T_ell
        p = {"lambda": lam, "mu": mu, "nu": nu, "b": b, "ell": ell, "m": m}
        closed = shear_averaged_projection(lam, mu, nu, b, ell, m)
        assert closed != 0.0
        assert closed == pytest.approx(_shear_averaged_oracle("abs", p, 1e-9), rel=1e-7)

    def test_norm_of_t_n(self):
        nodes, weights = gauss_jacobi_rule(-0.5, -0.5, 40)
        for n in range(8):
            quad = float(weights @ np.cos(n * np.arccos(nodes)) ** 2)
            assert gegenbauer_norm_sq(0.0, n) == pytest.approx(quad, rel=1e-14)
        assert gegenbauer_norm_sq(0.0, 0) == math.pi
        assert gegenbauer_norm_sq(0.0, 9) == math.pi / 2.0

    @pytest.mark.parametrize("point, tol, order", [
        ((0.0, 0.0, 3.5, 0), 1e-6, (22, 22)), ((0.0, 0.0, 3.7, 1), 1e-6, None),
        ((0.0, 1.1, 4.2, 0), 1e-7, None), ((0.9, 0.0, 4.6, 1), 1e-6, None),
    ])
    def test_series_to_tolerance(self, point, tol, order):
        params = ExpansionParams(*point)
        L, M = truncation_order(params, tol)
        assert order is None or (L, M) == order
        assert tail_bound(params, L, M) < tol
        pts = np.linspace(-1.0, 1.0, 65)
        series = series_eval_grid(params, pts, pts, L, M)
        kernel = kernel_value(params, pts[:, None], pts[None, :])
        assert np.abs(series - kernel).max() <= tol

    @pytest.mark.parametrize("point", [(0.0, 0.0, 3.5, 0), (0.0, 1.1, 4.2, 1), (0.8, 0.0, 4.3, 0)])
    def test_the_limit_of_small_parameters(self, point):
        # coeff_table and the series at 1e-7 differ from their values at 0 by O(1e-7)
        # relative; the table's entries at 0 are the coefficients of T_l
        lam, mu, nu, eps = point
        at_zero, near = ExpansionParams(*point), ExpansionParams(lam or 1e-7, mu or 1e-7, nu, eps)
        pts = np.linspace(-1.0, 1.0, 17)
        a = series_eval_grid(at_zero, pts, pts, 30, 30)
        b = series_eval_grid(near, pts, pts, 30, 30)
        assert np.abs(a - b).max() <= 1e-6 * np.abs(a).max()
        table = coeff_table(at_zero, 12, 12)
        for ell, m in [(0, 0), (1, 1), (2, 0), (5, 3), (12, 12), (0, 1), (7, 2), (3, 12)]:
            if (ell + m) % 2 == eps:
                coeff = expansion_coeff(lam, mu, nu, ell, m)
                assert coeff == pytest.approx(table[ell, m], rel=1e-13)

    @pytest.mark.parametrize("rho, parity", [(7.0, 1), (5.5, 0), (8.3, 1), (4.4, 0)])
    def test_cosine_expansion_is_the_series(self, rho, parity):
        # s = cos(phi), t = -cos(psi): |cos(phi) + cos(psi)|^rho is the kernel at nu = rho/2
        phi, psi = np.linspace(0.1, 3.0, 7), np.linspace(0.2, 3.1, 5)
        cosine = cosine_expansion(rho, parity, phi, psi, 30)
        series = series_eval_grid(ExpansionParams(0.0, 0.0, 0.5 * rho, parity),
                                  np.cos(phi), -np.cos(psi), 30, 30, force=True)
        assert np.abs(cosine - series).max() <= 1e-14 * np.abs(series).max()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: mehta2(1e308), "gamma argument 1e+308"),
        (lambda: plus_part_integral(1e308, 1.0, 1.0, 0, 0, 0.5), "gamma argument 1e+308"),
        (lambda: sheared_integral("abs", 1e308, 1.0, 1.0, 0, 0, 0.5), "gamma argument 1e+308"),
        (lambda: expansion_coeff(1e306, 1.0, 1.0, 0, 0), "gamma argument 1e+306"),
        (lambda: coeff_table(ExpansionParams(1e306, 1.0, 1.0), 2, 2), "gamma argument 1e+306"),
        (lambda: hermite_kernel_integral(1.0, 0, 2, 1e200), "x=1e+200"),
        (lambda: hermite_kernel_integral(1.5, 600, 600, 0.5), "ell=600, m=600"),
    ],
    ids=["mehta2", "plus_part_integral", "sheared_integral", "expansion_coeff",
         "coeff_table", "hermite-x", "hermite-degree"],
)
def test_huge_finite_argument_is_a_domain_error(call, match):
    # math.lgamma, x**m or 2.0**(ell+m) overflows here; none may escape as OverflowError
    with pytest.raises(DomainError, match=re.escape(match)):
        call()


class TestHermiteIntegral:
    def test_known_values(self):
        assert hermite_kernel_integral(0.5, 0, 0, 1.0) == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-14
        )
        nu = 1.3
        assert hermite_kernel_integral(nu, 0, 0, 0.0) == pytest.approx(
            math.sqrt(math.pi) * math.gamma(nu + 0.5), rel=1e-14
        )

    def test_parity_error(self):
        with pytest.raises(DomainError):
            hermite_kernel_integral(1.0, 1, 2, 0.5)

    def test_matches_the_linear_product(self):
        # the log-space product against the rising factorial times powers of
        # x, at integer, half-integer and random nu, both signs of x and x = 0
        rng = np.random.default_rng(23)
        nus = [1.0, 2.0, 3.0, 0.5, 1.5, 2.5] + rng.uniform(0.05, 6.0, 24).tolist()
        for nu in nus:
            for ell, m in [(0, 0), (1, 1), (2, 0), (0, 4), (3, 5), (6, 2), (7, 7)]:
                for x in (0.0, 0.3, -0.7, 1.0, -2.5, 6.0):
                    half = (ell + m) // 2
                    ref = (math.prod(k - nu for k in range(half))
                           * (-1.0) ** ((ell - m) // 2) * 2.0 ** (ell + m)
                           * math.sqrt(math.pi) * math.gamma(nu + 0.5)
                           * (x * x + 1.0) ** (nu - half) * x**m)
                    got = hermite_kernel_integral(nu, ell, m, x)
                    assert got == pytest.approx(ref, rel=1e-13, abs=0.0), (nu, ell, m, x)

    def test_finite_past_the_linear_products_range(self):
        # (-nu)_171 overflows and (x^2 + 1)^(nu - 171) underflows: their
        # product was nan; the value is mpmath's at 40 digits
        got = hermite_kernel_integral(1.5, 171, 171, 20.0)
        assert got == pytest.approx(3.8596362597692949e+187, rel=1e-12)

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

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: kernel_value(ExpansionParams(1, 1, 1), 7.0, math.nan),
             "t must be finite, got nan"),
            (lambda: kernel_value(ExpansionParams(1, 1, 1), [0.2, -math.inf], 0.1),
             "s must be finite, got -inf"),
            (lambda: cosine_expansion(2.0, 0, math.nan, 0.2, 4), "phi must be finite, got nan"),
            (lambda: cosine_expansion(2.0, 0, 0.1, [0.2, math.inf], 4),
             "psi must be finite, got inf"),
        ],
        ids=["kernel-t-nan", "kernel-s-minus-inf", "cosine-phi-nan", "cosine-psi-inf"],
    )
    def test_non_finite_point_is_named(self, call, message):
        # these points were evaluated: nan and [[nan]] came back
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: shear_averaged_projection(math.nan, 1.0, 1.0, 0.0, 1, 2),
             "lam must be finite and exceed -0.5, got nan"),
            (lambda: hermite_kernel_integral(math.nan, 1, 2, 0.5),
             "nu must be finite and exceed 0.0, got nan"),
        ],
        ids=["triple", "hermite"],
    )
    def test_parameters_are_checked_before_parity(self, call, message):
        # an odd ell + m with a bad parameter raised "requires ell + m even"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    def test_finite_points_outside_the_square_evaluate(self):
        # only the series needs [-1, 1]; the kernel and the angles are any finite reals
        assert kernel_value(ExpansionParams(1, 1, 1), 7.0, 2.0) == 25.0
        assert cosine_expansion(2.0, 0, 7.0, -4.0, 4).shape == (1, 1)


_PARAMS = ExpansionParams(1.0, 1.0, 3.5, 0)
DEGREE_ENTRIES = {
    "expansion_coeff-ell": lambda n: expansion_coeff(1.0, 1.0, 1.0, n, 0),
    "expansion_coeff-m": lambda n: expansion_coeff(1.0, 1.0, 1.0, 0, n),
    "projection_integral-ell": lambda n: projection_integral(_PARAMS, n, 0),
    "projection_integral-m": lambda n: projection_integral(_PARAMS, 0, n),
    "sheared_integral-ell": lambda n: sheared_integral("abs", 1.0, 1.0, 1.0, n, 1, 0.5),
    "sheared_integral-m": lambda n: sheared_integral("abs", 1.0, 1.0, 1.0, 1, n, 0.5),
    "plus_part_integral-ell": lambda n: plus_part_integral(1.0, 1.0, 1.0, n, 0, 0.5),
    "plus_part_integral-m": lambda n: plus_part_integral(1.0, 1.0, 1.0, 0, n, 0.5),
    "moment_of_plus_integral-ell": lambda n: moment_of_plus_integral(1.0, 1.0, 1.0, 0.0, n, 0),
    "moment_of_plus_integral-m": lambda n: moment_of_plus_integral(1.0, 1.0, 1.0, 0.0, 0, n),
    "shear_averaged_projection-ell": lambda n: shear_averaged_projection(1.0, 1.0, 1.0, 0.0, n, 2),
    "shear_averaged_projection-m": lambda n: shear_averaged_projection(1.0, 1.0, 1.0, 0.0, 2, n),
    "hermite_kernel_integral-ell": lambda n: hermite_kernel_integral(1.0, n, 2, 0.3),
    "hermite_kernel_integral-m": lambda n: hermite_kernel_integral(1.0, 2, n, 0.3),
    "coeff_table-L": lambda n: coeff_table(_PARAMS, n, 2),
    "coeff_table-M": lambda n: coeff_table(_PARAMS, 2, n),
    "series_eval_grid-L": lambda n: series_eval_grid(_PARAMS, [0.1], [0.2], n, 2),
    "series_eval_grid-M": lambda n: series_eval_grid(_PARAMS, [0.1], [0.2], 2, n),
    "tail_bound-L": lambda n: tail_bound(_PARAMS, n, 2),
    "tail_bound-M": lambda n: tail_bound(_PARAMS, 2, n),
    "cosine_expansion": lambda n: cosine_expansion(2.0, 0, 0.1, 0.2, n),
    "gegenbauer": lambda n: gegenbauer(1.0, n, 0.3),
    "gegenbauer_all": lambda n: gegenbauer_all(1.0, n, 0.3),
    "gegenbauer_norm_sq": lambda n: gegenbauer_norm_sq(1.0, n),
    "u_prefactor": lambda n: u_prefactor(1.0, n),
    "hermite": lambda n: hermite(n, 0.3),
    "QuadratureSpec-ell": lambda n: QuadratureSpec("abs", gegenbauer=(1.0, 1.0), degrees=(n, 0)),
    "QuadratureSpec-m": lambda n: QuadratureSpec("abs", gegenbauer=(1.0, 1.0), degrees=(0, n)),
}


@pytest.mark.parametrize("call", DEGREE_ENTRIES.values(), ids=DEGREE_ENTRIES.keys())
def test_degree_is_a_nonnegative_integer(call):
    # numpy integers pass; 2.5 and -1 are refused before any parity shortcut
    call(np.int64(2))
    for bad in (2.5, -1):
        with pytest.raises(DomainError, match=f"must be a nonnegative integer, got {bad!r}$"):
            call(bad)


_SPEC = QuadratureSpec("abs")
#: Each real parameter of each public entry point: (name, floor, call with
#: that parameter set and every other argument valid).
REAL_ENTRIES = {
    "ExpansionParams-lam": ("lam", 0.0, lambda v: ExpansionParams(v, 1.0, 1.0)),
    "ExpansionParams-mu": ("mu", 0.0, lambda v: ExpansionParams(1.0, v, 1.0)),
    "ExpansionParams-nu": ("nu", 0.0, lambda v: ExpansionParams(1.0, 1.0, v)),
    "expansion_coeff-lam": ("lam", 0.0, lambda v: expansion_coeff(v, 1.0, 1.0, 0, 0)),
    "expansion_coeff-mu": ("mu", 0.0, lambda v: expansion_coeff(1.0, v, 1.0, 0, 0)),
    "expansion_coeff-nu": ("nu", 0.0, lambda v: expansion_coeff(1.0, 1.0, v, 0, 0)),
    "truncation_order-tol": ("tol", 0.0, lambda v: truncation_order(_PARAMS, v)),
    "plus_part_integral-lam": ("lam", -0.5, lambda v: plus_part_integral(v, 1.0, 1.0, 0, 0, 0.5)),
    "plus_part_integral-mu": ("mu", -0.5, lambda v: plus_part_integral(1.0, v, 1.0, 0, 0, 0.5)),
    "plus_part_integral-nu": ("nu", 0.0, lambda v: plus_part_integral(1.0, 1.0, v, 0, 0, 0.5)),
    "sheared_integral-lam":
        ("lam", -0.5, lambda v: sheared_integral("plus", v, 1.0, 1.0, 0, 0, 0.5)),
    "sheared_integral-mu":
        ("mu", -0.5, lambda v: sheared_integral("plus", 1.0, v, 1.0, 0, 0, 0.5)),
    "sheared_integral-nu":
        ("nu", 0.0, lambda v: sheared_integral("plus", 1.0, 1.0, v, 0, 0, 0.5)),
    "plus_base_integral-a": ("a", 0.0, lambda v: plus_base_integral(v, 1.0, 1.0, 0.5)),
    "plus_base_integral-b": ("b", 0.0, lambda v: plus_base_integral(1.0, v, 1.0, 0.5)),
    "plus_base_integral-c": ("c", 0.5, lambda v: plus_base_integral(1.0, 1.0, v, 0.5)),
    "moment_of_plus_integral-lam":
        ("lam", -0.5, lambda v: moment_of_plus_integral(v, 1.0, 1.0, 0.0, 0, 0)),
    "moment_of_plus_integral-mu":
        ("mu", -0.5, lambda v: moment_of_plus_integral(1.0, v, 1.0, 0.0, 0, 0)),
    "moment_of_plus_integral-nu":
        ("nu", 0.0, lambda v: moment_of_plus_integral(1.0, 1.0, v, 0.0, 0, 0)),
    "moment_of_plus_integral-beta":
        ("beta", -1.0, lambda v: moment_of_plus_integral(1.0, 1.0, 1.0, v, 0, 0)),
    "shear_averaged_projection-lam":
        ("lam", -0.5, lambda v: shear_averaged_projection(v, 1.0, 1.0, 0.0, 0, 0)),
    "shear_averaged_projection-mu":
        ("mu", -0.5, lambda v: shear_averaged_projection(1.0, v, 1.0, 0.0, 0, 0)),
    "shear_averaged_projection-nu":
        ("nu", 0.0, lambda v: shear_averaged_projection(1.0, 1.0, v, 0.0, 0, 0)),
    "shear_averaged_projection-b":
        ("b", -1.0, lambda v: shear_averaged_projection(1.0, 1.0, 1.0, v, 0, 0)),
    "cosine_expansion-rho": ("rho", 0.0, lambda v: cosine_expansion(v, 0, 0.1, 0.2, 4)),
    "hermite_kernel_integral-nu": ("nu", 0.0, lambda v: hermite_kernel_integral(v, 0, 0, 0.5)),
    "hermite_kernel_integral-x":
        ("x", -math.inf, lambda v: hermite_kernel_integral(1.0, 0, 0, v)),
    "weighted_power_mass-lam": ("lam", -0.5, lambda v: weighted_power_mass(v, 1.0, 1.0)),
    "weighted_power_mass-mu": ("mu", -0.5, lambda v: weighted_power_mass(1.0, v, 1.0)),
    "weighted_power_mass-nu": ("nu", -0.5, lambda v: weighted_power_mass(1.0, 1.0, v)),
    "selberg2-lam": ("lam", -0.5, lambda v: selberg2(v, 1.0)),
    "selberg2-nu": ("nu", -0.5, lambda v: selberg2(1.0, v)),
    "warnaar-lam": ("lam", -0.5, lambda v: warnaar(v, 0.3)),
    "warnaar-mu": ("mu", -0.5, lambda v: warnaar(0.2, v)),
    "tarasov_varchenko-lam": ("lam", -0.5, lambda v: tarasov_varchenko(v, 1.0)),
    "tarasov_varchenko-nu": ("nu", -0.5, lambda v: tarasov_varchenko(1.0, v)),
    "dotsenko_fateev-lam": ("lam", -0.5, lambda v: dotsenko_fateev(v, 1.4)),
    "dotsenko_fateev-mu": ("mu", -0.5, lambda v: dotsenko_fateev(1.3, v)),
    "mehta2-nu": ("nu", -0.5, mehta2),
    "gegenbauer-lam": ("lam", -0.5, lambda v: gegenbauer(v, 2, 0.5)),
    "gegenbauer_all-lam": ("lam", -0.5, lambda v: gegenbauer_all(v, 2, 0.5)),
    "gegenbauer_norm_sq-lam": ("lam", -0.5, lambda v: gegenbauer_norm_sq(v, 2)),
    "u_prefactor-lam": ("lam", -0.5, lambda v: u_prefactor(v, 0)),
    "gauss_jacobi_rule-alpha": ("alpha", -1.0, lambda v: gauss_jacobi_rule(v, 0.0, 4)),
    "gauss_jacobi_rule-beta": ("beta", -1.0, lambda v: gauss_jacobi_rule(0.0, v, 4)),
    "QuadratureSpec-kernel_exponent":
        ("kernel exponent", -1.0, lambda v: QuadratureSpec("abs", kernel_exponent=v)),
    "QuadratureSpec-gegenbauer-lam":
        ("Gegenbauer parameter", -0.5, lambda v: QuadratureSpec("abs", gegenbauer=(v, 1.0))),
    "QuadratureSpec-gegenbauer-mu":
        ("Gegenbauer parameter", -0.5, lambda v: QuadratureSpec("abs", gegenbauer=(1.0, v))),
    "QuadratureSpec-extra_axis-alpha":
        ("extra_axis exponent", -1.0, lambda v: QuadratureSpec("abs", extra_axis=(v, 0.0))),
    "QuadratureSpec-extra_axis-beta":
        ("extra_axis exponent", -1.0, lambda v: QuadratureSpec("abs", extra_axis=(0.0, v))),
    "refine_until-target": ("target", 0.0, lambda v: refine_until(_SPEC, v)),
    "integrate_hermite_2d-nu": ("nu", 0.0, lambda v: integrate_hermite_2d(v, 0.5, 0, 0, 1e-6)),
    "integrate_hermite_2d-x":
        ("x", -math.inf, lambda v: integrate_hermite_2d(1.0, v, 0, 0, 1e-6)),
    "integrate_hermite_2d-target":
        ("target", 0.0, lambda v: integrate_hermite_2d(1.0, 0.5, 0, 0, v)),
    "regularized_inverse_square-lam":
        ("lam", -0.5, lambda v: regularized_inverse_square(v, 1.4, 1e-4)),
    "regularized_inverse_square-mu":
        ("mu", -0.5, lambda v: regularized_inverse_square(1.4, v, 1e-4)),
    "regularized_inverse_square-target":
        ("target", 0.0, lambda v: regularized_inverse_square(1.3, 1.4, v)),
    "hyp2f1-a": ("a", -math.inf, lambda v: hyp2f1(v, 1.0, 2.0, 0.5)),
    "hyp2f1-b": ("b", -math.inf, lambda v: hyp2f1(1.0, v, 2.0, 0.5)),
    "hyp2f1-c": ("c", -math.inf, lambda v: hyp2f1(1.0, 1.0, v, 0.5)),
    "gamma": ("argument", -math.inf, lambda v: gamma_ratio((v,))),
    "rgamma": ("argument", -math.inf, lambda v: gamma_ratio((), (v,))),
    "run_suite-tol": ("tol", 0.0, lambda v: run_suite("mehta", tol=v, cases=0)),
}


#: Entries whose floor is itself admitted: lam = 0 or mu = 0 is the
#: Chebyshev point of the series, so their message says "at least" the floor.
FLOOR_ADMITTED = {"ExpansionParams-lam", "ExpansionParams-mu", "expansion_coeff-lam",
                  "expansion_coeff-mu"}


@pytest.mark.parametrize("entry", REAL_ENTRIES, ids=REAL_ENTRIES.keys())
def test_real_parameter_is_finite_and_above_its_floor(entry):
    # the floor itself is refused too, except the -inf of an unbounded
    # parameter and an admitted floor, where a value below it is refused
    name, floor, call = REAL_ENTRIES[entry]
    below = (floor - 0.5,) if entry in FLOOR_ADMITTED else (floor,) if floor > -math.inf else ()
    rule = "at least" if entry in FLOOR_ADMITTED else "exceed"
    for bad in (math.nan, math.inf, -math.inf) + below:
        message = f"{name} must be finite and {rule} {floor}, got {bad!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(bad)
    if entry in FLOOR_ADMITTED:
        call(floor)
        call(-0.0)
