"""Quadrature oracle: exactness, split logic, refinement, and honesty."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gegenexp import oracle as orc
from gegenexp import verify as vf
from gegenexp.expansion import (
    dotsenko_fateev,
    plus_base_integral,
    shear_averaged_projection,
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

    def test_nan_exponents(self):
        with pytest.raises(DomainError):
            QuadratureSpec(kernel="abs", kernel_exponent=math.nan)
        with pytest.raises(DomainError):
            QuadratureSpec(weight_exponents=(0.0, math.nan))

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_exponents(self, value):
        with pytest.raises(DomainError, match="finite"):
            QuadratureSpec(kernel="abs", kernel_exponent=value)
        with pytest.raises(DomainError, match="finite"):
            QuadratureSpec(weight_exponents=(value, 0.0))

    @pytest.mark.parametrize("x", [0.4, 1.0])
    def test_extra_axis_takes_no_shear(self, x):
        # the extra axis sets the shear, so a set x_shear would be ignored
        with pytest.raises(DomainError, match="extra_axis"):
            QuadratureSpec(extra_axis=(1.0, 0.0), x_shear=x)

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

    def test_square_area(self):
        r = refine_until(QuadratureSpec(), 1e-8)
        assert r.value == pytest.approx(4.0, abs=1e-11)

    def test_plus_part_of_linear_kernel(self):
        r = refine_until(
            QuadratureSpec(kernel="plus", kernel_exponent=1.0, x_shear=0.0),
            1e-8,
        )
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_monomial_factors(self):
        # int s^2 dt ds over the square = (2/3) * 2
        spec = QuadratureSpec(polynomial_factors=(("monomial", 2), None))
        assert refine_until(spec, 1e-8).value == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_weighted_mass_matches_closed_form(self):
        for lam, mu, nu in [(0.5, 0.5, 1.0), (1.3, 0.7, 0.6), (0.3, 2.1, 1.7)]:
            spec = QuadratureSpec(
                kernel="abs",
                kernel_exponent=2 * nu,
                x_shear=1.0,
                weight_exponents=(lam - 0.5, mu - 0.5),
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
            weight_exponents=(lam - 0.5, mu - 0.5),
            polynomial_factors=(("gegenbauer", lam, ell), ("gegenbauer", mu, m)),
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
        spec = QuadratureSpec(polynomial_factors=(("monomial", 4), None))
        r = refine_until(spec, 1e-12, max_level=1)
        assert r.est_error <= 1e-12

    def test_exhaustion_carries_best_value(self):
        spec = QuadratureSpec(
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

    @pytest.mark.parametrize("target,max_level", [(math.nan, 5), (1e-8, 0), (1e-8, -1)])
    def test_usage_error_evaluates_nothing(self, target, max_level, monkeypatch):
        calls = []
        monkeypatch.setattr(orc, "_eval_2d", lambda *args: calls.append(args))
        with pytest.raises(DomainError):
            refine_until(QuadratureSpec(), target, max_level)
        assert calls == []

    def test_driver_stops_at_first_agreeing_rung(self):
        # rung k returns 2^-k: consecutive rungs differ by 2^-k
        r = orc._refine(lambda k: (2.0**-k, 10), 0.3, 5)
        assert (r.value, r.est_error, r.evaluations, r.level) == (0.25, 0.25, 30, 2)
        with pytest.raises(OracleConvergenceError) as info:
            orc._refine(lambda k: (2.0**-k, 10), 0.01, 3)
        assert (info.value.value, info.value.est_error) == (0.125, 0.125)

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


class TestTriangles:
    def test_halves_sum_to_full(self):
        lam, mu, nu = 0.9, 1.3, 0.7
        # at x = 1 the minus kernel is the half s < t and plus the half t < s
        common = dict(
            kernel_exponent=2 * nu,
            x_shear=1.0,
            weight_exponents=(lam - 0.5, mu - 0.5),
        )
        lower = refine_until(QuadratureSpec(kernel="minus", **common), 1e-10).value
        upper = refine_until(QuadratureSpec(kernel="plus", **common), 1e-10).value
        assert lower + upper == pytest.approx(
            weighted_power_mass(lam, mu, nu), rel=1e-10
        )


def test_unit_rule_is_read_only():
    for arr in orc._unit_rule(0.4, -0.3, 6, 8):
        with pytest.raises(ValueError):
            arr[0] = 5.0


class TestRegularizedKernel:
    def test_profile_even_and_compact(self):
        g, evals = convolution_profile(
            0.8, 0.9, np.array([0.31, -0.31, 2.3, -2.0]), orc._ladder(2)
        )
        assert g[0] == g[1] and g[0] > 0.0
        assert g[2] == 0.0 and g[3] == 0.0
        # _ladder(2) = (order 14, 16 grading levels); exponents (exp_t, exp_s)
        assert evals == 4 * orc._unit_rule(0.9, 0.8, 16, 14)[0].size

    def test_matches_continuation_closed_form(self):
        for lam, mu in [(1.3, 1.4), (2.0, 0.8)]:
            r = regularized_inverse_square(lam - 0.5, mu - 0.5, 1e-6)
            ref = dotsenko_fateev(lam, mu)
            assert r.value == pytest.approx(ref, rel=1e-5)

    def test_domain_guard(self):
        for exp_s, exp_t in [(0.2, -0.3), (math.nan, 0.5)]:
            with pytest.raises(DomainError):
                regularized_inverse_square(exp_s, exp_t, 1e-6)

    def test_estimate_covers_error_over_draw_range(self):
        # consecutive rungs share the G(u) - G(0) rounding noise, so their
        # difference alone understates the error; the noise floor covers it
        for lam, mu in itertools.product(np.linspace(0.9, 2.0, 6), repeat=2):
            r = regularized_inverse_square(lam - 0.5, mu - 0.5, 1e-6)
            ref = dotsenko_fateev(lam, mu)
            assert abs(r.value - ref) <= r.est_error


class TestThreeDimensional:
    SPEC = QuadratureSpec(
        kernel="abs",
        kernel_exponent=2.0,
        weight_exponents=(0.5, 0.5),
        extra_axis=(1.0, 0.0),
    )

    def test_known_value(self):
        r = refine_until(self.SPEC, 1e-7, max_level=2)
        # 5 pi^2 / 96, reduced by hand from the gamma product
        assert r.value == pytest.approx(5.0 * math.pi**2 / 96.0, rel=1e-7)

    def test_evaluation_counts(self):
        # 32 then 48 outer shears, each 112 + 2 * 112^2 and 264 + 2 * 264^2
        assert orc._eval_3d(self.SPEC, 0)[1] == 806_400
        assert orc._eval_3d(self.SPEC, 1)[1] == 6_703_488

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
            weight_exponents=(lam - 0.5, mu - 0.5),
            polynomial_factors=(("gegenbauer", lam, ell), ("gegenbauer", mu, m)),
            extra_axis=(mu + m / 2.0, b),
        )
        truth = shear_averaged_projection(lam, mu, nu, b, ell, m)
        # both targets climb the same rungs: evaluate each rung once
        rungs = {}
        real = orc._eval_3d

        def once(s, level):
            if level not in rungs:
                rungs[level] = real(s, level)
            return rungs[level]

        monkeypatch.setattr(orc, "_eval_3d", once)
        for target in (1e-8, 1e-6):
            r = refine_until(spec, target)
            err = abs(r.value - truth)
            assert r.level == 1
            assert err <= target
            assert err <= max(r.est_error, 1e-12)


def _geg_spec(kernel, n_s=3, n_t=1, **fields):
    geg = (("gegenbauer", 1.1, n_s), ("gegenbauer", 1.3, n_t))
    return QuadratureSpec(
        kernel=kernel, kernel_exponent=1.4, weight_exponents=(0.3, -0.2),
        polynomial_factors=geg, **fields,
    )


def _vector_specs():
    # factor parities chosen so that no integral vanishes by symmetry
    specs = {kernel: _geg_spec(kernel) for kernel in KERNELS}
    specs["abssgn"] = _geg_spec("abssgn", n_t=2)
    specs["none"] = _geg_spec("none", n_s=2, n_t=2)
    return specs


class TestShearVector:
    SHEARS = np.array([-1.0, -0.6, 0.0, 0.35, 0.9, 1.0])

    @pytest.mark.parametrize("name", sorted(_vector_specs()))
    def test_each_shear_matches_its_scalar_call(self, name):
        spec = _vector_specs()[name]
        size = orc._ladder(1)
        values, evals = orc._eval_2d(spec, self.SHEARS, size)
        scale = np.abs(values).max()
        for x, v in zip(self.SHEARS, values):
            one, one_evals = orc._eval_2d(spec, [x], size)
            assert abs(v - one[0]) <= 1e-14 * scale
        assert evals == self.SHEARS.size * one_evals


class TestChunking:
    """A _CHUNK of 2^8 entries changes only the blocking, not the values."""

    def _small_chunk(self, monkeypatch, compute):
        default = compute()
        monkeypatch.setattr(orc, "_CHUNK", 1 << 8)
        return default, compute()

    def test_eval_2d(self, monkeypatch):
        spec = _vector_specs()["abssgn"]
        shears = np.linspace(-1.0, 1.0, 7)
        a, b = self._small_chunk(monkeypatch, lambda: orc._eval_2d(spec, shears, orc._ladder(2)))
        np.testing.assert_allclose(b[0], a[0], rtol=1e-13, atol=1e-13 * np.abs(a[0]).max())
        assert a[1] == b[1]

    def test_eval_3d(self, monkeypatch):
        spec = QuadratureSpec(
            kernel="abs",
            kernel_exponent=1.7,
            weight_exponents=(0.4, 0.9),
            polynomial_factors=(("gegenbauer", 0.9, 2), ("gegenbauer", 1.4, 2)),
            extra_axis=(1.2, 0.5),
        )
        a, b = self._small_chunk(monkeypatch, lambda: orc._eval_3d(spec, 1))
        assert b[0] == pytest.approx(a[0], rel=1e-13, abs=0.0) and a[1] == b[1]

    def test_convolution_profile(self, monkeypatch):
        u = np.linspace(-2.1, 2.1, 101)
        a, b = self._small_chunk(
            monkeypatch, lambda: convolution_profile(0.8, 0.9, u, orc._ladder(2))
        )
        np.testing.assert_allclose(b[0], a[0], rtol=1e-13, atol=1e-13 * np.abs(a[0]).max())
        assert a[1] == b[1]

    def test_hermite(self, monkeypatch):
        a, b = self._small_chunk(
            monkeypatch, lambda: integrate_hermite_2d(0.8, 0.6, 3, 1, 1e-9)
        )
        assert b.value == pytest.approx(a.value, rel=1e-13, abs=0.0)
        assert (a.evaluations, a.level) == (b.evaluations, b.level)


#: One call per chunked kernel, each with many row blocks.
CHUNKED = {
    "eval_2d": lambda: orc._eval_2d(
        _geg_spec("abs", 5, 5), np.linspace(-1.0, 1.0, 7), orc._ladder(2)
    ),
    "eval_3d": lambda: orc._eval_3d(_geg_spec("abs", 5, 5, extra_axis=(1.2, 0.5)), 1),
    "convolution_profile": lambda: convolution_profile(
        0.8, 0.9, np.linspace(-2.0, 2.0, 3001), orc._ladder(3)
    ),
    "hermite": lambda: integrate_hermite_2d(0.8, 0.6, 3, 1, 1e-9),
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
    # separable monomials against closed-form beta moments
    lam, mu = 1.2, 0.7
    for i, j in [(0, 0), (2, 4), (6, 2)]:
        spec = QuadratureSpec(
            weight_exponents=(lam - 0.5, mu - 0.5),
            polynomial_factors=(("monomial", i), ("monomial", j)),
        )
        got = refine_until(spec, 1e-8).value
        exact = beta((i + 1) / 2.0, lam + 0.5) * beta((j + 1) / 2.0, mu + 0.5)
        assert got == pytest.approx(exact, rel=1e-12)


#: One case per oracle backend: target -> QuadResult.
BACKENDS = {
    "refine_until": lambda target: refine_until(
        QuadratureSpec(
            kernel="abs",
            kernel_exponent=0.2,
            x_shear=1.0,
            weight_exponents=(-0.3, -0.4),
        ),
        target,
    ),
    "hermite": lambda target: integrate_hermite_2d(0.8, 0.6, 1, 1, target),
    "finite_part": lambda target: regularized_inverse_square(0.8, 0.9, target),
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
