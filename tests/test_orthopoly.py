"""Polynomial evaluation, norms, the u normalization, and Gaussian rules."""

import itertools
import math
from functools import partial

import numpy as np
import pytest

from gegenexp.orthopoly import (
    gauss_hermite_rule,
    gauss_jacobi_rule,
    gauss_jacobi_rules,
    gegenbauer,
    gegenbauer_all,
    gegenbauer_norm_sq,
    hermite,
    u_prefactor,
)
from gegenexp.specfun import LN2, DomainError, gamma_ratio


def gegenbauer_rule(lam, order):
    """Gaussian rule for the weight (1-x^2)^(lam-1/2)."""
    return gauss_jacobi_rule(lam - 0.5, lam - 0.5, order)


class TestGegenbauer:
    def test_degree_zero(self):
        assert gegenbauer(0.7, 0, 0.23) == 1.0

    def test_quadratic(self):
        # C_2 at parameter 1 is 4x^2 - 1
        assert gegenbauer(1.0, 2, 0.5) == pytest.approx(0.0, abs=1e-15)
        xs = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(gegenbauer(1.0, 2, xs), 4 * xs**2 - 1, atol=1e-14)

    def test_endpoint_value(self):
        # C_n(1) = Gamma(n + 2 lam) / (n! Gamma(2 lam))
        assert gegenbauer(2.0, 3, 1.0) == pytest.approx(20.0, rel=1e-14)
        assert gegenbauer(0.8, 40, 1.0) == pytest.approx(
            math.gamma(40 + 1.6) / (math.factorial(40) * math.gamma(1.6)), rel=1e-12
        )

    def test_lambda_domain(self):
        # lam = 0 is T_n, so the floor -1/2 of the weight is the one refused
        for lam in (-0.5, -0.6, math.nan):
            with pytest.raises(DomainError, match="^lam must be finite and exceed -0.5"):
                gegenbauer(lam, 2, 0.5)

    def test_parity_exact(self):
        xs = np.linspace(0.0, 1.0, 101)
        for lam in (0.5, 1.0, 3.0):
            for n in (1, 4, 9, 16):
                left = gegenbauer(lam, n, -xs)
                right = (-1.0) ** n * gegenbauer(lam, n, xs)
                assert np.array_equal(left, right)

    def test_endpoint_bound(self):
        xs = np.linspace(-1.0, 1.0, 1001)
        for lam in (0.5, 1.0, 3.0):
            for n in range(31):
                sup = np.abs(gegenbauer(lam, n, xs)).max()
                assert sup <= gegenbauer(lam, n, 1.0) * (1.0 + 1e-12)

    def test_derivative_lowers_degree(self):
        # d/dx C_n = 2 lam C_{n-1} at the raised parameter
        h = 1e-5
        xs = np.linspace(-0.9, 0.9, 19)
        for lam in (0.6, 1.5, 2.5):
            for n in (1, 3, 8):
                fd = (gegenbauer(lam, n, xs + h) - gegenbauer(lam, n, xs - h)) / (2 * h)
                exact = 2.0 * lam * gegenbauer(lam + 1.0, n - 1, xs)
                np.testing.assert_allclose(fd, exact, rtol=1e-6, atol=1e-8)

    def test_array_call_matches_pointwise(self):
        # the recurrences run in place: an array call must give each point's
        # own value bit for bit and leave x untouched, since the oracle's row
        # block reuses its points after the call
        xs = np.random.default_rng(3).uniform(-1.2, 1.2, (5, 9))
        orig = xs.copy()
        for n in range(13):
            for poly in (partial(gegenbauer, 0.7, n), partial(hermite, n)):
                values = poly(xs)
                assert np.array_equal(xs, orig)
                points = [[poly(float(v)) for v in row] for row in xs]
                assert np.array_equal(values, points), (poly.func.__name__, n)

    def test_all_matches_single(self):
        xs = np.linspace(-1, 1, 7)
        allv = gegenbauer_all(1.3, 10, xs)
        for n in range(11):
            np.testing.assert_array_equal(allv[n], gegenbauer(1.3, n, xs))


class TestNorms:
    def test_known_values(self):
        assert gegenbauer_norm_sq(1.0, 0) == pytest.approx(math.pi / 2, rel=1e-14)
        assert gegenbauer_norm_sq(1.0, 1) == pytest.approx(math.pi / 2, rel=1e-14)
        # parameter 1/2 gives the Legendre norms 2/(2n+1)
        assert gegenbauer_norm_sq(0.5, 2) == pytest.approx(0.4, rel=1e-13)

    def test_quadrature_oracle(self):
        nodes, weights = gegenbauer_rule(1.7, 48)
        vals = gegenbauer(1.7, 5, nodes)
        quad = float(weights @ (vals * vals))
        assert gegenbauer_norm_sq(1.7, 5) == pytest.approx(quad, rel=1e-13)


def u_value(lam, n, s):
    """u_n^lam(s) = u_prefactor (1-s^2)^(lam-1/2) C_n^lam(s)."""
    return u_prefactor(lam, n) * (1.0 - s * s) ** (lam - 0.5) * gegenbauer(lam, n, s)


class TestWeighted:
    def test_center_values(self):
        # 2^(2 lam - 1) Gamma(lam) / Gamma(2 lam) = sqrt(pi) / Gamma(lam + 1/2)
        assert u_value(0.5, 0, 0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert u_value(1.0, 0, 0.0) == pytest.approx(2.0, rel=1e-14)
        assert u_value(3.0, 1, 0.0) == 0.0

    def test_lambda_zero_degree_zero_is_the_limit(self):
        # Gamma(1) Gamma(0) / Gamma(0) raised a pole; u_0^0 = (1-s^2)^(-1/2).
        # At n >= 1 the prefactor was a pole too; it is 1 at every degree,
        # since u_n^0 = T_n(s) (1-s^2)^(-1/2) is the limit of u_n^lam
        assert u_prefactor(0.0, 0) == 1.0
        assert u_prefactor(1e-9, 0) == pytest.approx(1.0, rel=1e-8)
        xs = np.linspace(-0.95, 0.95, 9)
        for n in range(1, 6):
            assert u_prefactor(0.0, n) == 1.0
            near = u_prefactor(1e-6, n) * gegenbauer(1e-6, n, xs)
            np.testing.assert_allclose(near, gegenbauer(0.0, n, xs), rtol=0, atol=1e-5)

    def test_odd_parity(self):
        assert u_value(1.2, 3, 0.4) == pytest.approx(-u_value(1.2, 3, -0.4), rel=1e-13)

    def test_rodrigues_form(self):
        # u_n(s) = (-1)^n 2^-n sqrt(pi)/Gamma(lam+n+1/2) d^n/ds^n (1-s^2)^(lam+n-1/2)
        lam = 1.0
        h = 3e-3

        def w(n, s):
            return (1.0 - s * s) ** (lam + n - 0.5)

        stencils = {
            0: ([0.0], [1.0]),
            1: ([-1.0, 1.0], [-0.5, 0.5]),
            2: ([-1.0, 0.0, 1.0], [1.0, -2.0, 1.0]),
            3: ([-2.0, -1.0, 1.0, 2.0], [-0.5, 1.0, -1.0, 0.5]),
        }
        for n in range(4):
            offs, coefs = stencils[n]
            for s in (-0.4, 0.1, 0.55):
                deriv = sum(c * w(n, s + o * h) for o, c in zip(offs, coefs)) / h**n
                pref = (-1.0) ** n * 2.0**-n * math.sqrt(math.pi) / math.gamma(lam + n + 0.5)
                assert u_value(lam, n, s) == pytest.approx(pref * deriv, rel=1e-4)


class TestHermite:
    def test_values(self):
        assert hermite(0, 0.3) == 1.0
        assert hermite(2, 1.0) == pytest.approx(2.0, abs=1e-14)
        assert hermite(3, 0.5) == pytest.approx(-5.0, abs=1e-14)

    def test_ultraspherical_limit(self):
        # n! lam^(-n/2) C_n(x / sqrt(lam)) -> H_n(x) for large lam; errors are
        # measured against the polynomial's scale on the grid since pointwise
        # relative error blows up at the Hermite zeros.
        lam = 1e6
        xs = np.linspace(-2, 2, 9)
        for n in range(7):
            ref = np.array([hermite(n, float(x)) for x in xs])
            approx = np.array(
                [
                    math.factorial(n)
                    * lam ** (-n / 2.0)
                    * gegenbauer(lam, n, float(x) / math.sqrt(lam))
                    for x in xs
                ]
            )
            scale = max(1.0, float(np.abs(ref).max()))
            assert np.abs(approx - ref).max() <= 1e-4 * scale


def _old_gegenbauer(lam, n, x):
    """gegenbauer's own in-place recurrence before the three shared one."""
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = np.multiply(2.0 * lam, x, out=np.empty_like(x))
    nxt = np.empty_like(x)
    for k in range(2, n + 1):
        np.multiply(2.0 * (k + lam - 1.0), x, out=nxt)
        nxt *= cur
        prev *= k + 2.0 * lam - 2.0
        nxt -= prev
        nxt /= k
        prev, cur, nxt = cur, nxt, prev
    return cur if cur.ndim else float(cur)


def _old_gegenbauer_all(lam, nmax, x):
    """gegenbauer_all's own recurrence, one expression per degree."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 2.0 * lam * x
    for k in range(2, nmax + 1):
        out[k] = (2.0 * (k + lam - 1.0) * x * out[k - 1] - (k + 2.0 * lam - 2.0) * out[k - 2]) / k
    return out


def _old_hermite(n, x):
    """hermite's own in-place recurrence."""
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = np.multiply(2.0, x, out=np.empty_like(x))
    nxt = np.empty_like(x)
    for k in range(1, n):
        np.multiply(2.0, x, out=nxt)
        nxt *= cur
        prev *= 2.0 * k
        nxt -= prev
        prev, cur, nxt = cur, nxt, prev
    return cur if cur.ndim else float(cur)


class TestOneRecurrence:
    def test_bit_identical_to_the_three_copies(self):
        # one shared recurrence serves gegenbauer, gegenbauer_all and hermite
        rng = np.random.default_rng(2024)
        for i in range(300):
            lam, n = rng.uniform(-0.49, 5.0), int(rng.integers(0, 40))
            x = rng.uniform(-1.2, 1.2, int(rng.integers(1, 30)))
            x = float(x[0]) if i % 5 == 0 else x.reshape(-1, 1) if i % 7 == 0 else x
            for new, old in ((gegenbauer(lam, n, x), _old_gegenbauer(lam, n, x)),
                             (hermite(n, x), _old_hermite(n, x))):
                assert type(new) is type(old)
                assert np.array_equal(new, old)
            new, old = gegenbauer_all(lam, n, x), _old_gegenbauer_all(lam, n, x)
            assert new.shape == old.shape and np.array_equal(new, old)

    def test_chebyshev_is_the_cosine_of_n_angles(self):
        # gegenbauer(0, n, x) is the limit basis T_n(x) = cos(n arccos x);
        # rounding x moves both by up to n^2 ulp near +-1
        xs = np.linspace(-1.0, 1.0, 201)
        for n in range(60):
            np.testing.assert_allclose(gegenbauer(0.0, n, xs), np.cos(n * np.arccos(xs)),
                                       rtol=0, atol=1e-15 * (n + 1) ** 2)
        assert gegenbauer(0.0, 0, 0.3) == 1.0 and gegenbauer(0.0, 1, 0.3) == 0.3
        assert gegenbauer(0.0, 2, 0.5) == -0.5

    def test_gegenbauer_all_takes_chebyshev_at_zero(self):
        # the series' limit basis, the same recurrence one degree at a time
        xs = np.linspace(-1.0, 1.0, 13)
        table = gegenbauer_all(0.0, 12, xs)
        for n in range(13):
            assert np.array_equal(table[n], gegenbauer(0.0, n, xs))


def _old_jacobi_rule(alpha, beta, n):
    """gauss_jacobi_rule's construction before the one-array Jacobi matrix:
    coefficient vectors on two index ranges, summed from three np.diag."""
    s = alpha + beta
    a, b = np.zeros(n), np.zeros(n)
    a[0] = (beta - alpha) / (s + 2.0)
    mu0 = gamma_ratio((alpha + 1.0, beta + 1.0), (s + 2.0,), scale_log=(s + 1.0) * LN2)
    if n == 1:
        return np.array([a[0]]), np.array([mu0])
    b[1] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((s + 2.0) ** 2 * (s + 3.0))
    k = np.arange(1, n)
    two = 2.0 * k + s
    a[1:] = (beta * beta - alpha * alpha) / (two * (two + 2.0))
    if n > 2:
        k = np.arange(2, n)
        two = 2.0 * k + s
        b[2:] = (4.0 * k * (k + alpha) * (k + beta) * (k + s)
                 / (two * two * (two + 1.0) * (two - 1.0)))
    jac = np.diag(a) + np.diag(np.sqrt(b[1:]), 1) + np.diag(np.sqrt(b[1:]), -1)
    nodes, vecs = np.linalg.eigh(jac)
    return nodes, mu0 * vecs[0, :] ** 2


class TestRules:
    def test_bit_identical_to_the_three_diagonal_construction(self):
        # the one-array Jacobi matrix holds the same entries, so eigh returns
        # the same nodes and weights, for one pair and for each row of one
        # stacked solve over every pair
        exponents = (-0.7, 0.0, 0.37, 2.5)
        pairs = list(itertools.product(exponents, exponents))
        alphas, betas = [a for a, _ in pairs], [b for _, b in pairs]
        for n in range(1, 24):
            stacked = gauss_jacobi_rules(alphas, betas, n)
            for i, (alpha, beta_) in enumerate(pairs):
                nodes, weights = _old_jacobi_rule(alpha, beta_, n)
                for got in (gauss_jacobi_rule(alpha, beta_, n), (stacked[0][i], stacked[1][i])):
                    assert np.array_equal(got[0], nodes), (alpha, beta_, n)
                    assert np.array_equal(got[1], weights), (alpha, beta_, n)

    def test_midpoint_case(self):
        nodes, weights = gegenbauer_rule(0.5, 1)
        np.testing.assert_allclose(nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(weights, [2.0], rtol=1e-14)

    def test_two_point_legendre(self):
        nodes, weights = gegenbauer_rule(0.5, 2)
        np.testing.assert_allclose(nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], rtol=1e-14)
        np.testing.assert_allclose(weights, [1.0, 1.0], rtol=1e-14)

    def test_total_mass(self):
        for lam, order in ((1.0, 9), (0.7, 33), (2.4, 16)):
            _, weights = gegenbauer_rule(lam, order)
            assert float(weights.sum()) == pytest.approx(
                gamma_ratio((0.5, lam + 0.5), (lam + 1.0,)), rel=1e-13
            )
        assert float(gauss_jacobi_rule(-0.5, -0.5, 12)[1].sum()) == pytest.approx(
            math.pi, rel=1e-13
        )

    def test_nodes_symmetric_and_increasing(self):
        nodes, weights = gegenbauer_rule(1.9, 25)
        assert np.all(np.diff(nodes) > 0)
        np.testing.assert_allclose(nodes, -nodes[::-1], rtol=0.0, atol=1e-15)
        assert np.all(weights > 0)

    def test_orthogonality(self):
        for lam in (0.5, 1.0, 2.5):
            nodes, weights = gegenbauer_rule(lam, 64)
            c = gegenbauer_all(lam, 20, nodes)
            gram = (c * weights) @ c.T
            expect = np.diag([gegenbauer_norm_sq(lam, i) for i in range(21)])
            assert np.abs(gram - expect).max() < 1e-10

    def test_polynomial_exactness(self):
        # monomial moments against the beta closed form
        lam = 1.3
        q = 10
        nodes, weights = gegenbauer_rule(lam, q)
        for k in range(0, 2 * q, 2):
            quad = float(weights @ nodes**k)
            exact = gamma_ratio(((k + 1) / 2.0, lam + 0.5), ((k + 1) / 2.0 + lam + 0.5,))
            assert quad == pytest.approx(exact, rel=1e-12)
        for k in range(1, 2 * q, 2):
            assert float(weights @ nodes**k) == pytest.approx(0.0, abs=1e-14)

    def test_hermite_rule_mass(self):
        _, weights = gauss_hermite_rule(64)
        assert float(weights.sum()) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_cached_rules_are_read_only(self):
        # callers share a cached rule's arrays: neither a write nor setting
        # the write flag back may change what a later call returns
        for make in (
            partial(gauss_jacobi_rule, 0.0, 0.0, 4),
            partial(gauss_jacobi_rule, 0.3, -0.2, 1),
            partial(gauss_hermite_rule, 8),
        ):
            rule = make()
            bits = [arr.tobytes() for arr in rule]
            assert type(rule) is tuple and len(rule) == 2
            for arr in rule:
                with pytest.raises(ValueError):
                    arr[0] = 5.0
                with pytest.raises(ValueError):
                    arr.setflags(write=True)
            assert [arr.tobytes() for arr in make()] == bits

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gauss_jacobi_rule(-1.0, 0.0, 4)

    @pytest.mark.parametrize(
        "make,order",
        [
            (lambda n: gauss_jacobi_rule(0.0, 0.0, n), 0),
            (lambda n: gauss_jacobi_rule(0.0, 0.0, n), 2.5),
            (gauss_hermite_rule, 0),
            (gauss_hermite_rule, 2.5),
        ],
    )
    def test_order_must_be_a_positive_integer(self, make, order):
        # refused by name before numpy sees it, whose own errors (TypeError,
        # a bare ValueError) do not say which argument is wrong
        with pytest.raises(DomainError, match="^order must be"):
            make(order)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_jacobi_exponents(self, bad):
        # inf once reached the eigensolver and failed there with LinAlgError
        for alpha, beta_ in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(DomainError, match="finite"):
                gauss_jacobi_rule(alpha, beta_, 4)
