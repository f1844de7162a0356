"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math

import numpy as np
import pytest

from gegenexp.expansion import (
    ExpansionParams,
    coeff_table,
    cosine_expansion,
    hermite_kernel_integral,
    hyp2f1,
    kernel_value,
    plus_base_integral,
    series_eval_grid,
    truncation_order,
)
from gegenexp.oracle import (
    QuadratureSpec,
    integrate_hermite_2d,
    refine_until,
)
from gegenexp.orthopoly import gauss_jacobi_rule
from gegenexp.specfun import LN2, LNPI, gamma_ratio
from gegenexp.verify import mehta_left_side, run_suite

SEED = 20240401


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_sheared_integral_equivalence():
    report = run_suite("main", tol=1e-7, cases=25, seed=SEED)
    worst = max(c.abs_err / (1.0 + abs(c.closed_form)) for c in report.cases)
    _report(
        "criterion 1 (closed form vs oracle, 25 points)",
        report.overall_pass,
        f"worst scaled error {worst:.2e} <= 1e-7",
    )


def test_criterion_2_expansion_convergence():
    pts = np.linspace(-1.0, 1.0, 41)
    details = []
    ok = True
    for eps in (0, 1):
        p = ExpansionParams(1.0, 1.0, 3.5, eps)
        kern = kernel_value(p, pts[:, None], pts[None, :])
        kern = np.atleast_2d(kern)
        err60 = np.abs(series_eval_grid(p, pts, pts, 60, 60) - kern).max()
        err20 = np.abs(series_eval_grid(p, pts, pts, 20, 20) - kern).max()
        ok = ok and err60 <= 1e-6 and err60 <= err20
        details.append(f"eps={eps}: err60 {err60:.2e}, err20 {err20:.2e}")
    _report("criterion 2 (uniform expansion convergence)", ok, "; ".join(details))


def test_criterion_3_polynomial_exactness():
    table = coeff_table(ExpansionParams(1.0, 1.0, 1.0, 0), 4, 4)
    expect = np.zeros((5, 5))
    expect[0, 0] = 0.5
    expect[1, 1] = -0.5
    expect[2, 0] = expect[0, 2] = 0.25
    table_err = np.abs(table - expect).max()
    pts = np.linspace(-1.0, 1.0, 21)
    p = ExpansionParams(1.0, 1.0, 1.0, 0)
    grid_err = np.abs(
        series_eval_grid(p, pts, pts, 4, 4, force=True)
        - (pts[:, None] - pts[None, :]) ** 2
    ).max()
    _report(
        "criterion 3 (quadratic kernel exact)",
        table_err <= 1e-12 and grid_err <= 1e-12,
        f"table err {table_err:.2e}, grid err {grid_err:.2e}",
    )


def test_criterion_4_projection_identity():
    report = run_suite("projection", tol=1e-7, cases=10, seed=SEED)
    vanishing = [c for c in report.cases if c.closed_form == 0.0]
    vanish_ok = all(abs(c.oracle) < 1e-9 for c in vanishing)
    _report(
        "criterion 4 (projection closed form, 10 points)",
        report.overall_pass and vanish_ok and len(vanishing) >= 2,
        f"{len(report.cases)} cases, {len(vanishing)} parity-vanishing, "
        f"worst abs err {max(c.abs_err for c in report.cases):.2e}",
    )


@pytest.mark.parametrize(
    "suite,tol",
    [("selberg", 1e-7), ("warnaar", 1e-6), ("tv", 1e-7), ("df", 1e-5)],
)
def test_criterion_5_classical_specializations(suite, tol):
    report = run_suite(suite, tol=tol, cases=2, seed=SEED)
    worst = max(c.abs_err / (1.0 + abs(c.closed_form)) for c in report.cases)
    _report(
        f"criterion 5 ({suite} specialization)",
        report.overall_pass and len(report.cases) >= 2,
        f"worst scaled error {worst:.2e} <= {tol}",
    )


def test_criterion_6_limits():
    ok = True
    details = []
    for ell, m, nu, x in [(0, 0, 0.5, 1.0), (1, 1, 2.0, 0.7), (2, 0, 1.5, 0.3)]:
        cf = hermite_kernel_integral(nu, ell, m, x)
        oc = integrate_hermite_2d(nu, x, ell, m, 1e-8).value
        rel = abs(cf - oc) / (1.0 + abs(cf))
        ok = ok and rel <= 1e-6
        details.append(f"gauss({ell},{m},{nu},{x}) rel {rel:.1e}")
    mehta_err = abs(mehta_left_side(1.0, 1e-10) - 2.0)
    ok = ok and mehta_err <= 1e-9
    details.append(f"pair-kernel mass err {mehta_err:.1e}")
    angles = np.linspace(0.1, math.pi - 0.1, 9)
    k = np.add.outer(np.cos(angles), np.cos(angles))
    sup = max(
        float(np.abs(cosine_expansion(7.0, parity, angles, angles, 40)
                     - np.abs(k) ** 7 * np.sign(k) ** parity).max())
        for parity in (0, 1)
    )
    ok = ok and sup <= 1e-5
    details.append(f"cosine sup err {sup:.1e}")
    _report("criterion 6 (limit formulas)", ok, "; ".join(details))


def test_criterion_7_triple_integral():
    from gegenexp.expansion import shear_averaged_projection

    ok = True
    details = []
    for lam, mu, nu, b, ell, m in [(1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 2, 0)]:
        cf = shear_averaged_projection(lam, mu, nu, b, ell, m)
        spec = QuadratureSpec(
            kernel="abs",
            kernel_exponent=2.0 * nu,
            gegenbauer=(float(lam), float(mu)),
            degrees=(ell, m),
            extra_axis=(mu + m / 2.0, float(b)),
        )
        oc = refine_until(spec, 1e-6).value
        rel = abs(cf - oc) / (1.0 + abs(cf))
        ok = ok and rel <= 1e-5
        details.append(f"({ell},{m}) rel {rel:.1e}")
    _report("criterion 7 (averaged-shear triple integral)", ok, "; ".join(details))


def _series_G(a, b, d, zeta, cap=400):
    total = 0.0
    coef = 1.0
    for i in range(cap):
        f = hyp2f1((1.0 - d - i) / 2.0, (2.0 - d - i) / 2.0, b + 0.5, zeta).value
        total += coef * f
        if i > 10 and abs(coef * f) < 1e-16 * abs(total):
            break
        coef *= (a + i) * (1.0 - a + i) / (2.0 * (i + 1.0) * (d + i))
    return total


def _closed_G(a, b, d, zeta):
    pref = gamma_ratio(
        (d,),
        ((a + d) / 2.0, (1.0 - a + d) / 2.0),
        scale_log=(1.0 - d) * math.log(2.0) + 0.5 * math.log(math.pi),
    )
    return pref * hyp2f1(1.0 - (a + d) / 2.0, (1.0 + a - d) / 2.0, b + 0.5, zeta).value


def test_criterion_8_internal_identities():
    rng = np.random.default_rng(SEED)
    ok = True
    details = []

    # base plus-part integral vs 2D quadrature (quadrature-backed: 1e-8)
    worst = 0.0
    for _ in range(5):
        a = float(rng.uniform(0.3, 2.2))
        b = float(rng.uniform(0.3, 2.2))
        c = float(rng.uniform(0.6, 1.9))
        x = float(rng.uniform(-1.0, 1.0))
        spec = QuadratureSpec(
            kernel="plus",
            kernel_exponent=2 * c - 1,
            x_shear=x,
            gegenbauer=(a - 0.5, b - 0.5),
        )
        got = plus_base_integral(a, b, c, x)
        ref = refine_until(spec, 1e-10).value
        worst = max(worst, abs(got - ref) / (1.0 + abs(got)))
    ok = ok and worst <= 1e-8
    details.append(f"base integral {worst:.1e}")

    # single-axis weighted power moment vs its hypergeometric closed form
    worst = 0.0
    for _ in range(5):
        a = float(rng.uniform(0.3, 2.5))
        b = float(rng.uniform(0.3, 2.5))
        x = float(rng.uniform(-0.9, 0.9))
        nodes, weights = gauss_jacobi_rule(b - 1.0, b - 1.0, 80)
        quad = float(weights @ (1.0 - nodes * x) ** (a - 1.0))
        closed = gamma_ratio((0.5, b), (b + 0.5,)) * hyp2f1(
            (1.0 - a) / 2.0, (2.0 - a) / 2.0, b + 0.5, x * x
        ).value
        worst = max(worst, abs(quad - closed) / (1.0 + abs(closed)))
    ok = ok and worst <= 1e-8
    details.append(f"1d moment {worst:.1e}")

    # double-series rearrangement vs closed form (series-backed: 1e-10)
    worst = 0.0
    for _ in range(5):
        a = float(rng.uniform(0.2, 1.8))
        b = float(rng.uniform(0.3, 2.0))
        d = float(rng.uniform(0.5, 3.0))
        zeta = float(rng.uniform(0.0, 0.45))
        s = _series_G(a, b, d, zeta)
        c = _closed_G(a, b, d, zeta)
        worst = max(worst, abs(s - c) / (1.0 + abs(c)))
    ok = ok and worst <= 1e-10
    details.append(f"series rearrangement {worst:.1e}")

    # rising-factorial identities, (y)_n = Gamma(y + n) / Gamma(y)
    def rising(y, n):
        return gamma_ratio((y + n,), (y,))

    worst = 0.0
    for _ in range(5):
        y = float(rng.uniform(-3.5, 3.5))
        i = int(rng.integers(0, 6))
        j = int(rng.integers(0, 5))
        if gamma_ratio((), (1.0 - y - i,)) != 0.0 and gamma_ratio((), (1.0 - y,)) != 0.0:
            lhs = rising(y, i) * gamma_ratio((1.0 - y - i,))
            rhs = (-1.0) ** i * gamma_ratio((1.0 - y,))
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        lhs = rising(y / 2.0, j) * rising((1.0 + y) / 2.0, j)
        rhs = 2.0 ** (-2 * j) * rising(y, 2 * j)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        lhs = rising(y, i) * rising(1.0 - y, 2 * j)
        rhs = rising(1.0 - y - i, 2 * j) * rising(y - 2.0 * j, i)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    ok = ok and worst <= 1e-10
    details.append(f"rising factorials {worst:.1e}")

    # quadratic transformation
    worst = 0.0
    for _ in range(5):
        a = float(rng.uniform(0.05, 3.0))
        b = float(rng.uniform(0.05, 3.0))
        u = float(rng.uniform(-0.9, 0.9))
        lhs = hyp2f1(1.0 - a, b, 2.0 * b, u).value
        rhs = (1.0 - u / 2.0) ** (a - 1.0) * hyp2f1(
            (1.0 - a) / 2.0, (2.0 - a) / 2.0, b + 0.5, (u / (2.0 - u)) ** 2
        ).value
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    ok = ok and worst <= 1e-10
    details.append(f"quadratic transform {worst:.1e}")

    # endpoint summation vs numerically integrated Euler representation
    worst = 0.0
    for _ in range(5):
        b = float(rng.uniform(0.3, 2.0))
        a = float(rng.uniform(-1.5, 1.2))
        c = a + b + float(rng.uniform(0.4, 2.5))
        _, weights = gauss_jacobi_rule(c - a - b - 1.0, b - 1.0, 80)
        quad = float(weights.sum()) * 2.0 ** (a + 1.0 - c)
        euler = quad * gamma_ratio((c,), (b, c - b))
        got = hyp2f1(a, b, c, 1.0).value
        worst = max(worst, abs(got - euler) / (1.0 + abs(euler)))
    ok = ok and worst <= 1e-8
    details.append(f"endpoint summation {worst:.1e}")

    # half-argument summation: 2F1(a, 1-a; c; 1/2) = 2^(1-c) sqrt(pi)
    # Gamma(c) / (Gamma((a+c)/2) Gamma((c-a+1)/2))
    worst = 0.0
    for _ in range(5):
        a = float(rng.uniform(-2.0, 2.0))
        c = float(rng.uniform(0.2, 4.0))
        lhs = gamma_ratio((c,), ((a + c) / 2.0, (c - a + 1.0) / 2.0),
                          scale_log=(1.0 - c) * LN2 + 0.5 * LNPI)
        rhs = hyp2f1(a, 1.0 - a, c, 0.5).value
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    ok = ok and worst <= 1e-10
    details.append(f"half-argument {worst:.1e}")

    _report("criterion 8 (internal identities)", ok, "; ".join(details))


def test_criterion_9_truncation_selection():
    p = ExpansionParams(1.0, 1.0, 3.5, 0)
    pts = np.linspace(-1.0, 1.0, 21)
    kern = kernel_value(p, pts[:, None], pts[None, :])
    orders = {}
    ok = True
    details = []
    for tol in (1e-4, 1e-6):
        L, M = truncation_order(p, tol)
        orders[tol] = (L, M)
        err = np.abs(series_eval_grid(p, pts, pts, L, M) - kern).max()
        ok = ok and err < tol
        details.append(f"tol {tol}: order {(L, M)}, grid err {err:.2e}")
    mono = (
        orders[1e-4][0] <= orders[1e-6][0] and orders[1e-4][1] <= orders[1e-6][1]
    )
    ok = ok and mono
    details.append(f"monotone {mono}")
    _report("criterion 9 (truncation selection)", ok, "; ".join(details))
