"""Closed-form versus oracle verification suites.

Each suite draws reproducible random parameter points, evaluates one of the
closed forms, recomputes the same quantity with the quadrature oracle, and
records the comparison.  A case passes when |closed - oracle| is at most
tol * (1 + |closed|); a suite passes when it ran at least one case and
every case passed.  SUITE_TABLE holds one row per suite.  run_suite draws
every case from one random.Random(seed) and runs each as it is drawn, one
after another, so a report depends only on its arguments; fixed cases
consume no draw.  The standard library documents that random() repeats
its sequence for a seed across Python versions, which numpy's Generator
streams do not promise, and a run imports no numpy.random.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import expansion as ex
from . import oracle as orc
from .orthopoly import u_prefactor
from .specfun import ConvergenceError, DomainError, check_above, check_degree

DEFAULT_SEED = 20240401


@dataclass(frozen=True)
class SuiteRow:
    """One suite: case i has parameters draw(rng, i); closed(params) is the
    closed form and oracle(params, tol) the quadrature value, where tol is
    the suite's pass threshold.  cases is the default case count."""

    identity: str
    tol: float
    cases: int
    draw: Callable
    closed: Callable
    oracle: Callable


@dataclass
class CaseResult:
    identity: str
    params: dict
    closed_form: float
    oracle: float
    abs_err: float
    rel_err: float
    passed: bool
    seconds: float
    note: str | None = None


@dataclass
class VerifyReport:
    suite: str
    seed: int
    tol: float | None
    overall_pass: bool
    cases: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field, in declaration order; a case's `passed` is written as "pass"."""
        return asdict(self, dict_factory=lambda items: {
            "pass" if key == "passed" else key: value for key, value in items
        })


def _refine_2d(tol, kernel, exponent, gegenbauer, x=1.0, degrees=(0, 0)) -> float:
    """Oracle value of one 2-D kernel integral at shear x."""
    spec = orc.QuadratureSpec(kernel, exponent, x, gegenbauer, degrees)
    return orc.refine_until(spec, tol).value


def sheared_oracle(kind, lam, mu, nu, ell, m, x, tol) -> float:
    """Oracle value of expansion.sheared_integral (the sheared kernel
    integral against u_ell u_m), refined until two levels agree to tol.

    The quadrature runs on C_ell C_m under the weights; u's normalization p
    scales the result, so that integral is refined to tol / |p|."""
    p = u_prefactor(lam, ell) * u_prefactor(mu, m)
    return p * _refine_2d(tol / abs(p), kind, 2.0 * nu, (lam, mu), x, (ell, m))


def warnaar_left_side(lam: float, mu: float, tol: float) -> float:
    """Two weighted triangle integrals on the unit square, mapped onto
    [-1,1]^2 (constant 2^(-lam-mu)) as the minus (s < t) and plus (t < s)
    kernels at shear 1, and combined with cos(pi lam)/cos(pi mu)."""
    lower, upper = (
        _refine_2d(tol, kernel, -(lam + mu), (mu, lam))
        for kernel in ("minus", "plus")
    )
    ratio = math.cos(math.pi * lam) / math.cos(math.pi * mu)
    return 2.0 ** (-lam - mu) * (lower + ratio * upper)


def mehta_left_side(nu: float, target: float) -> float:
    """Gauss-weighted pair kernel mass, rescaled onto the unit-variance form;
    the raw integral is refined to target."""
    raw = orc.integrate_hermite_2d(nu, 1.0, 0, 0, target).value
    return 2.0 ** (nu + 1.0) / (2.0 * math.pi) * raw


def cosine_sup_error(rho: float, parity: int, K: int) -> float:
    """Sup difference between the truncated trigonometric expansion and the
    kernel itself on a 9 x 9 angle lattice."""
    angles = np.linspace(0.1, math.pi - 0.1, 9)
    k = np.add.outer(np.cos(angles), np.cos(angles))
    ref = np.abs(k) ** rho * np.sign(k) ** parity
    return float(np.abs(ex.cosine_expansion(rho, parity, angles, angles, K) - ref).max())


def _shear_averaged_oracle(kernel: str, p: dict, target: float) -> float:
    """Oracle value of the kernel integral against C_ell C_m at shear
    sqrt(y), averaged over y in [0, 1] under y^(mu+m/2) (1-y)^b, refined
    until two levels agree to target."""
    lam, mu, m = p["lambda"], p["mu"], p["m"]
    spec = orc.QuadratureSpec(
        kernel=kernel,
        kernel_exponent=2.0 * p["nu"],
        gegenbauer=(lam, mu),
        degrees=(p["ell"], m),
        extra_axis=(mu + m / 2.0, p["b"]),
    )
    return orc.refine_until(spec, target).value


def _moment_oracle(p: dict, tol: float) -> float:
    """The plus part's moment: the shear-averaged plus kernel integral
    times u_prefactor(lam, ell) u_prefactor(mu, m) / 2, refined to
    tol / 100 / |that factor| as sheared_oracle refines."""
    scale = u_prefactor(p["lambda"], p["ell"]) * u_prefactor(p["mu"], p["m"]) / 2.0
    return scale * _shear_averaged_oracle("plus", p, tol * 1e-2 / abs(scale))


def _draw(rng, ranges: dict) -> dict:
    """One draw per key, in key order: uniform on a (lo, hi) interval, or a
    uniform integer from a range."""
    return {
        key: rng.randrange(r.start, r.stop) if isinstance(r, range) else rng.uniform(*r)
        for key, r in ranges.items()
    }


def _fixed_then(keys: tuple, fixed: list, draw: Callable) -> Callable:
    """Case i takes the values fixed[i] while they last, then draw(rng)."""

    def pick(rng, i):
        return dict(zip(keys, fixed[i])) if i < len(fixed) else draw(rng)

    return pick


def _even(p: dict) -> dict:
    """Raise m by one where ell + m is odd."""
    p["m"] += (p["ell"] + p["m"]) % 2
    return p


X_SET = (0.0, 0.3, -0.3, 0.9, -0.9, 1.0)


def _draw_main(rng, i):
    p = _draw(rng, {"lambda": (0.2, 3.0), "mu": (0.2, 3.0), "nu": (0.5, 4.0),
                    "ell": range(6), "m": range(6)})
    p["x"] = X_SET[rng.randrange(len(X_SET))]
    return p


def _draw_projection(rng, i):
    p = _draw(rng, {"lambda": (0.3, 2.5), "mu": (0.3, 2.5), "nu": (0.4, 3.0),
                    "eps": range(2), "ell": range(5), "m": range(5)})
    # every third case violates parity to exercise the vanishing branch
    if ((p["ell"] + p["m"] + p["eps"]) % 2 == 1) != (i % 3 == 2):
        p["m"] += 1
    return p


SUITE_TABLE = {
    "main": SuiteRow(
        "sheared-plus-integral", 1e-7, 25, _draw_main,
        lambda p: ex.plus_part_integral(
            p["lambda"], p["mu"], p["nu"], p["ell"], p["m"], p["x"]
        ),
        lambda p, tol: sheared_oracle(
            "plus", p["lambda"], p["mu"], p["nu"], p["ell"], p["m"], p["x"],
            tol * 1e-2,
        ),
    ),
    "stz": SuiteRow(
        "plus-base-integral", 1e-7, 5,
        lambda rng, i: _draw(rng, {"a": (0.3, 2.5), "b": (0.3, 2.5),
                                   "c": (0.6, 2.0), "x": (-1.0, 1.0)}),
        lambda p: ex.plus_base_integral(p["a"], p["b"], p["c"], p["x"]),
        lambda p, tol: _refine_2d(
            tol * 1e-2, "plus", 2.0 * p["c"] - 1.0, (p["a"] - 0.5, p["b"] - 0.5),
            p["x"],
        ),
    ),
    "projection": SuiteRow(
        "kernel-projection", 1e-7, 10, _draw_projection,
        lambda p: ex.projection_integral(
            ex.ExpansionParams(p["lambda"], p["mu"], p["nu"], p["eps"]),
            p["ell"], p["m"],
        ),
        lambda p, tol: _refine_2d(
            tol * 1e-2, "abssgn" if p["eps"] else "abs", 2.0 * p["nu"],
            (p["lambda"], p["mu"]), degrees=(p["ell"], p["m"]),
        ),
    ),
    "selberg": SuiteRow(
        "selberg-two-variable", 1e-7, 3,
        lambda rng, i: _draw(rng, {"lambda": (0.2, 2.5), "nu": (0.3, 2.5)}),
        lambda p: ex.selberg2(p["lambda"], p["nu"]),
        lambda p, tol: _refine_2d(
            tol * 1e-2, "abs", 2.0 * p["nu"], (p["lambda"],) * 2
        ),
    ),
    "warnaar": SuiteRow(
        "warnaar-triangle-pair", 1e-6, 2,
        _fixed_then(("lambda", "mu"), [(0.2, 0.3), (0.15, 0.35)],
                    lambda rng: _draw(rng, {"lambda": (0.05, 0.45),
                                            "mu": (0.05, 0.45)})),
        lambda p: ex.warnaar(p["lambda"], p["mu"]),
        lambda p, tol: warnaar_left_side(p["lambda"], p["mu"], tol * 1e-2),
    ),
    "tv": SuiteRow(
        "one-sided-single-weight", 1e-7, 3,
        _fixed_then(("lambda", "nu"), [(0.7, 0.4), (1.2, 0.9)],
                    lambda rng: _draw(rng, {"lambda": (0.2, 2.5), "nu": (0.3, 2.0)})),
        lambda p: ex.tarasov_varchenko(p["lambda"], p["nu"]),
        lambda p, tol: _refine_2d(
            tol * 1e-2, "minus", 2.0 * p["nu"], (p["lambda"], 0.5)
        ),
    ),
    "df": SuiteRow(
        "inverse-square-finite-part", 1e-5, 2,
        _fixed_then(("lambda", "mu"), [(1.3, 1.4), (2.0, 0.8)],
                    lambda rng: _draw(rng, {"lambda": (0.9, 2.0), "mu": (0.9, 2.0)})),
        lambda p: ex.dotsenko_fateev(p["lambda"], p["mu"]),
        # target tol/10: G(u) - G(0) cancellation puts a ~1e-7 floor under it
        lambda p, tol: orc.regularized_inverse_square(p["lambda"], p["mu"], tol * 1e-1).value,
    ),
    "mehta": SuiteRow(
        "gaussian-pair-kernel", 1e-8, 2,
        _fixed_then(("nu",), [(1.0,)], lambda rng: _draw(rng, {"nu": (0.3, 2.5)})),
        lambda p: ex.mehta2(p["nu"]),
        lambda p, tol: mehta_left_side(p["nu"], tol * 1e-2),
    ),
    "hermite": SuiteRow(
        "gaussian-kernel-moments", 1e-6, 3,
        _fixed_then(("nu", "ell", "m", "x"),
                    [(0.5, 0, 0, 1.0), (2.0, 1, 1, 0.7), (1.5, 2, 0, 0.3)],
                    lambda rng: _even(_draw(rng, {"nu": (0.4, 2.5), "ell": range(4),
                                                  "m": range(4), "x": (-1.0, 1.0)}))),
        lambda p: ex.hermite_kernel_integral(p["nu"], p["ell"], p["m"], p["x"]),
        lambda p, tol: orc.integrate_hermite_2d(
            p["nu"], p["x"], p["ell"], p["m"], tol * 1e-2
        ).value,
    ),
    # closed = 0 target; oracle = sup error of expansion vs direct kernel
    "cosine": SuiteRow(
        "cosine-kernel-expansion", 1e-5, 2,
        _fixed_then(("rho", "parity", "K"), [(7.0, 1, 40)],
                    lambda rng: {**_draw(rng, {"rho": (5.0, 9.0), "parity": range(2)}),
                                 "K": 40}),
        lambda p: 0.0,
        lambda p, tol: cosine_sup_error(p["rho"], p["parity"], p["K"]),
    ),
    "cc": SuiteRow(
        "shear-averaged-projection", 1e-5, 2,
        _fixed_then(("lambda", "mu", "nu", "b", "ell", "m"),
                    [(1.0, 1.0, 1.0, 0.0, 0, 0), (1.0, 1.0, 1.0, 0.0, 2, 0)],
                    lambda rng: _even(_draw(rng, {
                        "lambda": (0.5, 1.8), "mu": (0.5, 1.8), "nu": (0.6, 2.2),
                        "b": (0.0, 1.5), "ell": range(3), "m": range(3)}))),
        lambda p: ex.shear_averaged_projection(
            p["lambda"], p["mu"], p["nu"], p["b"], p["ell"], p["m"]
        ),
        lambda p, tol: _shear_averaged_oracle("abs", p, tol * 1e-1),
    ),
    "moment": SuiteRow(
        "plus-part-moment", 1e-7, 3,
        lambda rng, i: _draw(rng, {
            "lambda": (0.5, 1.8), "mu": (0.5, 1.8), "nu": (0.6, 2.2),
            "b": (0.0, 1.5), "ell": range(4), "m": range(4)}),
        lambda p: ex.moment_of_plus_integral(
            p["lambda"], p["mu"], p["nu"], p["b"], p["ell"], p["m"]
        ),
        _moment_oracle,
    ),
}

SUITES = tuple(SUITE_TABLE) + ("all",)


def _run_case(row: SuiteRow, params: dict, tol: float) -> CaseResult:
    """Evaluate one case; an error inside it fails the case, not the suite."""
    start = time.perf_counter()
    cf = oc = abs_err = rel_err = float("nan")
    passed = False
    note = None
    try:
        cf = float(row.closed(params))
        oc = float(row.oracle(params, tol))
    except orc.OracleConvergenceError as exc:
        note = f"oracle did not converge: {exc}"
    except (DomainError, ConvergenceError) as exc:
        note = f"{type(exc).__name__}: {exc}"
    else:
        abs_err = abs(cf - oc)
        rel_err = abs_err / (1.0 + abs(cf))
        passed = abs_err <= tol * (1.0 + abs(cf))
    seconds = time.perf_counter() - start
    return CaseResult(row.identity, params, cf, oc, abs_err, rel_err, passed, seconds, note)


def run_suite(
    suite: str,
    tol: float | None = None,
    seed: int = DEFAULT_SEED,
    cases: int | None = None,
    timings: bool = True,
) -> VerifyReport:
    """Run one suite (or 'all'); case order and values are seed-deterministic."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    if tol is not None:
        check_above("tol", tol, 0.0)
    if cases is not None:
        check_degree("cases", cases)
    check_degree("seed", seed)
    seed = int(seed)  # random.Random takes no numpy integer
    rows = list(SUITE_TABLE.values()) if suite == "all" else [SUITE_TABLE[suite]]
    rng = random.Random(seed)
    results = []
    for row in rows:
        suite_tol = row.tol if tol is None else tol
        n = row.cases if cases is None else cases
        results += [_run_case(row, row.draw(rng, i), suite_tol) for i in range(n)]
    if not timings:
        for r in results:
            r.seconds = 0.0
    return VerifyReport(
        suite=suite,
        seed=seed,
        tol=tol,
        overall_pass=bool(results) and all(r.passed for r in results),
        cases=results,
    )
