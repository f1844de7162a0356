"""Closed-form versus oracle verification suites.

Each suite draws reproducible random parameter points, evaluates one of the
closed forms, recomputes the same quantity with the quadrature oracle, and
records the comparison.  A case passes when |closed - oracle| is at most
tol * (1 + |closed|); a suite passes when it ran at least one case and
every case passed.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import expansion as ex
from . import oracle as orc
from .orthopoly import u_prefactor
from .specfun import ConvergenceError, DomainError

DEFAULT_SEED = 20240401

#: Per-suite pass thresholds: 1e-7 for the 2D identities, 1e-5 for the
#: singular regularized kernel and the 3D averaged projection.
SUITE_TOLERANCES = {
    "main": 1e-7,
    "stz": 1e-7,
    "projection": 1e-7,
    "selberg": 1e-7,
    "warnaar": 1e-6,
    "tv": 1e-7,
    "df": 1e-5,
    "mehta": 1e-8,
    "hermite": 1e-6,
    "cosine": 1e-5,
    "cc": 1e-5,
}

SUITES = tuple(SUITE_TOLERANCES) + ("all",)

DEFAULT_CASES = {
    "main": 25,
    "stz": 5,
    "projection": 10,
    "selberg": 3,
    "warnaar": 2,
    "tv": 3,
    "df": 2,
    "mehta": 2,
    "hermite": 3,
    "cosine": 2,
    "cc": 2,
}


@dataclass(frozen=True)
class Case:
    identity: str
    params: dict
    closed: object
    oracle: object


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
        return {
            "suite": self.suite,
            "seed": self.seed,
            "tol": self.tol,
            "overall_pass": self.overall_pass,
            "cases": [
                {
                    "identity": c.identity,
                    "params": c.params,
                    "closed_form": c.closed_form,
                    "oracle": c.oracle,
                    "abs_err": c.abs_err,
                    "rel_err": c.rel_err,
                    "pass": c.passed,
                    "seconds": c.seconds,
                    "note": c.note,
                }
                for c in self.cases
            ],
        }


def _u_scaled_spec(lam, mu, nu, ell, m, x, kind, tol):
    """Oracle value of the sheared integral against u_ell u_m."""
    scale = u_prefactor(lam, ell) * u_prefactor(mu, m)
    spec = orc.QuadratureSpec(
        dimension=2,
        kernel=kind,
        kernel_exponent=2.0 * nu,
        x_shear=x,
        weight_exponents=(lam - 0.5, mu - 0.5),
        polynomial_factors=(("gegenbauer", lam, ell), ("gegenbauer", mu, m)),
        prefactor=scale,
        tol=tol,
    )

    def run():
        return orc.refine_until(spec, tol).value

    return run


X_SET = (0.0, 0.3, -0.3, 0.9, -0.9, 1.0)


def _cases_main(rng, n, tol):
    out = []
    for _ in range(n):
        lam = float(rng.uniform(0.2, 3.0))
        mu = float(rng.uniform(0.2, 3.0))
        nu = float(rng.uniform(0.5, 4.0))
        ell = int(rng.integers(0, 6))
        m = int(rng.integers(0, 6))
        x = float(X_SET[int(rng.integers(0, len(X_SET)))])
        p = {"lambda": lam, "mu": mu, "nu": nu, "ell": ell, "m": m, "x": x}
        out.append(
            Case(
                "sheared-plus-integral",
                p,
                lambda lam=lam, mu=mu, nu=nu, ell=ell, m=m, x=x: ex.plus_part_integral(
                    lam, mu, nu, ell, m, x
                ),
                _u_scaled_spec(lam, mu, nu, ell, m, x, "plus", tol * 1e-2),
            )
        )
    return out


def _cases_stz(rng, n, tol):
    out = []
    for _ in range(n):
        a = float(rng.uniform(0.3, 2.5))
        b = float(rng.uniform(0.3, 2.5))
        c = float(rng.uniform(0.6, 2.0))
        x = float(rng.uniform(-1.0, 1.0))
        spec = orc.QuadratureSpec(
            dimension=2,
            kernel="plus",
            kernel_exponent=2.0 * c - 1.0,
            x_shear=x,
            weight_exponents=(a - 1.0, b - 1.0),
            tol=tol * 1e-2,
        )
        out.append(
            Case(
                "plus-base-integral",
                {"a": a, "b": b, "c": c, "x": x},
                lambda a=a, b=b, c=c, x=x: ex.plus_base_integral(a, b, c, x),
                lambda spec=spec: orc.refine_until(spec, tol * 1e-2).value,
            )
        )
    return out


def _cases_projection(rng, n, tol):
    out = []
    for i in range(n):
        lam = float(rng.uniform(0.3, 2.5))
        mu = float(rng.uniform(0.3, 2.5))
        nu = float(rng.uniform(0.4, 3.0))
        eps = int(rng.integers(0, 2))
        ell = int(rng.integers(0, 5))
        m = int(rng.integers(0, 5))
        # every third case violates parity to exercise the vanishing branch
        want_odd = i % 3 == 2
        if ((ell + m + eps) % 2 == 1) != want_odd:
            m += 1
        params = ex.ExpansionParams(lam, mu, nu, eps)
        kind = "abs" if eps == 0 else "abssgn"
        spec = orc.QuadratureSpec(
            dimension=2,
            kernel=kind,
            kernel_exponent=2.0 * nu,
            x_shear=1.0,
            weight_exponents=(lam - 0.5, mu - 0.5),
            polynomial_factors=(("gegenbauer", lam, ell), ("gegenbauer", mu, m)),
            tol=tol * 1e-2,
        )
        out.append(
            Case(
                "kernel-projection",
                {"lambda": lam, "mu": mu, "nu": nu, "eps": eps, "ell": ell, "m": m},
                lambda params=params, ell=ell, m=m: ex.projection_integral(params, ell, m),
                lambda spec=spec: orc.refine_until(spec, tol * 1e-2).value,
            )
        )
    return out


def _cases_selberg(rng, n, tol):
    out = []
    for _ in range(n):
        lam = float(rng.uniform(0.2, 2.5))
        nu = float(rng.uniform(0.3, 2.5))
        spec = orc.QuadratureSpec(
            dimension=2,
            kernel="abs",
            kernel_exponent=2.0 * nu,
            x_shear=1.0,
            weight_exponents=(lam - 0.5, lam - 0.5),
            tol=tol * 1e-2,
        )
        out.append(
            Case(
                "selberg-two-variable",
                {"lambda": lam, "nu": nu},
                lambda lam=lam, nu=nu: ex.identity_rhs("selberg2", {"lam": lam, "nu": nu}),
                lambda spec=spec: orc.refine_until(spec, tol * 1e-2).value,
            )
        )
    return out


def warnaar_left_side(lam: float, mu: float, tol: float) -> float:
    """Two weighted triangle integrals on the unit square, mapped onto
    [-1,1]^2 (constant 2^(-lam-mu)) and combined with cos(pi lam)/cos(pi mu)."""
    common = dict(
        dimension=2,
        kernel="abs",
        kernel_exponent=-(lam + mu),
        x_shear=1.0,
        weight_exponents=(mu - 0.5, lam - 0.5),
        tol=tol,
    )
    lower = orc.refine_until(orc.QuadratureSpec(triangle="s<t", **common), tol)
    upper = orc.refine_until(orc.QuadratureSpec(triangle="t<s", **common), tol)
    ratio = math.cos(math.pi * lam) / math.cos(math.pi * mu)
    return 2.0 ** (-lam - mu) * (lower.value + ratio * upper.value)


def _cases_warnaar(rng, n, tol):
    fixed = [(0.2, 0.3), (0.15, 0.35)]
    out = []
    for i in range(n):
        if i < len(fixed):
            lam, mu = fixed[i]
        else:
            lam = float(rng.uniform(0.05, 0.45))
            mu = float(rng.uniform(0.05, 0.45))
        out.append(
            Case(
                "warnaar-triangle-pair",
                {"lambda": lam, "mu": mu},
                lambda lam=lam, mu=mu: ex.identity_rhs("warnaar", {"lam": lam, "mu": mu}),
                lambda lam=lam, mu=mu: warnaar_left_side(lam, mu, tol * 1e-2),
            )
        )
    return out


def _cases_tv(rng, n, tol):
    fixed = [(0.7, 0.4), (1.2, 0.9)]
    out = []
    for i in range(n):
        if i < len(fixed):
            lam, nu = fixed[i]
        else:
            lam = float(rng.uniform(0.2, 2.5))
            nu = float(rng.uniform(0.3, 2.0))
        spec = orc.QuadratureSpec(
            dimension=2,
            kernel="minus",
            kernel_exponent=2.0 * nu,
            x_shear=1.0,
            weight_exponents=(lam - 0.5, 0.0),
            tol=tol * 1e-2,
        )
        out.append(
            Case(
                "one-sided-single-weight",
                {"lambda": lam, "nu": nu},
                lambda lam=lam, nu=nu: ex.identity_rhs(
                    "tarasov_varchenko", {"lam": lam, "nu": nu}
                ),
                lambda spec=spec: orc.refine_until(spec, tol * 1e-2).value,
            )
        )
    return out


def _cases_df(rng, n, tol):
    fixed = [(1.3, 1.4), (2.0, 0.8)]
    out = []
    for i in range(n):
        if i < len(fixed):
            lam, mu = fixed[i]
        else:
            lam = float(rng.uniform(0.9, 2.0))
            mu = float(rng.uniform(0.9, 2.0))
        out.append(
            Case(
                "inverse-square-finite-part",
                {"lambda": lam, "mu": mu},
                lambda lam=lam, mu=mu: ex.identity_rhs(
                    "dotsenko_fateev", {"lam": lam, "mu": mu}
                ),
                lambda lam=lam, mu=mu: orc.regularized_inverse_square(
                    lam - 0.5, mu - 0.5
                ).value,
            )
        )
    return out


def mehta_left_side(nu: float) -> float:
    """Gauss-weighted pair kernel mass, rescaled onto the unit-variance form."""
    raw = orc.integrate_hermite_2d(nu, 1.0, 0, 0).value
    return 2.0 ** (nu + 1.0) / (2.0 * math.pi) * raw


def _cases_mehta(rng, n, tol):
    out = []
    for i in range(n):
        nu = 1.0 if i == 0 else float(rng.uniform(0.3, 2.5))
        out.append(
            Case(
                "gaussian-pair-kernel",
                {"nu": nu},
                lambda nu=nu: ex.identity_rhs("mehta2", {"nu": nu}),
                lambda nu=nu: mehta_left_side(nu),
            )
        )
    return out


def _cases_hermite(rng, n, tol):
    fixed = [(0.5, 0, 0, 1.0), (2.0, 1, 1, 0.7), (1.5, 2, 0, 0.3)]
    out = []
    for i in range(n):
        if i < len(fixed):
            nu, ell, m, x = fixed[i]
        else:
            nu = float(rng.uniform(0.4, 2.5))
            ell = int(rng.integers(0, 4))
            m = int(rng.integers(0, 4))
            m += (ell + m) % 2
            x = float(rng.uniform(-1.0, 1.0))
        out.append(
            Case(
                "gaussian-kernel-moments",
                {"nu": nu, "ell": ell, "m": m, "x": x},
                lambda nu=nu, ell=ell, m=m, x=x: ex.hermite_kernel_integral(nu, ell, m, x),
                lambda nu=nu, ell=ell, m=m, x=x: orc.integrate_hermite_2d(
                    nu, x, ell, m
                ).value,
            )
        )
    return out


def cosine_sup_error(rho: float, parity: int, K: int, grid: int = 9) -> float:
    """Sup difference between the truncated trigonometric expansion and the
    kernel itself on a (grid x grid) angle lattice."""
    angles = np.linspace(0.1, math.pi - 0.1, grid)
    worst = 0.0
    for phi in angles:
        for psi in angles:
            k = math.cos(phi) + math.cos(psi)
            ref = abs(k) ** rho * (math.copysign(1.0, k) ** parity if k != 0.0 else 0.0)
            v = ex.cosine_expansion(rho, parity, float(phi), float(psi), K)
            worst = max(worst, abs(v - ref))
    return worst


def _cases_cosine(rng, n, tol):
    out = []
    for i in range(n):
        if i == 0:
            rho, parity = 7.0, 1
        else:
            rho = float(rng.uniform(5.0, 9.0))
            parity = int(rng.integers(0, 2))
        # closed = 0 target; oracle = sup error of expansion vs direct kernel
        out.append(
            Case(
                "cosine-kernel-expansion",
                {"rho": rho, "parity": parity, "K": 40},
                lambda: 0.0,
                lambda rho=rho, parity=parity: cosine_sup_error(rho, parity, 40),
            )
        )
    return out


def _cases_cc(rng, n, tol):
    fixed = [(1.0, 1.0, 1.0, 0.0, 0, 0), (1.0, 1.0, 1.0, 0.0, 2, 0)]
    out = []
    for i in range(n):
        if i < len(fixed):
            lam, mu, nu, b, ell, m = fixed[i]
        else:
            lam = float(rng.uniform(0.5, 1.8))
            mu = float(rng.uniform(0.5, 1.8))
            nu = float(rng.uniform(0.6, 2.2))
            b = float(rng.uniform(0.0, 1.5))
            ell = int(rng.integers(0, 3))
            m = int(rng.integers(0, 3))
            m += (ell + m) % 2
        spec = orc.QuadratureSpec(
            dimension=3,
            kernel="abs",
            kernel_exponent=2.0 * nu,
            weight_exponents=(lam - 0.5, mu - 0.5),
            polynomial_factors=(("gegenbauer", lam, ell), ("gegenbauer", mu, m)),
            extra_axis=(mu + m / 2.0, b),
            tol=tol * 1e-1,
        )
        out.append(
            Case(
                "shear-averaged-projection",
                {"lambda": lam, "mu": mu, "nu": nu, "b": b, "ell": ell, "m": m},
                lambda lam=lam, mu=mu, nu=nu, b=b, ell=ell, m=m: ex.shear_averaged_projection(
                    lam, mu, nu, b, ell, m
                ),
                lambda spec=spec: orc.refine_until(spec, tol * 1e-1, max_level=3).value,
            )
        )
    return out


_BUILDERS = {
    "main": _cases_main,
    "stz": _cases_stz,
    "projection": _cases_projection,
    "selberg": _cases_selberg,
    "warnaar": _cases_warnaar,
    "tv": _cases_tv,
    "df": _cases_df,
    "mehta": _cases_mehta,
    "hermite": _cases_hermite,
    "cosine": _cases_cosine,
    "cc": _cases_cc,
}


def _run_case(case: Case, tol: float) -> CaseResult:
    """Evaluate one case; an error inside it fails the case, not the suite."""
    start = time.perf_counter()
    cf = oc = abs_err = rel_err = float("nan")
    passed = False
    note = None
    try:
        cf = float(case.closed())
        oc = float(case.oracle())
    except orc.OracleConvergenceError as exc:
        note = f"oracle did not converge: {exc}"
    except (DomainError, ConvergenceError) as exc:
        note = f"{type(exc).__name__}: {exc}"
    else:
        abs_err = abs(cf - oc)
        rel_err = abs_err / (1.0 + abs(cf))
        passed = abs_err <= tol * (1.0 + abs(cf))
    return CaseResult(
        case.identity,
        case.params,
        cf,
        oc,
        abs_err,
        rel_err,
        passed,
        time.perf_counter() - start,
        note,
    )


def max_workers() -> int:
    """Suite thread count from GEGEN_THREADS (default 1)."""
    env = os.environ.get("GEGEN_THREADS", "").strip()
    if not env:
        return 1
    if not env.isdigit() or int(env) < 1:
        raise DomainError(f"GEGEN_THREADS must be a positive integer, got {env!r}")
    return int(env)


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
    names = list(_BUILDERS) if suite == "all" else [suite]
    rng = np.random.default_rng(seed)
    jobs = []
    for name in names:
        suite_tol = tol if tol is not None else SUITE_TOLERANCES[name]
        n = cases if cases is not None else DEFAULT_CASES[name]
        for case in _BUILDERS[name](rng, n, suite_tol):
            jobs.append((case, suite_tol))
    workers = max_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda job: _run_case(*job), jobs))
    else:
        results = [_run_case(*job) for job in jobs]
    if not timings:
        for r in results:
            r.seconds = 0.0
    report = VerifyReport(
        suite=suite,
        seed=seed,
        tol=tol,
        overall_pass=bool(results) and all(r.passed for r in results),
        cases=results,
    )
    return report
