"""Correctness checks, run after the timed phase and never timed.

References are computed here, apart from the program: closed forms with
mpmath at DPS digits, the kernel |s-t|^(2 nu) sgn^eps(s-t) with numpy, and
the verify pass rule with the tolerances fixed in workloads.SUITE_TOL.
Nothing is compared with saved output.

check(workload, seed, ops) returns one verdict per operation: None when the
output is right, else the reason it is wrong.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np

import workloads as wl

DPS = 32

#: Pure gamma products (coefficients, projections) are exact to a few ulps
#: times the size of the log-gamma sum.
RTOL_GAMMA = 1e-11

#: Anything through 2F1.  On 80 random tables (l, m <= 12, the table shears)
#: the worst error seen was 6e-10; the known fault at large indices is 4e-6
#: and above.
RTOL_HYP = 1e-7

#: Operation kinds that fail on every run because of a known program fault
#: (hyp2f1 cancellation below Z_SWITCH).  They count as failed and leave
#: `correct` true; any other failing operation makes it false.
KNOWN_FAULT_KINDS = frozenset({"large_index"})


def _mpf(*values):
    return [mp.mpf(v) for v in values]


@functools.lru_cache(maxsize=4096)
def _plus_coef(lam, mu, nu, ell, m):
    lam, mu, nu = _mpf(lam, mu, nu)
    sign = -1 if m % 2 else 1
    return sign * (mp.gamma(2 * nu + 1) * mp.rgamma(nu - mp.mpf(ell + m) / 2 + 1)
                   * mp.rgamma(mu + m + 1) * mp.rgamma(lam + nu + mp.mpf(ell - m) / 2 + 1)
                   * mp.pi ** 2 / mp.power(2, 2 * nu + 1))


def ref_plus(lam, mu, nu, ell, m, x):
    """int int (s - x t)_+^(2 nu) u_ell(s) u_m(t) ds dt in closed form."""
    coef = _plus_coef(lam, mu, nu, ell, m)
    if coef == 0:
        return mp.mpf(0)
    lam, mu, nu, x = _mpf(lam, mu, nu, x)
    return coef * mp.power(x, m) * mp.hyp2f1(
        -nu + mp.mpf(ell + m) / 2, -lam - nu + mp.mpf(m - ell) / 2, mu + m + 1, x * x)


def ref_sheared(kind, plus, ell, m):
    """Sign variant of the sheared integral whose plus part is `plus`, by the
    reflection (s, t) -> (-s, -t): the minus part is (-1)^(ell+m) plus."""
    parity = -1 if (ell + m) % 2 else 1
    return {"plus": plus, "minus": parity * plus,
            "abs": (1 + parity) * plus, "abssgn": (1 - parity) * plus}[kind]


def ref_coeff(lam, mu, nu, ell, m):
    """Coefficient of C_ell^lam(s) C_m^mu(t) in |s-t|^(2 nu) sgn^eps(s-t)."""
    lam, mu, nu = _mpf(lam, mu, nu)
    base = nu + 1 + (lam + mu) / 2
    p, q = (lam + ell) / 2, (mu + m) / 2
    sign = -1 if m % 2 else 1
    return (sign * (lam + ell) * (mu + m)
            * mp.gamma(lam + mu + 2 * nu + 1) * mp.gamma(lam) * mp.gamma(mu)
            * mp.gamma(2 * nu + 1) / mp.power(2, 2 * nu)
            * mp.rgamma(base + p + q) * mp.rgamma(base + p - q)
            * mp.rgamma(base - p + q) * mp.rgamma(base - p - q))


def ref_norm_sq(lam, n):
    """Squared norm of C_n^lam under (1-x^2)^(lam-1/2)."""
    lam = mp.mpf(lam)
    return (mp.power(2, 1 - 2 * lam) * mp.pi * mp.gamma(n + 2 * lam)
            / (mp.factorial(n) * (n + lam) * mp.gamma(lam) ** 2))


def _off(value, ref, rtol):
    """None when value matches ref to rtol (exact zero for a zero ref)."""
    if not isinstance(value, float) or not math.isfinite(value):
        return f"not a finite float: {value!r}"
    if ref == 0:
        return None if value == 0.0 else f"{value!r} where 0 is exact"
    rel = abs(mp.mpf(value) - ref) / abs(ref)
    return None if rel <= rtol else f"{value!r} off by {float(rel):.3g} relative"


def _first(problems):
    return next((p for p in problems if p is not None), None)


# --------------------------------------------------------------------------


def _check_verify(suites, ops):
    verdicts = []
    want = dict(suites)
    got = {name: 0 for name in want}
    for op in ops:
        got[op.kind] = got.get(op.kind, 0) + 1
        out = op.output
        cf, oc = out["closed_form"], out["oracle"]
        tol = wl.SUITE_TOL[op.kind]
        if not (math.isfinite(cf) and math.isfinite(oc)):
            verdicts.append(f"non-finite value: closed {cf!r}, oracle {oc!r}")
        elif abs(cf - oc) > tol * (1.0 + abs(cf)):
            verdicts.append(f"closed {cf!r} vs oracle {oc!r} beyond {tol:g}")
        elif op.kind == "main":
            p = out["params"]
            verdicts.append(_off(cf, ref_plus(p["lambda"], p["mu"], p["nu"], p["ell"],
                                              p["m"], p["x"]), RTOL_HYP))
        else:
            verdicts.append(None)
    if got != want:
        # A short suite would pass vacuously; mark every operation wrong.
        verdicts = [f"case counts {got} differ from the {want} asked for"] * len(ops)
    return verdicts


def _check_series(req, out):
    lam, mu, nu, eps, tol = req
    order, grid = out["order"], np.asarray(out["grid"], dtype=float)
    if len(order) != 2 or min(order) < 0:
        return f"bad order {order!r}"
    pts = np.linspace(-1.0, 1.0, wl.SERIES_GRID)
    diff = pts[:, None] - pts[None, :]
    kernel = np.abs(diff) ** (2.0 * nu) * (np.sign(diff) if eps else 1.0)
    if grid.shape != kernel.shape or not np.all(np.isfinite(grid)):
        return f"grid of shape {grid.shape} with non-finite values"
    err = float(np.max(np.abs(grid - kernel)))
    return None if err <= tol else f"sup error {err:.3g} above tol {tol:g} at order {order}"


def _check_table(req, out):
    lam, mu, nu, eps = req
    n = wl.TABLE_N + 1
    problems = []
    k = 0
    for x in wl.TABLE_SHEARS:
        for ell in range(n):
            for m in range(n):
                plus = ref_plus(lam, mu, nu, ell, m, x)
                kind = "abs" if (ell + m) % 2 == 0 else "abssgn"
                problems.append(_off(out["plus"][k], plus, RTOL_HYP))
                problems.append(_off(out["sheared"][k], ref_sheared(kind, plus, ell, m),
                                     RTOL_HYP))
                k += 1
    k = 0
    for ell in range(n):
        for m in range(n):
            if (ell + m + eps) % 2:
                ref = mp.mpf(0)
            else:
                ref = ref_coeff(lam, mu, nu, ell, m) * ref_norm_sq(lam, ell) * ref_norm_sq(mu, m)
            problems.append(_off(out["projection"][k], ref, RTOL_GAMMA))
            k += 1
    return _first(problems)


def _check_large(req, out):
    lam, mu, nu, x = req
    refs = [ref_plus(lam, mu, nu, ell, m, x) for ell in wl.LARGE_ELL for m in wl.LARGE_M]
    return _first(_off(v, r, RTOL_HYP) for v, r in zip(out["plus"], refs))


def _check_closed_form(requests, ops):
    checker = {"series": _check_series, "table": _check_table, "large_index": _check_large}
    if [op.kind for op in ops] != [kind for kind, _ in requests]:
        return [f"{len(ops)} operations for {len(requests)} requests"] * len(ops)
    return [checker[kind](req, op.output) for (kind, req), op in zip(requests, ops)]


def _check_cli_op(req, out):
    if out["returncode"] != 0:
        return f"exit code {out['returncode']}"
    if req[0] == "bx":
        _, lam, mu, nu, ell, m, x, variant = req
        try:
            value = float(out["stdout"].splitlines()[0])
        except (IndexError, ValueError):
            return f"unreadable output {out['stdout']!r}"
        plus = ref_plus(lam, mu, nu, ell, m, x)
        return _off(value, ref_sheared(variant, plus, ell, m), RTOL_HYP)
    _, lam, mu, nu, eps = req
    n = wl.CLI_TABLE_N + 1
    want = [(ell, m) for ell in range(n) for m in range(n) if (ell + m) % 2 == eps]
    lines = (out["file"] or "").splitlines()
    if not lines or lines[0] != "ell,m,b" or len(lines) != len(want) + 1:
        return f"table has {len(lines)} lines for {len(want)} rows"
    problems = []
    for (ell, m), line in zip(want, lines[1:]):
        fields = line.split(",")
        if len(fields) != 3 or (int(fields[0]), int(fields[1])) != (ell, m):
            return f"row {line!r} where ({ell}, {m}) was due"
        problems.append(_off(float(fields[2]), ref_coeff(lam, mu, nu, ell, m), RTOL_GAMMA))
    return _first(problems)


def _check_cli(reqs, ops):
    if len(ops) != len(reqs):
        return [f"{len(ops)} processes for {len(reqs)} requests"] * len(ops)
    return [_check_cli_op(req, op.output) for req, op in zip(reqs, ops)]


def check(workload: str, seed: int, ops: list) -> list:
    mp.mp.dps = DPS
    inputs = wl.inputs(workload, seed)
    if workload == "closed_form":
        return _check_closed_form(inputs, ops)
    if workload == "cli_cold":
        return _check_cli(inputs, ops)
    return _check_verify(inputs, ops)
