"""Workload inputs and the timed work of one round.

Inputs are built from the workload seed alone, by benchmark code that needs
neither gegenexp nor mpmath, so the checks in checks.py rebuild exactly the
inputs a round ran.  The timed functions take the imported package's
modules, call every public function through its module attribute (so that
tracing.py can wrap it), and return one Op per operation.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

#: verify_2d: the 2-D refine_until suites at their default case counts.
VERIFY_2D = (("main", 25), ("stz", 5), ("projection", 10), ("selberg", 3),
             ("warnaar", 2), ("tv", 3))

#: verify_special: cc first (its cost depends on what the process allocated
#: before it), then the other oracle backends.  cc runs its first case only,
#: which keeps a round near 5 s so that a run holds several fresh-process
#: rounds.  The cheap suites get more cases than their defaults, and the
#: counts put the median operation inside the block of ~0.045 s mehta
#: cases: as many 4 ms cosine cases sit below it as df, cc and the slower
#: hermite cases sit above it.
VERIFY_SPECIAL = (("cc", 1), ("df", 6), ("mehta", 8), ("hermite", 4), ("cosine", 10))

#: Per-suite pass thresholds as the package documents them.  They are passed
#: explicitly and re-applied by the checks, so a looser default in the
#: program cannot make a case pass.
SUITE_TOL = {
    "main": 1e-7, "stz": 1e-7, "projection": 1e-7, "selberg": 1e-7,
    "warnaar": 1e-6, "tv": 1e-7, "df": 1e-5, "mehta": 1e-8,
    "hermite": 1e-6, "cosine": 1e-5, "cc": 1e-5,
}

# closed_form: series-to-tolerance requests.  Their cost grows like the cube
# of the returned order, so the points are stratified rather than drawn
# freely: request j takes its tolerance, its margin 2nu - (lam+mu+4) and the
# size of lam+mu from these lists, and the seed only jitters them.  nu is
# snapped to where the tail's sin/cos(pi nu) factor is near 1 (half-integers
# for eps = 0, integers for eps = 1), so no request lands on a polynomial
# kernel whose expansion terminates.
SERIES_TOLS = (1e-5, 1e-6, 1e-7)
SERIES_MARGINS = (2.0, 2.75, 3.5)
SERIES_SUMS = (1.2, 2.0, 2.8, 3.6)
N_SERIES = 18
SERIES_GRID = 65

# closed_form: integral-table requests over l, m <= TABLE_N with one shear
# set that reaches every 2F1 branch the closed forms use: the z -> 1-z
# connection (|x| = 0.9), the Gauss series (0.5, 0.8) and Gauss summation (1).
N_TABLES = 20
TABLE_N = 12
TABLE_SHEARS = (-0.9, 0.5, 0.8, 1.0)

#: closed_form: fixed large-index requests.  hyp2f1's Gauss series cancels
#: just below Z_SWITCH = 0.75, and these return values 4e-6 to 7e-2 off
#: while reporting convergence, on every run (see README).
LARGE_INDEX = ((1.3, 0.7, 2.3, 0.86), (2.1, 0.4, 2.9, 0.83))
LARGE_ELL = (36, 38, 40, 42, 44)
LARGE_M = (16, 18, 20, 22, 24)

#: cli_cold: processes per round, alternating bx and coeffs.
N_CLI = 6
CLI_TABLE_N = 8


@dataclass
class Op:
    """One operation: its kind, its time, what it returned (checked and
    digested) and side output that is neither (CLI stderr)."""

    kind: str
    seconds: float
    output: object
    extra: object = None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def series_requests(seed: int) -> list:
    """(lam, mu, nu, eps, tol) for each series-to-tolerance request."""
    rng = _rng(seed, 1)
    out = []
    for j in range(N_SERIES):
        tol = SERIES_TOLS[j % 3]
        margin = SERIES_MARGINS[(j // 3) % 3] * (1.0 + rng.uniform(-0.03, 0.03))
        eps = j % 2
        raw = (SERIES_SUMS[j % 4] + 4.0 + margin) / 2.0
        nu = (math.ceil(raw - 0.5) + 0.5 if eps == 0 else math.ceil(raw))
        nu += rng.uniform(-0.05, 0.05)
        total = 2.0 * nu - 4.0 - margin
        share = 0.5 + rng.uniform(-0.15, 0.15)
        out.append((total * share, total * (1.0 - share), nu, eps, tol))
    return out


def table_requests(seed: int) -> list:
    """(lam, mu, nu, eps) for each integral-table request."""
    rng = _rng(seed, 2)
    return [
        (float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.3, 2.5)),
         float(rng.uniform(0.3, 3.0)), k % 2)
        for k in range(N_TABLES)
    ]


def cli_requests(seed: int) -> list:
    """("bx", lam, mu, nu, ell, m, x, variant) or ("coeffs", lam, mu, nu, eps)."""
    rng = _rng(seed, 3)
    out = []
    for k in range(N_CLI):
        lam, mu, nu = (float(rng.uniform(0.3, 2.5)), float(rng.uniform(0.3, 2.5)),
                       float(rng.uniform(0.3, 3.0)))
        if k % 2 == 0:
            ell, m = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            x = float(rng.uniform(-1.0, 1.0))
            variant = ("plus", "minus", "abs" if (ell + m) % 2 == 0 else "abssgn")[(k // 2) % 3]
            out.append(("bx", lam, mu, nu, ell, m, x, variant))
        else:
            out.append(("coeffs", lam, mu, nu, (k // 2) % 2))
    return out


def cli_argv(req: tuple, out_path: str) -> list:
    if req[0] == "bx":
        _, lam, mu, nu, ell, m, x, variant = req
        return ["bx", "--lambda", repr(lam), "--mu", repr(mu), "--nu", repr(nu),
                "--ell", str(ell), "--m", str(m), "--x", repr(x), "--variant", variant]
    _, lam, mu, nu, eps = req
    return ["coeffs", "--lambda", repr(lam), "--mu", repr(mu), "--nu", repr(nu),
            "--eps", str(eps), "--lmax", str(CLI_TABLE_N), "--mmax", str(CLI_TABLE_N),
            "--format", "csv", "--out", out_path]


def inputs(workload: str, seed: int):
    """The workload's inputs: suites and case counts, closed-form requests as
    (kind, request) pairs, or CLI requests."""
    if workload == "verify_2d":
        return VERIFY_2D
    if workload == "verify_special":
        return VERIFY_SPECIAL
    if workload == "closed_form":
        return ([("series", r) for r in series_requests(seed)]
                + [("table", r) for r in table_requests(seed)]
                + [("large_index", r) for r in LARGE_INDEX])
    if workload == "cli_cold":
        return cli_requests(seed)
    raise KeyError(workload)


# --------------------------------------------------------------------------
# Timed work.  `pkg` maps layer names to the imported gegenexp modules.


def run_verify(pkg, suites, seed: int, tracer=None) -> list:
    vf = pkg["verify"]
    ops = []
    for name, n in suites:
        start = time.perf_counter()
        report = vf.run_suite(name, tol=SUITE_TOL[name], seed=seed, cases=n)
        if tracer is not None:
            tracer.add_time(f"verify.{name}.s", time.perf_counter() - start)
            tracer.count("verify.cases", len(report.cases))
        for c in report.cases:
            ops.append(Op(name, c.seconds, {
                "identity": c.identity, "params": c.params,
                "closed_form": c.closed_form, "oracle": c.oracle,
            }))
    return ops


def _series_op(ex, req):
    lam, mu, nu, eps, tol = req
    params = ex.ExpansionParams(lam, mu, nu, eps)
    order = ex.truncation_order(params, tol)
    pts = np.linspace(-1.0, 1.0, SERIES_GRID)
    grid = ex.series_eval_grid(params, pts, pts, order[0], order[1])
    return {"order": list(order), "grid": grid}


def _table_op(ex, req):
    lam, mu, nu, eps = req
    params = ex.ExpansionParams(lam, mu, nu, eps)
    plus, sheared = [], []
    for x in TABLE_SHEARS:
        for ell in range(TABLE_N + 1):
            for m in range(TABLE_N + 1):
                plus.append(ex.plus_part_integral(lam, mu, nu, ell, m, x))
                kind = "abs" if (ell + m) % 2 == 0 else "abssgn"
                sheared.append(ex.sheared_integral(kind, lam, mu, nu, ell, m, x))
    proj = [ex.projection_integral(params, ell, m)
            for ell in range(TABLE_N + 1) for m in range(TABLE_N + 1)]
    return {"plus": plus, "sheared": sheared, "projection": proj}


def _large_op(ex, req):
    lam, mu, nu, x = req
    return {"plus": [ex.plus_part_integral(lam, mu, nu, ell, m, x)
                     for ell in LARGE_ELL for m in LARGE_M]}


def run_closed_form(pkg, requests: list) -> list:
    ex = pkg["expansion"]
    op = {"series": _series_op, "table": _table_op, "large_index": _large_op}
    ops = []
    for kind, req in requests:
        start = time.perf_counter()
        out = op[kind](ex, req)
        ops.append(Op(kind, time.perf_counter() - start, out))
    return ops


def run_cli(requests: list, root: str, tmpdir: str, env: dict, importtime: bool) -> list:
    ops = []
    for k, req in enumerate(requests):
        out_path = os.path.join(tmpdir, f"coeffs-{k}.csv")
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += ["-m", "gegenexp.cli"] + cli_argv(req, out_path)
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=60)
        seconds = time.perf_counter() - start
        text = None
        if req[0] == "coeffs" and proc.returncode == 0:
            with open(out_path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(out_path)
        ops.append(Op(req[0], seconds, {
            "returncode": proc.returncode, "stdout": proc.stdout, "file": text,
        }, extra=proc.stderr))
    return ops
