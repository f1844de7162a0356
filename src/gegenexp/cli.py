"""Command-line surface.

Subcommands: coeffs (coefficient tables), eval (expansion vs kernel on a
grid), bx (one sheared integral, optionally cross-checked), verify
(closed-form vs oracle suites).

Exit codes: 0 success, 2 usage or domain error or an --out file that
cannot be written, 3 series-hypothesis violation, 4 oracle or 2F1
non-convergence outside the suites.  A failing verify suite, or one that
ran no cases, exits 1.  All file output is UTF-8 with LF line endings;
floats are serialized with repr, Python's shortest round-trip
representation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import expansion as ex
from . import verify as vf
from .expansion import ExpansionParams, HypothesisError
from .oracle import OracleConvergenceError
from .specfun import ConvergenceError, DomainError, PoleError


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _add_kernel_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)


def _cmd_coeffs(args) -> int:
    params = ExpansionParams(args.lam, args.mu, args.nu, args.eps)
    table = ex.coeff_table(params, args.lmax, args.mmax)
    if args.format == "csv":
        lines = ["ell,m,b"]
        for ell in range(args.lmax + 1):
            for m in range(args.mmax + 1):
                if (ell + m) % 2 == params.eps:
                    lines.append(f"{ell},{m},{float(table.values[ell, m])!r}")
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        payload = {
            "params": {
                "lambda": params.lam,
                "mu": params.mu,
                "nu": params.nu,
                "eps": params.eps,
            },
            "L": table.L,
            "M": table.M,
            "values": [float(v) for v in table.values.ravel()],
        }
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _parse_order(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) not in (1, 2) or not all(p.strip().isdecimal() for p in parts):
        raise DomainError(f"bad --order {text!r}; expected L or L,M of nonnegative integers")
    return int(parts[0]), int(parts[-1])


def _cmd_eval(args) -> int:
    params = ExpansionParams(args.lam, args.mu, args.nu, args.eps)
    params.require_hypothesis(args.force)
    L, M = _parse_order(args.order)
    if args.grid < 1:
        raise DomainError("--grid must be >= 1")
    pts = np.linspace(-1.0, 1.0, args.grid)
    series = ex.series_eval_grid(params, pts, pts, L, M, force=True)
    kernel = ex.kernel_value(params, pts[:, None], pts[None, :])
    kernel = np.atleast_2d(kernel)
    lines = ["s,t,series,kernel,abs_err"]
    for i, s in enumerate(pts):
        for j, t in enumerate(pts):
            err = float(abs(series[i, j] - kernel[i, j]))
            lines.append(
                f"{float(s)!r},{float(t)!r},{float(series[i, j])!r},"
                f"{float(kernel[i, j])!r},{err!r}"
            )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_bx(args) -> int:
    value = ex.sheared_integral(
        args.variant, args.lam, args.mu, args.nu, args.ell, args.m, args.x
    )
    print(repr(value))
    if args.oracle:
        oracle_value = vf.sheared_oracle(
            args.variant, args.lam, args.mu, args.nu, args.ell, args.m, args.x, 1e-9
        )
        print(f"oracle {oracle_value!r}")
        print(f"abs_err {abs(value - oracle_value)!r}")
    return 0


def _cmd_verify(args) -> int:
    report = vf.run_suite(
        args.suite,
        tol=args.tol,
        seed=args.seed,
        cases=args.cases,
        timings=not args.no_timing,
    )
    text = json.dumps(_jsonable(report.to_dict()), indent=2) + "\n"
    _write_text(args.out, text)
    return 0 if report.overall_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gegenexp",
        description="Two-variable power-kernel expansions in ultraspherical "
        "bases, with closed forms cross-checked against quadrature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="write an expansion coefficient table")
    _add_kernel_params(p)
    p.add_argument("--eps", type=int, choices=(0, 1), required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("eval", help="evaluate the expansion against the kernel")
    _add_kernel_params(p)
    p.add_argument("--eps", type=int, choices=(0, 1), default=0)
    p.add_argument("--order", required=True, help="L or L,M")
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--force", action="store_true",
                   help="evaluate even when the convergence hypothesis fails")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bx", help="closed form of one sheared kernel integral")
    _add_kernel_params(p)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--variant", choices=ex.SHEAR_KINDS, default="plus")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=_cmd_bx)

    p = sub.add_parser("verify", help="closed-form vs oracle suites")
    p.add_argument("--suite", choices=vf.SUITES, required=True)
    p.add_argument("--tol", type=float, default=None,
                   help="override the per-suite pass threshold")
    p.add_argument("--seed", type=int, default=vf.DEFAULT_SEED)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--no-timing", action="store_true",
                   help="zero the per-case seconds for byte-identical reports")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OracleConvergenceError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, PoleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
