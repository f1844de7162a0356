"""One round of a workload, in a fresh interpreter.

Set up (import gegenexp from the checkout's src/, build the inputs), run the
workload's fixed work once with one caller, then check every output,
untimed, and write the round's result as JSON to --out.  run.py starts one
worker per round; set-up time counts from the moment it started the process
(--t0, CLOCK_MONOTONIC nanoseconds, which every process shares).
"""

import argparse
import os
import sys
import time

import gegenexp  # first, so that set-up includes the whole import

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
parser.add_argument("--t0", type=int, required=True)
parser.add_argument("--root", required=True)
parser.add_argument("--out", required=True)
parser.add_argument("--setup-only", action="store_true",
                    help="stop after set-up; run.py adds these to the set-up samples")
parser.add_argument("--ref", default=None,
                    help="result of an earlier round of this run whose outputs were checked")


def _pkg():
    from gegenexp import expansion, oracle, orthopoly, specfun, verify
    return {"expansion": expansion, "oracle": oracle, "orthopoly": orthopoly,
            "specfun": specfun, "verify": verify}


def _environment(root):
    import platform

    import numpy
    import scipy
    env = {
        "gegenexp_file": os.path.abspath(gegenexp.__file__),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in (
            "GEGEN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS", "MALLOC_MMAP_THRESHOLD_")},
    }
    try:
        import ctypes
        import re
        with open("/proc/self/maps") as fh:
            libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", fh.read())))
        for lib in libs:
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    env["blas_threads"] = fn()
                    env["blas_lib"] = os.path.basename(lib)
                    break
    except OSError as exc:
        env["blas_threads"] = f"unknown: {exc}"
    return env


def _digest(ops):
    import hashlib
    import json

    import numpy as np

    h = hashlib.sha256()

    def default(obj):
        if isinstance(obj, np.ndarray):
            a = np.ascontiguousarray(obj, dtype=float)
            return {"shape": a.shape, "sha256": hashlib.sha256(a.tobytes()).hexdigest()}
        if isinstance(obj, np.generic):
            return obj.item()
        raise TypeError(type(obj))

    for op in ops:
        h.update(json.dumps([op.kind, op.output], sort_keys=True, default=default).encode())
    return h.hexdigest()


def _misses(fn):
    return fn.cache_info().misses if hasattr(fn, "cache_info") else 0


def main():
    args = parser.parse_args()
    src = os.path.join(os.path.abspath(args.root), "src") + os.sep
    if not os.path.abspath(gegenexp.__file__).startswith(src):
        sys.exit(f"gegenexp imported from {gegenexp.__file__}, not from {src}")
    import resource

    import workloads as wl
    pkg = _pkg()
    w = args.workload
    inputs = wl.inputs(w, args.seed)
    if w == "cli_cold":
        import tempfile
        tmpdir = tempfile.mkdtemp(prefix="cli-", dir=os.path.dirname(args.out))
        who = resource.RUSAGE_CHILDREN  # the CLI processes do the work
    else:
        who = resource.RUSAGE_SELF
    setup_s = (time.monotonic_ns() - args.t0) * 1e-9
    if args.setup_only:
        if w == "cli_cold":
            os.rmdir(tmpdir)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write('{"setup_s": %r}' % setup_s)
        return

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(pkg)
    jacobi = pkg["orthopoly"].gauss_jacobi_rule
    misses0 = _misses(jacobi)
    ru0 = resource.getrusage(who)
    start = time.perf_counter()
    if w == "closed_form":
        ops = wl.run_closed_form(pkg, inputs)
    elif w == "cli_cold":
        ops = wl.run_cli(inputs, args.root, tmpdir, dict(os.environ), bool(args.trace))
    else:
        ops = wl.run_verify(pkg, inputs, args.seed, tracer)
    wall_s = time.perf_counter() - start
    ru1 = resource.getrusage(who)
    misses1 = _misses(jacobi)
    if w == "cli_cold":
        os.rmdir(tmpdir)

    result = {
        "workload": w, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "op_seconds": [op.seconds for op in ops], "op_kinds": [op.kind for op in ops],
    }
    if tracer is not None:
        extra = {
            "orthopoly.gauss_jacobi_rule.misses": misses1 - misses0,
            "proc.minflt": ru1.ru_minflt - ru0.ru_minflt,
            "proc.sys_s": ru1.ru_stime - ru0.ru_stime,
            "proc.user_s": ru1.ru_utime - ru0.ru_utime,
        }
        if w == "cli_cold":
            from statistics import median

            from tracing import import_times
            per_proc = [import_times(op.extra) for op in ops]
            for key in per_proc[0]:
                extra[key] = median(p[key] for p in per_proc)
        result["layers"] = tracer.metrics(extra)
        result["unwrapped"] = tracer.missing

    # Untimed: check the outputs, unless an earlier round of this run gave
    # bit-identical outputs that were checked already.
    import json

    import checks
    result["digest"] = _digest(ops)
    ref = None
    if args.ref:
        with open(args.ref, encoding="utf-8") as fh:
            ref = json.load(fh)
    if ref is not None and ref["digest"] == result["digest"]:
        result["verdicts"] = ref["verdicts"]
        result["checked_in_full"] = False
    else:
        result["verdicts"] = checks.check(w, args.seed, ops)
        result["checked_in_full"] = True
    result["known_fault"] = [op.kind in checks.KNOWN_FAULT_KINDS for op in ops]
    if not ops:
        result["verdicts"], result["known_fault"] = ["the round ran no operations"], [False]
    result["environment"] = _environment(args.root)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
