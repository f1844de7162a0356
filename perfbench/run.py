"""Benchmark for gegenexp: one workload, whole rounds for --seconds seconds.

    python3 perfbench/run.py --workload verify_2d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each round is a fresh interpreter
(worker.py) that imports gegenexp from the checkout's src/, builds the
workload's inputs from the seed, does the workload's fixed work once and
checks its outputs, untimed.  Rounds repeat until --seconds have passed
(at least MIN_ROUNDS).  The last line of standard output is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A fuller record, with the machine and library versions, goes to
perfbench/out/.  Exits non-zero without a result when a round fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracing import PER_LAYER, import_times  # noqa: E402

WORKLOADS = ("verify_2d", "verify_special", "closed_form", "cli_cold")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))
MIN_ROUNDS = 2
#: Extra set-up-only starts per run, so that setup_s is a median of several.
SETUP_PROBES = 3
#: A run starts no round after DEADLINE_S and kills one still running at
#: KILL_S, so that it ends within 180 s.
DEADLINE_S = 120.0
KILL_S = 165.0
DEFAULT_SEED = 20240401


def _child_env():
    env = dict(os.environ)
    env.pop("GEGEN_THREADS", None)  # suites run with the package's default
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _round(args, env, begin, index, ref=None, setup_only=False):
    out = os.path.join(OUT, f"round-{os.getpid()}-{index}.json")
    cmd = [sys.executable] + (["-X", "importtime"] if args.trace else [])
    cmd += [os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace), "--root", ROOT,
            "--out", out]
    if ref is not None:
        cmd += ["--ref", ref]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic_ns()
    # Its own process group, so that a timeout also ends the CLI processes
    # a cli_cold round starts.
    proc = subprocess.Popen(cmd + ["--t0", str(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, KILL_S - (time.monotonic() - begin)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"round {index} of {args.workload} ran past {KILL_S} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr[-4000:])
        sys.exit(f"round {index} of {args.workload} exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    if args.trace and not setup_only and args.workload != "cli_cold":
        result["layers"].update(import_times(stderr))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "gegenexp", "__init__.py")):
        sys.exit(f"no gegenexp sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(OUT, exist_ok=True)
    env = _child_env()

    # Untimed warm-up: byte-compile the sources and fill the file cache, which
    # a user pays once, not on every start.
    subprocess.run([sys.executable, "-c", "import gegenexp"], cwd=ROOT, env=env,
                   check=True, timeout=60)

    # The first round is checked in full and becomes the reference that later
    # rounds with identical outputs reuse.
    rounds, ref = [], os.path.join(OUT, f"checked-{os.getpid()}.json")
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        if rounds and time.monotonic() - begin > DEADLINE_S:
            break
        result = _round(args, env, begin, len(rounds), ref if rounds else None)
        if not rounds:
            with open(ref, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
        rounds.append(result)
    measured_s = time.monotonic() - start
    os.remove(ref)
    setups = [r["setup_s"] for r in rounds]
    if not args.trace:
        setups += [_round(args, env, begin, f"setup{k}", setup_only=True)["setup_s"]
                   for k in range(SETUP_PROBES)]

    attempted = failed = 0
    correct = True
    problems = []
    for r in rounds:
        attempted += len(r["verdicts"])
        for verdict, known in zip(r["verdicts"], r["known_fault"]):
            if verdict is not None:
                failed += 1
                if not known:
                    correct = False
                    problems.append(verdict)

    if args.trace:
        metrics = {name: {"value": median(r["layers"][name] for r in rounds), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        if not any(r["op_seconds"] for r in rounds):
            sys.exit("no round ran any operation: " + "; ".join(problems[:1]))
        values = {
            "setup_s": median(setups),
            "wall_s": median(r["wall_s"] for r in rounds),
            "op_p50_s": median(s for r in rounds for s in r["op_seconds"]),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "summary": summary, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "measured_s": measured_s,
        "setup_samples": setups,
        "rounds": [{k: v for k, v in r.items() if k != "environment"} for r in rounds],
        "environment": rounds[0]["environment"], "problems": problems[:20],
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in problems[:5]:
        print(f"wrong output: {p}", file=sys.stderr)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
