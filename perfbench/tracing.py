"""Per-layer spans and counts for the traced run.

Spans are recorded by wrapping the layers' public functions at the module
attributes their callers look up, from the benchmark's side: the package's
source is not touched.  A wrapper adds its call's duration to `<name>.s`,
the duration minus the time of the wrapped calls it made to `<name>.self_s`,
and one to `<name>.calls`.  Spans are aggregated in memory per name and
written out with the round's result.

The layers are the package's modules.  Calls are wrapped where the calling
layer looks them up: the oracle reaches orthopoly through names it imported
into its own namespace, and expansion reaches hyp2f1 the same way.
"""

from __future__ import annotations

import functools
import re
import time
from collections import defaultdict

#: Every per-layer metric: (name, unit, better).  A traced round reports all
#: of them, 0 where the workload does not reach the layer.
PER_LAYER = (
    *((f"verify.{s}.s", "s", "lower") for s in (
        "main", "stz", "projection", "selberg", "warnaar", "tv",
        "cc", "df", "mehta", "hermite", "cosine")),
    ("verify.cases", "count", "higher"),
    ("oracle.refine_until.s", "s", "lower"),
    ("oracle.refine_until.self_s", "s", "lower"),
    ("oracle.refine_until.calls", "count", "lower"),
    ("oracle.evaluations", "count", "lower"),
    ("oracle.integrate_hermite_2d.s", "s", "lower"),
    ("oracle.regularized_inverse_square.s", "s", "lower"),
    ("orthopoly.gegenbauer.s", "s", "lower"),
    ("orthopoly.gegenbauer.calls", "count", "lower"),
    ("orthopoly.gauss_jacobi_rule.s", "s", "lower"),
    ("orthopoly.gauss_jacobi_rule.misses", "count", "lower"),
    ("orthopoly.gauss_hermite_rule.s", "s", "lower"),
    ("specfun.hyp2f1.s", "s", "lower"),
    ("specfun.hyp2f1.calls", "count", "lower"),
    ("specfun.hyp2f1.terms", "count", "lower"),
    ("specfun.gamma_ratio.calls", "count", "lower"),
    ("expansion.truncation_order.s", "s", "lower"),
    ("expansion.tail_bound.s", "s", "lower"),
    ("expansion.tail_bound.calls", "count", "lower"),
    ("expansion.series_eval_grid.s", "s", "lower"),
    ("expansion.plus_part_integral.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import.scipy_special_s", "s", "lower"),
    ("proc.minflt", "count", "lower"),
    ("proc.sys_s", "s", "lower"),
    ("proc.user_s", "s", "lower"),
)


def _evaluations(tracer, result):
    tracer.count("oracle.evaluations", result.evaluations)


def _terms(tracer, result):
    tracer.count("specfun.hyp2f1.terms", result.terms_used)


#: (module, attribute, span name, hook on the result)
WRAPPED = (
    ("oracle", "refine_until", "oracle.refine_until", _evaluations),
    ("oracle", "integrate_hermite_2d", "oracle.integrate_hermite_2d", _evaluations),
    ("oracle", "regularized_inverse_square", "oracle.regularized_inverse_square",
     _evaluations),
    ("oracle", "gegenbauer", "orthopoly.gegenbauer", None),
    ("oracle", "gauss_jacobi_rule", "orthopoly.gauss_jacobi_rule", None),
    ("oracle", "gauss_hermite_rule", "orthopoly.gauss_hermite_rule", None),
    ("expansion", "hyp2f1", "specfun.hyp2f1", _terms),
    ("specfun", "gamma_ratio", "specfun.gamma_ratio", None),
    ("expansion", "gamma_ratio", "specfun.gamma_ratio", None),
    ("orthopoly", "gamma_ratio", "specfun.gamma_ratio", None),
    ("expansion", "truncation_order", "expansion.truncation_order", None),
    ("expansion", "tail_bound", "expansion.tail_bound", None),
    ("expansion", "series_eval_grid", "expansion.series_eval_grid", None),
    ("expansion", "plus_part_integral", "expansion.plus_part_integral", None),
)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(float)
        self.missing = []
        self._children = []  # time spent in wrapped callees, one slot per open span

    def count(self, name, n=1):
        self.stats[name] += n

    def add_time(self, name, seconds):
        self.stats[name] += seconds

    def _wrap(self, fn, name, hook):
        stats, children = self.stats, self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                stats[name + ".s"] += elapsed
                stats[name + ".self_s"] += elapsed - inner
                stats[name + ".calls"] += 1
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def install(self, pkg):
        """Wrap every WRAPPED attribute that exists; list the ones that do not."""
        for module, attr, name, hook in WRAPPED:
            mod = pkg[module]
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(fn, name, hook))

    def metrics(self, extra):
        """Every PER_LAYER metric, from the spans plus `extra` (counters taken
        outside the wrappers)."""
        merged = dict(self.stats)
        merged.update(extra)
        return {name: float(merged.get(name, 0.0)) for name, _, _ in PER_LAYER}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def import_times(stderr: str) -> dict:
    """cli.import_s (cumulative import of the gegenexp package) and
    cli.import.scipy_special_s from `python -X importtime` output."""
    found = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(4) in ("gegenexp", "scipy.special"):
            found.setdefault(m.group(4), int(m.group(2)) * 1e-6)
    return {"cli.import_s": found.get("gegenexp", 0.0),
            "cli.import.scipy_special_s": found.get("scipy.special", 0.0)}
