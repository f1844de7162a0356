"""Package rules read from the source: the oracle stays independent of the
closed forms, no module reads the environment, log-gamma is taken and a
real argument or a point in [-1, 1] checked in specfun alone, a lattice
gamma is taken by the gamma ratio or the grid's gamma vectors alone, one
function gathers the coefficient lattice and the cosine expansion reads
the coefficient table, one sums the sheared 2F1, every export has a
caller, a README mention or a test that compares against it, and the
README's suite table is SUITE_TABLE; and the 2-D oracle path keeps one
geometry, the oracle's refinement driver alone raises its convergence
error, and the 2-D suites' oracle work is pinned as a count; and three
functions keep a cache."""

import ast
import math
import re
from pathlib import Path

import numpy as np

import gegenexp
import gegenexp.expansion as ex
import gegenexp.oracle as orc
import gegenexp.specfun as sf
import gegenexp.verify as vf
from gegenexp.verify import SUITE_TABLE

PACKAGE = Path(gegenexp.__file__).parent
ROOT = PACKAGE.parents[1]
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
FUNCTIONS = {f"{name}.{node.name}": node for name, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

#: Exports that no module reads and the README does not name, each mapped to
#: a test that compares a computed value against it.
REFERENCE_ONLY = {
    "weighted_power_mass":
        "tests/test_oracle.py::TestBasics::test_weighted_mass_matches_closed_form",
}


def _package_imports(tree) -> set:
    """Names of the gegenexp modules that a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            base = node.module or ""
            names = [base] if base else [a.name for a in node.names]
            names = ["gegenexp." + n for n in names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "gegenexp" and len(parts) > 1 and parts[1] in TREES:
                found.add(parts[1])
    return found


def _reads_environment(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "environb"):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if {a.name for a in node.names} & {"environ", "getenv", "environb"}:
                return True
    return False


def test_oracle_is_independent_and_environment_unread():
    # everything oracle and orthopoly import, directly or through another
    # package module, stays clear of the closed forms and the suites
    reached, todo = set(), ["oracle", "orthopoly"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_package_imports(TREES[name]))
    assert not reached & {"expansion", "verify"}
    assert [name for name, tree in TREES.items() if _reads_environment(tree)] == []


def _uses_lgamma(tree) -> bool:
    """Whether a module or function reads math.lgamma, as an attribute or by
    import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "lgamma":
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            if "lgamma" in {a.name for a in node.names}:
                return True
    return False


def test_log_gamma_is_taken_in_specfun_alone():
    # one function reads math.lgamma: gamma_ratio takes each factor, and every
    # other module each gamma, through specfun's lattice rule _lgamma_at, so
    # the pole test, the sign and the overflow rule live there alone
    assert [name for name, tree in TREES.items() if _uses_lgamma(tree)] == ["specfun"]
    readers = {f"{name}.{node.name}" for name, tree in TREES.items()
               for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and _uses_lgamma(node)}
    assert readers == {"specfun._lgamma_at"}


def _finiteness_checks(tree) -> set:
    """Functions (module level: None) that compare against math.inf or
    np.inf with <, <=, > or >=, or call isfinite."""
    found = set()

    def is_inf(node):
        node = node.operand if isinstance(node, ast.UnaryOp) else node
        return isinstance(node, ast.Attribute) and node.attr == "inf"

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        if isinstance(node, ast.Compare):
            ordered = any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
            if ordered and any(map(is_inf, [node.left, *node.comparators])):
                found.add(func)
        elif isinstance(node, ast.Call):
            if getattr(node.func, "attr", getattr(node.func, "id", None)) == "isfinite":
                found.add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_real_arguments_are_checked_in_specfun_alone():
    # every other module asks specfun.check_above whether a real argument is
    # finite and above its floor; cli._jsonable, which writes a non-finite
    # result as null, decides nothing about an argument
    sites = {f"{name}.{func}" for name, tree in TREES.items() if name != "specfun"
             for func in _finiteness_checks(tree)}
    assert sorted(sites - {"cli._jsonable"}) == []


def test_lattice_gammas_are_taken_in_two_functions():
    # gamma_ratio takes each factor, a real or a lattice point (c, j), through
    # _log_gamma_ratio, and a coefficient grid its gamma vectors through
    # _lattice_gammas; no closed form reads _lgamma_at itself
    readers = {name for name, node in FUNCTIONS.items() if "_lgamma_at" in _reads(node)}
    assert readers == {"specfun._log_gamma_ratio", "expansion._lattice_gammas"}


def test_one_function_gathers_the_lattice():
    # coeff_table, the cosine expansion through it (the series at
    # lam = mu = 0) and the tail's term grid gather the (l, m) gamma lattice
    # through _lattice, the one reader of the Hankel and Toeplitz views; the
    # term grid takes no signs, so it needs no abs
    gathers = {"_hankel", "_toeplitz"}
    readers = {name: _reads(node) & gathers for name, node in FUNCTIONS.items()}
    readers = {name: read for name, read in readers.items() if read}
    assert readers == {"expansion._lattice": gathers}
    assert not _reads(FUNCTIONS["expansion._term_sup_grid"]) & {"coeff_table", "abs"}


def test_the_cosine_expansion_is_the_series():
    # it reads coeff_table at lam = mu = 0, so a second lattice, with its own
    # gamma vector and prefactor, cannot come back
    read = _reads(FUNCTIONS["expansion.cosine_expansion"])
    assert "coeff_table" in read
    assert not read & {"_lattice", "_reciprocal_gammas", "_denominator_lattices",
                       "_lattice_gammas", "_lgamma_at", "gamma_ratio"}


def test_one_sheared_closed_form_sums_a_2f1():
    # plus_part_integral checks its arguments and sums through _plus_part;
    # plus_base_integral is the same sum at degree 0, its Gamma(a) Gamma(b)
    # joining _plus_part's one gamma ratio, and sheared_integral checks its
    # arguments once and scales _plus_part by SHEAR_KINDS' weights
    readers = [name for name, node in FUNCTIONS.items()
               if not name.startswith("specfun.") and "hyp2f1" in _reads(node)]
    assert readers == ["expansion._plus_part"]
    for name in ("plus_part_integral", "plus_base_integral"):
        read = _reads(FUNCTIONS[f"expansion.{name}"])
        assert "_plus_part" in read and not read & {"gamma_ratio", "hyp2f1"}, name


def _unit_interval_tests(tree) -> list:
    """Chained comparisons with -1 at one end and 1 at the other."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and len(node.ops) > 1
            and {ast.unparse(node.left), ast.unparse(node.comparators[-1])}
            in ({"-1.0", "1.0"}, {"-1", "1"})]


def test_points_in_the_square_are_checked_in_specfun_alone():
    # a shear or a point in [-1, 1] goes through specfun.check_points, whose
    # message names the value
    found = {name: _unit_interval_tests(tree) for name, tree in TREES.items()
             if name != "specfun"}
    assert {name: tests for name, tests in found.items() if tests} == {}


def _reads(tree) -> set:
    """Names that a module reads, as an ast.Name or an ast.Attribute, outside
    the def or class of the same name and outside a function whose parameter
    has that name.  Otherwise the match is by name alone, so a local
    variable that shares an export's name counts as a read."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            inside = inside | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        elif isinstance(node, ast.Name):
            found.update({node.id} - inside)
        elif isinstance(node, ast.Attribute):
            found.update({node.attr} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _readme_code_names() -> set:
    """Names that the README shows as code: a whole inline code span, a name
    followed by ( in a code block or span, or a name that a
    `from gegenexp import` line imports."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    imports = re.findall(r"^from gegenexp import (.*)$", text, flags=re.M)
    return (
        {span for span in spans if span.isidentifier()}
        | set(re.findall(r"(\w+)\(", " ".join(blocks + spans)))
        | set(re.findall(r"\w+", " ".join(imports)))
    )


def _test_reads(test_id: str) -> set:
    """Names that the test function test_id reads."""
    path, *scope = test_id.split("::")
    node = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    for name in scope:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return _reads(node)


def test_every_export_has_a_reader():
    exported = {
        alias.asname or alias.name
        for node in TREES["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set().union(*(_reads(tree) for name, tree in TREES.items() if name != "__init__"))
    unread = exported - read - _readme_code_names()
    assert sorted(unread) == sorted(REFERENCE_ONLY)
    for name, test_id in REFERENCE_ONLY.items():
        assert name in _test_reads(test_id), (name, test_id)


def test_readme_suite_table_is_the_suite_table():
    # one row per suite, in run order, with its default tolerance and case count
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| `([^`]+)` \| (\d+) \|$", text, flags=re.M)
    assert [(name, float(tol), int(cases)) for name, tol, cases in rows] == [
        (name, row.tol, row.cases) for name, row in SUITE_TABLE.items()
    ]


def test_a_coefficient_grid_takes_its_gammas_at_anchors(monkeypatch):
    # the lattice takes _lgamma_at at one point in _ANCHOR of each parity
    # chain and the recurrence between them; one call per entry of the four
    # gamma vectors made 1,608 calls here, the numerator's four included
    calls, lgamma_at = [], sf._lgamma_at

    def counted(c, j):
        calls.append((c, j))
        return lgamma_at(c, j)

    monkeypatch.setattr(ex, "_lgamma_at", counted)
    monkeypatch.setattr(sf, "_lgamma_at", counted)
    ex.coeff_table(ex.ExpansionParams(0.7, 1.3, 4.1, 1), 200, 200)
    assert 0 < len(calls) <= 100


def _closed_form_series_requests(seed: int):
    """The series requests of perfbench's closed_form workload at seed, as
    ExpansionParams and a tolerance, drawn as perfbench/workloads.py draws
    them."""
    rng = np.random.default_rng([seed, 1])
    for j in range(18):
        tol = (1e-5, 1e-6, 1e-7)[j % 3]
        margin = (2.0, 2.75, 3.5)[(j // 3) % 3] * (1.0 + rng.uniform(-0.03, 0.03))
        eps = j % 2
        raw = ((1.2, 2.0, 2.8, 3.6)[j % 4] + 4.0 + margin) / 2.0
        nu = math.ceil(raw - 0.5) + 0.5 if eps == 0 else math.ceil(raw)
        nu += rng.uniform(-0.05, 0.05)
        total = 2.0 * nu - 4.0 - margin
        share = 0.5 + rng.uniform(-0.15, 0.15)
        yield ex.ExpansionParams(total * share, total * (1.0 - share), nu, eps), tol


#: truncation_order's square orders for those requests, as the per-entry
#: lattice gammas and the masked window sums gave them.
SERIES_ORDERS = {
    20240401: [62, 88, 176, 76, 60, 132, 39, 84, 64, 47, 112, 208, 36, 84, 152, 53, 42, 84],
    777: [62, 84, 176, 76, 60, 132, 42, 80, 68, 45, 112, 208, 36, 84, 156, 53, 36, 80],
}


def test_truncation_orders_are_pinned():
    # the tail reads sum the same terms in another order, and the lattice
    # rounds its gammas differently; neither may move an order
    for seed, orders in SERIES_ORDERS.items():
        got = [ex.truncation_order(p, tol) for p, tol in _closed_form_series_requests(seed)]
        assert got == [(n, n) for n in orders], seed
    assert ex.truncation_order(ex.ExpansionParams(1, 1, 3.5, 0), 1e-10) == (1088, 1088)


#: The six 2-D suites at their default case counts, as perfbench's verify_2d
#: workload runs them.
VERIFY_2D = (("main", 25), ("stz", 5), ("projection", 10), ("selberg", 3),
             ("warnaar", 2), ("tv", 3))


def test_verify_2d_oracle_work_is_pinned(monkeypatch):
    # every 2-D oracle call of those suites at the default seed, counted at
    # _refine, stops at rung 1, the earliest the rule allows.  Each takes
    # the geometric mesh, four pieces at a unit shear (five of the six suites)
    # and 4 + 3 L at a shear with L layers, summed once for both halves.  A
    # change that brings a climb or a piece back fails this count, not a
    # timing
    results, refine = [], orc._refine

    def counted(*args):
        results.append(refine(*args))
        return results[-1]

    monkeypatch.setattr(orc, "_refine", counted)
    for suite, cases in VERIFY_2D:
        assert vf.run_suite(suite, cases=cases).overall_pass, suite
    assert len(results) == 50  # 48 cases, warnaar taking two halves each
    assert max(r.level for r in results) == 1
    assert sum(r.evaluations for r in results) == 55_870


def test_the_2d_path_keeps_one_geometry():
    # _eval_2d and every oracle function it reaches take the one geometric
    # mesh: none reads the graded composite rules, which serve the 3-D
    # outer axis, the Hermite and the finite-part backends, and the graded
    # split rule is gone
    top = {node.name: node for node in TREES["oracle"].body
           if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["_eval_2d"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_reads(top[name]) & top.keys())
    assert "_mesh" in reached
    read = set().union(*(_reads(top[name]) for name in reached))
    assert "_interval_rule" not in read
    assert "_graded" not in top


def _raise_sites(tree, error: str) -> list:
    """The innermost function (module level: None) around each raise of
    `error`, called or bare."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "attr", getattr(exc, "id", None)) == error:
                found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_refine_alone_certifies_an_oracle_result():
    # every backend's rung reports its noise floor, and _refine alone takes
    # it into the estimate and decides whether the result meets its target,
    # so no backend raises a second time with a floor of its own
    sites = {f"{name}.{func}" for name, tree in TREES.items()
             for func in _raise_sites(tree, "OracleConvergenceError")}
    assert sites == {"oracle._refine"}


def test_a_mesh_takes_its_rules_from_one_stacked_solve(monkeypatch):
    # every folded rule of a rung comes from one gauss_jacobi_rules call, one
    # eigh over the stack of Jacobi matrices; a rule built or fetched one pair
    # at a time, cached or not, fails one of the two counts
    import gegenexp.orthopoly as op

    calls = {"eigh": 0, "gauss_jacobi_rule": 0}

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    for module in (orc, op):
        monkeypatch.setattr(module, "gauss_jacobi_rule",
                            counted("gauss_jacobi_rule", module.gauss_jacobi_rule))
    spec = orc.QuadratureSpec("plus", 1.3, 0.9, (0.7, 1.6), (2, 3))
    mesh, tips = orc._mesh(spec, 11, 3, {(3, False), (0, True)})
    assert calls == {"eigh": 1, "gauss_jacobi_rule": 0}
    assert set(tips) == {(3, False), (0, True)} and mesh[3].size > 0


def _cached(node) -> bool:
    """Whether a def carries functools' lru_cache or cache, called or bare,
    by name or as an attribute."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) in ("lru_cache", "cache"):
            return True
    return False


def test_three_functions_keep_a_cache():
    # the one-pair Jacobi and the Hermite rules, shared as read-only arrays,
    # and the reflection's log(pi / sin); the graded composite rules and the
    # 2-D mesh are built on each call, from the cached one-pair rules or one
    # stacked solve
    cached = {name for name, node in FUNCTIONS.items() if _cached(node)}
    assert cached == {"orthopoly.gauss_jacobi_rule", "orthopoly.gauss_hermite_rule",
                      "specfun._log_pi_over_sin"}
