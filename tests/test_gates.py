"""Package rules read from the source: the oracle stays independent of the
closed forms, and no module reads the environment."""

import ast
from pathlib import Path

import gegenexp

PACKAGE = Path(gegenexp.__file__).parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


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
