"""Package hygiene: declared dependencies match imports, the public surface
is pinned, and every definition is used."""

import ast
import re
import sys
from pathlib import Path

import pytest

import cliffopt

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src" / "cliffopt").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "cliffopt"}


def test_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    assert declared == _third_party_imports()


def test_public_surface_is_pinned():
    # Growing or shrinking the surface is a deliberate edit of this list.
    assert cliffopt.__all__ == [
        "Circuit",
        "CliffordTableau",
        "Gate",
        "PauliOperator",
        "TWO_QUBIT_WEIGHT",
        "ag_canonical",
        "anticommute",
        "circuit_to_tableau",
        "conjugate_pauli",
        "cx",
        "cz",
        "disentangle_cost",
        "disentangler",
        "greedy_bidirectional",
        "greedy_unidirectional",
        "h",
        "random_clifford",
        "s",
        "sdg",
        "swap",
        "x",
        "y",
        "z",
    ]
    assert all(hasattr(cliffopt, name) for name in cliffopt.__all__)


def _definitions(tree: ast.Module) -> set[str]:
    """Top-level functions, classes and constants, plus the methods and
    fields of top-level classes."""
    names: set[str] = set()
    for node in tree.body:
        body = [node]
        if isinstance(node, ast.ClassDef):
            body += node.body
        for item in body:
            if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                names.add(item.name)
            elif isinstance(item, ast.Assign):
                names.update(t.id for t in item.targets if isinstance(t, ast.Name))
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names.add(item.target.id)
    return {name for name in names if not name.startswith("__")}


def _references(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def test_every_definition_is_referenced():
    defined: set[str] = set()
    used: set[str] = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(), str(path))
            used |= _references(tree)
            if top == "src":
                defined |= _definitions(tree)
    assert sorted(defined - used) == []


def test_every_import_is_used():
    # __init__.py imports to re-export; every other module uses what it
    # imports.
    unused = []
    for path in (ROOT / "src" / "cliffopt").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            rel = path.relative_to(ROOT)
            unused += [f"{rel}: {name}" for name in bound if name not in loaded]
    assert unused == []


def _modules_where(found) -> set[str]:
    src = ROOT / "src" / "cliffopt"
    return {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if any(map(found, ast.walk(ast.parse(path.read_text(), str(path)))))
    }


def test_operand_rule_lives_in_circuit():
    # circuit.py alone decides what an integer operand is and words the
    # width check; every other module calls its helpers.
    def index(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "operator" and "index" in {
                a.name for a in node.names
            }
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "index"
            and isinstance(node.value, ast.Name)
            and node.value.id == "operator"
        )

    def width(node):
        return isinstance(node, ast.Constant) and "width mismatch" in str(
            node.value
        )

    assert _modules_where(index) == {"circuit.py"}
    assert _modules_where(width) == {"circuit.py"}


def test_gates_are_made_in_circuit():
    # Every other module makes gates through circuit.py's factories and
    # _gate, which build and check each distinct gate once.
    def builds_gate(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (isinstance(func, ast.Name) and func.id == "Gate") or (
            isinstance(func, ast.Attribute) and func.attr == "Gate"
        )

    assert _modules_where(builds_gate) == {"circuit.py"}


def test_unchecked_circuit_callers_are_pinned():
    # Circuit._of skips the per-gate check, so its every caller passes
    # gates that already passed it (circuit.py's docstring). A new call
    # is a deliberate edit of this list, one entry per call.
    src = ROOT / "src" / "cliffopt"
    calls = []
    for path in src.rglob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        scopes = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                scopes.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                scopes += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
        for name, scope in scopes:
            calls += [
                f"{path.relative_to(src).as_posix()}: {name}"
                for node in ast.walk(scope)
                if isinstance(node, ast.Attribute) and node.attr == "_of"
            ]
    assert sorted(calls) == [
        "circuit.py: Circuit.__add__",
        "circuit.py: Circuit.inverse",
        "matching.py: match_and_apply",
        "matching.py: match_and_apply",
        "stages.py: merge_swaps",
        "stages.py: partition_stages",
        "synth/greedy.py: _peel",
        "synth/greedy.py: _peel",
    ]


def test_no_assert_in_package():
    # python -O strips assert statements; an invariant check raises
    # explicitly so that it runs under every interpreter flag.
    assert _modules_where(lambda node: isinstance(node, ast.Assert)) == set()


def test_grammar_parses_at_oldest_supported_python():
    # Only a newer interpreter may be at hand, so each file is parsed with
    # the grammar of the oldest Python that pyproject.toml admits. That
    # version has no tomllib, hence the regex.
    spec = (ROOT / "pyproject.toml").read_text()
    minor = int(re.search(r'requires-python = ">=3\.(\d+)"', spec).group(1))
    for top in ("src/cliffopt", "perfbench", "tests"):
        for path in (ROOT / top).rglob("*.py"):
            ast.parse(path.read_text(), str(path), feature_version=(3, minor))
