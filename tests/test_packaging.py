"""The package metadata declares what the package imports, and no more."""

import ast
import re
import sys
from pathlib import Path

import pytest

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
