"""The test extra in ``pyproject.toml`` declares every module the tests import."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def _top_level_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_test_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    # every declared distribution is imported under its own name
    declared = {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    test_files = sorted((ROOT / "tests").glob("*.py"))
    local = {path.stem for path in test_files} | {project["name"]}
    imported = set().union(*map(_top_level_imports, test_files))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"numpy", "pytest", "mpmath"} <= third_party  # the scan sees the imports
    assert third_party <= declared, sorted(third_party - declared)
