"""The package's third-party imports are declared in pyproject.toml."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_levels(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_dependencies():
    imported = set()
    for path in sorted((ROOT / "src" / "cardiobem").glob("*.py")):
        imported |= _imported_top_levels(path.read_text())
    third_party = imported - set(sys.stdlib_module_names) - {"cardiobem"}
    assert {"numpy", "scipy", "orjson"} <= third_party
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in project["dependencies"]}
    assert third_party <= declared, sorted(third_party - declared)
