"""The package's imports: third-party ones are declared in pyproject.toml,
and every module uses what it imports; and three structural guards."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _modules():
    return sorted((ROOT / "src" / "cardiobem").glob("*.py"))


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
    for path in _modules():
        imported |= _imported_top_levels(path.read_text())
    third_party = imported - set(sys.stdlib_module_names) - {"cardiobem"}
    assert {"numpy", "scipy", "orjson"} <= third_party
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in project["dependencies"]}
    assert third_party <= declared, sorted(third_party - declared)


def test_module_level_imports_are_used():
    # a name a module imports at module level is read in it or exported by
    # its __all__; the package __init__ only re-exports
    unused = []
    for path in _modules():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = [alias.asname or alias.name.split(".")[0]
                 for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {name for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for name in ast.literal_eval(node.value)}
        unused += [f"{path.name}: {name}" for name in bound
                   if name not in read | exported]
    assert unused == []


def test_no_module_reads_the_cache_token():
    # meshes are told apart by identity; the property stays defined only
    # for the benchmark's tracer
    readers = [f"{path.name}:{node.lineno}" for path in _modules()
               for node in ast.walk(ast.parse(path.read_text()))
               if (isinstance(node, ast.Attribute) and node.attr == "cache_token")
               or (isinstance(node, ast.Constant) and node.value == "cache_token")]
    assert readers == []


def test_direct_has_one_operator_builder():
    # every solver reads its owner's (A, B) from boundary_operators, so no
    # second builder of layer operators grows back in direct.py
    tree = ast.parse((ROOT / "src" / "cardiobem" / "direct.py").read_text())
    callers = sorted({getattr(top, "name", f"line {top.lineno}")
                      for top in tree.body for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and "assemble_layer" in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None))})
    assert callers == ["boundary_operators"]


def test_each_helper_has_one_home():
    # no top-level function is defined in two modules, and the
    # point-to-surface geometry lives in mesh.py, which assembly imports it
    # from, so a moved helper cannot grow back as a copy
    homes = {}
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                homes.setdefault(node.name, []).append(path.name)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}
    geometry = {"_closest_points", "_near_pairs"}
    assert {name: homes[name] for name in geometry} == {
        name: ["mesh.py"] for name in geometry}
    tree = ast.parse((ROOT / "src" / "cardiobem" / "assembly.py").read_text())
    from_mesh = {alias.name for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.module == "mesh"
                 for alias in node.names}
    assert geometry <= from_mesh
