"""The package's imports: third-party ones are declared in pyproject.toml,
and every module uses what it imports; and ten structural guards."""

import ast
import fnmatch
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
    # second builder of layer operators grows back in direct.py; the
    # builder keeps nothing, so the shell's A and B cannot be kept again
    # beside the Zaremba transfer, and the only entries kept are the three
    # solution operators, so no shared ("operators", tensor) entry holding
    # a closed mesh's A and B beside them grows back; the solvers return
    # the boundary pair and leave interior values to green_representation,
    # which direct.py neither calls nor imports
    tree = ast.parse((ROOT / "src" / "cardiobem" / "direct.py").read_text())

    def callers(name):
        return sorted({getattr(top, "name", f"line {top.lineno}")
                       for top in tree.body for node in ast.walk(top)
                       if isinstance(node, ast.Call)
                       and name in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))})

    assert callers("assemble_layer") == ["boundary_operators"]
    assert "boundary_operators" not in callers("_memo")
    keys = sorted(node.args[1].elts[0].value for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "_memo")
    assert keys == ["dirichlet", "neumann", "zaremba"]
    assert callers("green_representation") == []
    assert "green_representation" not in {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_reconstruct_keeps_no_entry():
    # the protocols end in the operators direct.py and cauchy.py keep; a
    # map composed from them and kept beside them saves no product per
    # frame, so reconstruct.py keeps nothing of its own
    tree = ast.parse((ROOT / "src" / "cardiobem" / "reconstruct.py").read_text())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "_memo" in (getattr(node.func, "id", None),
                             getattr(node.func, "attr", None))]
    assert calls == []


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
    geometry = {"_closest_points", "_near_pairs", "_column_pass"}
    assert {name: homes[name] for name in geometry} == {
        name: ["mesh.py"] for name in geometry}
    tree = ast.parse((ROOT / "src" / "cardiobem" / "assembly.py").read_text())
    from_mesh = {alias.name for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.module == "mesh"
                 for alias in node.names}
    assert {"_closest_points", "_near_pairs"} <= from_mesh


def test_one_crossing_pass_answers_containment():
    # points, grid columns and curves share _column_pass; the per-shape
    # parity tests it replaced do not grow back
    callers, defined = set(), set()
    for path in _modules():
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                defined.add(top.name)
            callers |= {f"{path.name}:{getattr(top, 'name', top.lineno)}"
                        for node in ast.walk(top) if isinstance(node, ast.Call)
                        and "_column_pass" in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None))}
    assert callers == {"mesh.py:points_inside", "mesh.py:_lattice_inside"}
    assert not defined & {"_ray_parity", "_curve_parity"}


def test_one_float_writer():
    # every float of a written table is spelled by mesh._spell_floats, the
    # one caller of orjson.dumps, so no second writer can skip its repr
    # fix-ups for the magnitudes orjson spells differently
    sites = [f"{path.name}:{getattr(top, 'name', top.lineno)}" for path in _modules()
             for top in ast.parse(path.read_text()).body for node in ast.walk(top)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "dumps"
             and getattr(node.func.value, "id", None) == "orjson"]
    assert sites == ["mesh.py:_spell_floats"]


def test_one_checked_read():
    # every input file is read through mesh._read_text, which turns a file
    # that cannot be read or decoded into a ParseError, and every JSON
    # document through mesh._read_json_object, which checks its keys, so a
    # new loader cannot skip them and leak a bare OSError, UnicodeDecodeError
    # or KeyError
    sites = sorted(f"{path.name}:{getattr(top, 'name', top.lineno)}:{node.func.attr}"
                   for path in _modules()
                   for top in ast.parse(path.read_text()).body for node in ast.walk(top)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and (node.func.attr == "read_text"
                        or (node.func.attr == "loads"
                            and getattr(node.func.value, "id", None) == "json")))
    assert sites == ["mesh.py:_read_json_object:loads", "mesh.py:_read_text:read_text"]


def test_array_dataclasses_compare_by_identity():
    # the generated __eq__ of a dataclass compares its fields as a tuple,
    # which raises on an array field ("truth value of an array ... is
    # ambiguous"), so each dataclass holding an array compares by identity
    generated = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                if "dataclass" not in ast.unparse(dec):
                    continue
                eq = [kw.value for kw in getattr(dec, "keywords", []) if kw.arg == "eq"]
                arrays = any("np.ndarray" in ast.unparse(stmt.annotation)
                             for stmt in node.body if isinstance(stmt, ast.AnnAssign))
                if arrays and not (eq and getattr(eq[0], "value", True) is False):
                    generated.append(f"{path.name}:{node.name}")
    assert generated == []


# exported for readers outside the package and its scripts: the analytic
# reference of the general-formula test in test_reconstruct.py
_READERLESS_EXPORTS = {
    "Sphere3D": "the ball geometry of the general-formula reference field",
    "eval_harmonic": "values and gradients of that reference field",
}


def test_every_export_has_a_reader():
    # a name the package re-exports is read in one of its modules (a load,
    # not its own def or class), or named by a demo, the README or the
    # benchmark, so an export only its own tests call does not grow back
    init = ast.parse((ROOT / "src" / "cardiobem" / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set()
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    texts = [path.read_text() for pattern in ("demos/*.py", "README.md", "perfbench/*.py")
             for path in ROOT.glob(pattern)]
    named = {name for name in exported
             if any(re.search(rf"\b{name}\b", text) for text in texts)}
    assert sorted(exported - read - named) == sorted(_READERLESS_EXPORTS)


# parameters a shared signature names but one of its functions does not
# read: every CLI handler takes (cfg, out), and both meshes' _check_closed
# hooks take the vertex count n, which only the curve's reads
_SHARED_PARAMETERS = {
    ("cli.py", "_run_*"): {"cfg", "out"},
    ("mesh.py", "_check_closed"): {"n"},
}


def test_every_parameter_is_read():
    # a parameter of a package function is read in that function's body
    # (nested functions included), so an input that changes nothing does
    # not grow back
    unread = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            names |= {a.arg for a in (args.vararg, args.kwarg) if a}
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            allowed = {"self", "cls"}.union(*(
                shared for (module, pattern), shared in _SHARED_PARAMETERS.items()
                if path.name == module and fnmatch.fnmatch(node.name, pattern)))
            unread += [f"{path.name}:{node.name}({name})"
                       for name in sorted(names - read - allowed)]
    assert unread == []
