"""Import structure of the package, read from the source with ``ast``,
and the modules a process loads, seen in fresh interpreters."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pa
from pa import quat

SRC = Path(pa.__file__).parent
SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text())


def imported_modules(name: str) -> set[str]:
    """The modules a file of the package imports, relative imports resolved
    to ``pa.<module>``."""
    return _imports(ast.walk(_tree(name)))


def module_level_imports(name: str) -> set[str]:
    """The same, for the imports run when the file is imported: those at
    the top level of the module, not inside a function."""
    return _imports(_tree(name).body)


def _imports(nodes) -> set[str]:
    out = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                out.add(node.module)
            elif node.module:
                out.add(f"pa.{node.module}")
            else:
                out.update(f"pa.{alias.name}" for alias in node.names)
    return out


def test_every_module_parses_as_python_3_10():
    # pyproject.toml says requires-python >= 3.10.  ``feature_version``
    # refuses the later grammar the parser gates, such as except* and type
    # parameters.
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


EXTRA_PYTHONS = "PA_EXTRA_PYTHONS"
REPLAY = Path(__file__).resolve().parent / "golden_replay.py"


def _golden_replay(python: str) -> bytes:
    """The stdout of ``golden_replay.py`` under the interpreter ``python``,
    with only the package on its path."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHOME"}
    env["PYTHONPATH"] = str(SRC.parent)
    proc = subprocess.run([python, str(REPLAY)], capture_output=True, env=env, timeout=600)
    assert proc.returncode == 0, (python, proc.stderr.decode(errors="replace"))
    return proc.stdout


def test_every_golden_output_is_the_same_under_the_extra_interpreters():
    # The dynamic half of the requires-python guard: every recorded command,
    # ``pa verify --all --json`` among them, replayed in one child process
    # per interpreter named by absolute path in PA_EXTRA_PYTHONS (separated
    # by os.pathsep; never looked up on PATH), gives the running
    # interpreter's bytes.
    pythons = [p for p in os.environ.get(EXTRA_PYTHONS, "").split(os.pathsep) if p]
    if not pythons:
        pytest.skip(f"{EXTRA_PYTHONS} names no interpreter to replay the golden commands with")
    relative = [p for p in pythons if not os.path.isabs(p)]
    assert not relative, f"{EXTRA_PYTHONS} takes absolute paths: {relative}"
    expected = _golden_replay(sys.executable)
    assert len(json.loads(expected)) == len(json.loads((GOLDEN / "cli.json").read_text()))
    for python in pythons:
        assert _golden_replay(python) == expected, python


def test_groups_imports_only_the_standard_library():
    modules = imported_modules("groups.py")
    assert modules
    assert all(m.partition(".")[0] in sys.stdlib_module_names for m in modules), modules


def test_cosetenum_does_not_import_quat():
    modules = imported_modules("cosetenum.py")
    assert "pa.groups" in modules
    assert "pa.quat" not in modules


def test_bench_patches_only_attributes_that_exist():
    # The traced benchmark run replaces these by name; a rename must fail
    # here, not crash the traced run.
    patched = set()
    for node in ast.walk(ast.parse(SPANS.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_patch"
            and isinstance(node.args[0], ast.Attribute)
            and isinstance(node.args[0].value, ast.Name)
            and node.args[0].value.id == "quat"
        ):
            patched.add((node.args[0].attr, node.args[1].value))
    assert patched == {("FinGroup", "quotient"), ("Isom3", "__mul__"), ("QuatExt", "__mul__")}
    for owner, attr in patched:
        assert callable(getattr(getattr(quat, owner), attr)), (owner, attr)


def _calls_by_function(node, owner=""):
    """(owner, call) for every call under ``node``: owner is the dotted name
    of the innermost enclosing class or function, "" at the top level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _calls_by_function(child, f"{owner}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call):
            yield owner, child
        yield from _calls_by_function(child, owner)


def test_isom3_keys_are_built_only_by_its_constructor():
    # Isom3 elements compare and hash as their keys, so a key built outside
    # the canonicalising constructor (or the product's inline copy of it)
    # could be a second, unequal name for the same isometry.
    tree = _tree("quat.py")
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert classes == {"Isom3", "QuatExt"}
    builders = set()
    for owner, call in _calls_by_function(tree):
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__new__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "tuple"
            and isinstance(call.args[0], ast.Name)
            and (
                call.args[0].id == "Isom3"
                or (call.args[0].id == "cls" and owner.startswith("Isom3."))
            )
        ):
            builders.add(owner)
    assert builders == {"Isom3.__new__", "Isom3.__mul__"}


# ---------------------------------------------------------------------------
# Layers loaded on demand


def test_cli_and_package_import_only_what_every_command_needs():
    # An eager import here loads a layer for every command, "pa link" too.
    assert module_level_imports("__init__.py") == {"importlib"}
    assert module_level_imports("cli.py") == {
        "__future__", "argparse", "json", "sys", "fractions", "pa.slopes", "pa.groups",
    }
    # Each command imports its own layers, by module, inside the function.
    layers = {path.stem for path in SRC.glob("*.py")} - {"__init__", "cli"}
    for node in ast.walk(_tree("cli.py")):
        if isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    assert isinstance(inner, ast.ImportFrom), node.name
                    assert (inner.level, inner.module) == (1, None), node.name
                    assert {alias.name for alias in inner.names} <= layers, node.name


def loaded_modules(code: str) -> set[str]:
    """The ``pa`` modules loaded after running ``code`` in a fresh interpreter."""
    probe = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'pa')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, cwd=GOLDEN,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


CORE = {"pa", "pa.cli", "pa.slopes", "pa.groups"}
LAYERS_OF = {
    ("link", "classify", "3/7"): set(),
    ("heckoid", "2/5", "3"): {"pa.orbigraph"},
    ("homology", "dihedral_2_5_2_3.json"): {"pa.orbigraph"},
    ("dihedral", "2/7", "3", "5"): {"pa.dihedral", "pa.quat"},
    ("cusp", "244"): {"pa.cusplattice", "pa.cosetenum"},
    ("triangle", "order", "2 3 5", "ab"): {"pa.cosetenum"},
    ("verify", "cusp-244"): {
        "pa.verify", "pa.dihedral", "pa.quat", "pa.orbigraph", "pa.cusplattice",
        "pa.cosetenum",
    },
}


def test_importing_the_cli_loads_no_layer():
    assert loaded_modules("import pa.cli") == CORE
    assert loaded_modules("import pa") == {"pa"}


@pytest.mark.parametrize("argv", LAYERS_OF, ids=" ".join)
def test_each_command_loads_only_its_layers(argv):
    code = f"import pa.cli\nassert pa.cli.main({list(argv) + ['--json']!r}) == 0"
    assert loaded_modules(code) == CORE | LAYERS_OF[argv]


def defined_names(name: str) -> set[str]:
    """The names a module binds at its top level by def, class or assignment."""
    out = set()
    for node in _tree(name).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


def test_public_names_resolve_to_their_home_modules():
    assert len(pa.__all__) == 60 and pa.__all__ == sorted(set(pa.__all__))
    for module, names in pa._EXPORTS.items():
        home = importlib.import_module(f"pa.{module}")
        defined = defined_names(f"{module}.py")
        for name in names:
            assert name in defined, (module, name)
            assert getattr(pa, name) is getattr(home, name), name
    assert sorted(pa._HOME) == pa.__all__
    assert set(pa.__all__) <= set(dir(pa))


# Public definitions that no module of the package and no demo refers to,
# each with what it serves.
UNREFERENCED_ALLOWED = {
    "quat.L": "reads format_isom's printed L(t1, t2) back into an Isom3",
}
DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _referenced_names(nodes) -> set[str]:
    """The identifiers that ``nodes`` and their children load by name or
    as an attribute."""
    out = set()
    for node in nodes:
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                out.add(child.id)
            elif isinstance(child, ast.Attribute):
                out.add(child.attr)
    return out


def test_every_public_definition_is_reached():
    # No test-only code in the package: each public module-level def or
    # class is referred to from the package, outside its own definition,
    # or from a demo.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    demos = _referenced_names(
        ast.parse(path.read_text()) for path in sorted(DEMOS.glob("*.py"))
    )
    unreached = []
    for module, tree in trees.items():
        elsewhere = demos | _referenced_names(t for m, t in trees.items() if m != module)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            here = _referenced_names(n for n in tree.body if n is not node)
            if node.name not in elsewhere | here:
                unreached.append(f"{module}.{node.name}")
    assert unreached == sorted(UNREFERENCED_ALLOWED), unreached


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from pa import *", namespace)
    assert set(pa.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pa.no_such_name
    assert not hasattr(pa, "cli_main")
