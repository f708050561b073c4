"""Import structure of the package, read from the source with ``ast``,
and the modules a process loads, seen in fresh interpreters."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
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
TESTS = Path(__file__).resolve().parent


def _run_script(python: str, script: str) -> bytes:
    """The stdout of ``tests/<script>`` under the interpreter ``python``,
    with only the package on its path; the script must exit 0."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHOME"}
    env["PYTHONPATH"] = str(SRC.parent)
    proc = subprocess.run([python, str(TESTS / script)], capture_output=True, env=env, timeout=600)
    assert proc.returncode == 0, (
        python, script, proc.stdout.decode(errors="replace"), proc.stderr.decode(errors="replace")
    )
    return proc.stdout


def test_every_golden_output_is_the_same_under_the_extra_interpreters():
    # The dynamic half of the requires-python guard: every recorded command,
    # ``pa verify --all --json`` among them, replayed in one child process
    # per interpreter named by absolute path in PA_EXTRA_PYTHONS (separated
    # by os.pathsep; never looked up on PATH), gives the running
    # interpreter's bytes.  Each interpreter also runs the parser sweep, as
    # the parser relies on argparse treating its prog and placeholders
    # alike across versions.
    pythons = [p for p in os.environ.get(EXTRA_PYTHONS, "").split(os.pathsep) if p]
    if not pythons:
        pytest.skip(f"{EXTRA_PYTHONS} names no interpreter to replay the golden commands with")
    relative = [p for p in pythons if not os.path.isabs(p)]
    assert not relative, f"{EXTRA_PYTHONS} takes absolute paths: {relative}"
    expected = _run_script(sys.executable, "golden_replay.py")
    assert len(json.loads(expected)) == len(json.loads((GOLDEN / "cli.json").read_text()))
    for python in pythons:
        assert _run_script(python, "golden_replay.py") == expected, python
        _run_script(python, "parser_sweep.py")


def test_groups_imports_only_the_standard_library():
    modules = imported_modules("groups.py")
    assert modules
    assert all(m.partition(".")[0] in sys.stdlib_module_names for m in modules), modules


def test_cosetenum_does_not_import_quat():
    modules = imported_modules("cosetenum.py")
    assert "pa.groups" in modules
    assert "pa.quat" not in modules


def test_cosetenum_does_not_import_fractions():
    # Triangle orders are read in integers (2pqr / (qr + pr + pq - pqr)),
    # so coset enumeration needs no Fraction.
    assert "fractions" not in imported_modules("cosetenum.py")


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


def _isom3_builders(tree):
    """The functions that build an ``Isom3`` key with ``tuple.__new__``,
    called by that name or by any name it is assigned to, directly or
    through other such names."""
    names = {"tuple.__new__"}
    assigns = [
        (node.targets if isinstance(node, ast.Assign) else [node.target], node.value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
    ]
    while True:
        more = {
            target.id
            for targets, value in assigns
            if ast.unparse(value) in names
            for target in targets
            if isinstance(target, ast.Name)
        } - names
        if not more:
            break
        names |= more
    builders = set()
    for owner, call in _calls_by_function(tree):
        if (
            ast.unparse(call.func) in names
            and call.args
            and isinstance(call.args[0], ast.Name)
            and (
                call.args[0].id == "Isom3"
                or (call.args[0].id == "cls" and owner.startswith("Isom3."))
            )
        ):
            builders.add(owner)
    return builders


def test_isom3_keys_are_built_only_by_its_constructor():
    # Isom3 elements compare and hash as their keys, so a key built outside
    # the canonicalising constructor (or the product's and the inverse's
    # inline copies of it) could be a second, unequal name for the same
    # isometry.
    tree = _tree("quat.py")
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert classes == {"Isom3", "QuatExt"}
    assert _isom3_builders(tree) == {"Isom3.__new__", "Isom3.__mul__", "Isom3.inv"}


def test_the_builder_guard_sees_through_an_alias():
    source = """
_new = tuple.__new__
make: object = _new
class Isom3(tuple):
    def __new__(cls, *key):
        return tuple.__new__(cls, key)
    def conjugate(self):
        return _new(Isom3, self)
    def swap(self):
        return make(Isom3, self)
def stray(key):
    return tuple.__new__(Isom3, key)
def other(key):
    return _new(tuple, key)
"""
    assert _isom3_builders(ast.parse(source)) == {
        "Isom3.__new__", "Isom3.conjugate", "Isom3.swap", "stray",
    }


def test_front_ends_read_no_private_attribute():
    # cli and verify reach the layers through their public names only: a
    # single-underscore attribute of any object but ``self`` or ``cls``,
    # such as a graph's storage, ties a front end to a layout it does not
    # own.
    reads = [
        f"{name}:{node.lineno} {ast.unparse(node)}"
        for name in ("cli.py", "verify.py")
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    assert reads == [], reads


# ---------------------------------------------------------------------------
# Layers loaded on demand


def test_cli_and_package_import_only_what_every_command_needs():
    # An eager import here loads a layer for every command, "pa link" too.
    assert module_level_imports("__init__.py") == set()
    assert module_level_imports("cli.py") == {
        "__future__", "argparse", "json", "sys", "fractions", "pa.slopes",
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


CORE = {"pa", "pa.cli", "pa.slopes"}
LAYERS_OF = {
    ("link", "classify", "3/7"): set(),
    ("heckoid", "2/5", "3"): {"pa.orbigraph"},
    ("homology", "dihedral_2_5_2_3.json"): {"pa.orbigraph"},
    ("dihedral", "2/7", "3", "5"): {"pa.dihedral", "pa.quat", "pa.groups"},
    ("cusp", "244"): {"pa.cusplattice", "pa.cosetenum", "pa.groups"},
    ("triangle", "order", "2 3 5", "ab"): {"pa.cosetenum", "pa.groups"},
    ("verify", "cusp-244"): {
        "pa.verify", "pa.dihedral", "pa.quat", "pa.orbigraph", "pa.cusplattice",
        "pa.cosetenum", "pa.groups",
    },
}


def test_importing_the_cli_loads_no_layer():
    assert loaded_modules("import pa.cli") == CORE
    assert loaded_modules("import pa") == {"pa"}


def test_the_package_binds_no_public_name():
    # Each name is imported from its module (``from pa.dihedral import
    # orbifold``): the package keeps no table of them beside the modules,
    # bound at import or on first use.  A fresh interpreter, as this one
    # has bound the submodules it imported.
    proc = subprocess.run(
        [sys.executable, "-c", "import pa; print(sorted(vars(pa)))"],
        capture_output=True, text=True, check=True, cwd=GOLDEN,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    names = ast.literal_eval(proc.stdout)
    assert [name for name in names if name[0] != "_"] == []
    assert "__version__" in names and "__getattr__" not in names


@pytest.mark.parametrize("argv", LAYERS_OF, ids=" ".join)
def test_each_command_loads_only_its_layers(argv):
    code = f"import pa.cli\nassert pa.cli.main({list(argv) + ['--json']!r}) == 0"
    assert loaded_modules(code) == CORE | LAYERS_OF[argv]


# Public definitions that no module of the package and no demo refers to,
# each with what it serves.
UNREFERENCED_ALLOWED = {
    "quat.L": "reads format_isom's printed L(t1, t2) back into an Isom3",
}
DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _referenced_names(nodes) -> Counter[str]:
    """How often ``nodes`` and their children load each identifier, by name
    or as an attribute."""
    out = Counter()
    for node in nodes:
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                out[child.id] += 1
            elif isinstance(child, ast.Attribute):
                out[child.attr] += 1
    return out


def unreached_definitions(trees: dict[str, ast.Module], demos) -> list[str]:
    """The public module-level defs and classes of ``trees``, and the public
    methods and properties of those classes, whose name nothing loads: not
    ``trees`` outside the definition itself, and not ``demos``, the names
    the demos load."""
    everywhere = _referenced_names(trees.values())
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            definitions = [(node, module)]
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (m, f"{module}.{node.name}") for m in node.body
                    if isinstance(m, ast.FunctionDef) and m.name[0] != "_"
                ]
            for definition, where in definitions:
                name = definition.name
                if name not in demos and everywhere[name] == _referenced_names([definition])[name]:
                    unreached.append(f"{where}.{name}")
    return sorted(unreached)


def test_every_public_definition_is_reached():
    # No test-only code in the package: each public module-level def or
    # class, and each public method or property of a public class, is
    # referred to by name from the package, outside its own definition, or
    # from a demo.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    demos = _referenced_names(
        ast.parse(path.read_text()) for path in sorted(DEMOS.glob("*.py"))
    )
    assert unreached_definitions(trees, demos) == sorted(UNREFERENCED_ALLOWED)


def test_the_reach_guard_sees_an_unreferenced_method():
    source = """
class Graph:
    def used(self):
        return self.helper()
    def helper(self):
        return 1
    def unused(self):
        return self.unused()
    @property
    def size(self):
        return 0
    def _private(self):
        return 2
def main():
    return Graph().used()
"""
    trees = {"m": ast.parse(source)}
    assert unreached_definitions(trees, set()) == ["m.Graph.size", "m.Graph.unused", "m.main"]
    assert unreached_definitions(trees, {"size", "main"}) == ["m.Graph.unused"]
