"""Import structure of the package, read from the source with ``ast``."""

import ast
import sys
from pathlib import Path

import pa
from pa import quat

SRC = Path(pa.__file__).parent
SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def imported_modules(name: str) -> set[str]:
    """The modules a file of the package imports, relative imports resolved
    to ``pa.<module>``."""
    tree = ast.parse((SRC / name).read_text())
    out = set()
    for node in ast.walk(tree):
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
