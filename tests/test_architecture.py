"""Import structure of the package, read from the source with ``ast``."""

import ast
import sys
from pathlib import Path

import pa

SRC = Path(pa.__file__).parent


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
