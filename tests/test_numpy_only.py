"""The package promises to need numpy alone: every import in
``src/fxstack`` is relative, ``numpy`` or a standard library module."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "fxstack"


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []
