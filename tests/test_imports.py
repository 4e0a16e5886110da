"""The library depends on numpy and the standard library alone."""

import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "curvlab").glob("*.py"))


def _foreign_imports(path):
    """Top-level module names imported by `path` outside the package, numpy and the standard library."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted({name.split(".")[0] for name in names} - set(sys.stdlib_module_names) - {"numpy"})


def test_src_imports_only_numpy_and_the_standard_library():
    assert len(SOURCES) >= 9
    assert {path.name: _foreign_imports(path) for path in SOURCES} == {path.name: [] for path in SOURCES}


def test_the_import_check_sees_a_foreign_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nimport scipy.linalg\nfrom numpy import linalg\nfrom . import jets\n"
                     "from hypothesis import given\n")
    assert _foreign_imports(probe) == ["hypothesis", "scipy"]
