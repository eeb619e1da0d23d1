"""The package runs on numpy and the standard library alone."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "acfshape"


def _imported_roots(path):
    """(line, top-level module) for every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_imports_are_numpy_or_stdlib(path):
    allowed = sys.stdlib_module_names | {"numpy", "acfshape"}
    foreign = [f"{path.name}:{line} {root}" for line, root in _imported_roots(path)
               if root not in allowed]
    assert foreign == []


def test_the_guard_sees_a_foreign_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import numpy as np\nfrom . import pulse\nfrom scipy.linalg import qr\n")
    assert list(_imported_roots(source)) == [(1, "numpy"), (3, "scipy")]
