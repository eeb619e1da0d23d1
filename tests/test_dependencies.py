"""The package runs on numpy and the standard library alone, and imports only what it uses."""

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


def _unused_imports(path):
    """(line, name) for every name a source file imports but neither reads nor lists in __all__."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in read | exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    assert _unused_imports(path) == []


def test_the_guard_sees_a_stray_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from . import pulse, ranging\n"
        "from .montecarlo import stream as draw, run_trials\n"
        "__all__ = [\"run_trials\"]\n"
        "def f(x: pulse.NyquistPulse):\n"
        "    return np.abs(x)\n"
    )
    assert _unused_imports(source) == [(2, "os"), (4, "ranging"), (5, "draw")]
