"""The command-line front end uses only the public names of the other modules."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "acfshape"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_uses(path):
    """(line, name) for each underscore name imported from, or read off, a package module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "acfshape"):
            for alias in node.names:
                if _private(alias.name):
                    uses.append((node.lineno, alias.name))
                elif node.module in (None, "acfshape"):  # from . import ranging
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("acfshape."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            uses.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(uses)


def test_cli_uses_no_private_name_of_another_module():
    assert _private_uses(PACKAGE / "cli.py") == []


def test_the_guard_sees_private_imports_and_reads(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from __future__ import annotations\n"
        "from . import ranging, __version__\n"
        "from .montecarlo import _TAG_PROFILE, stream\n"
        "import acfshape.pulse as pul\n"
        "def f(args):\n"
        "    return ranging._SNR_BLOCK, ranging.run_once, pul._GAIN_TOL, args._hidden\n"
    )
    assert _private_uses(source) == [(3, "_TAG_PROFILE"), (6, "pul._GAIN_TOL"),
                                     (6, "ranging._SNR_BLOCK")]
