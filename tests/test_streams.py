"""Every seeded generator in the package comes from montecarlo.stream."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "acfshape"

_SEEDING = {"SeedSequence", "default_rng"}


def _seeding_sites(path):
    """(line, enclosing function or None) for each call or from-import of a seeding name."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _SEEDING:
                sites.append((node.lineno, function))
        elif isinstance(node, ast.ImportFrom):
            sites.extend((node.lineno, function) for a in node.names if a.name in _SEEDING)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return sites


def test_only_the_stream_helper_seeds_generators():
    stray = [f"{path.name}:{line} in {function}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, function in _seeding_sites(path)
             if (path.name, function) != ("montecarlo.py", "stream")]
    assert stray == []
    assert [function for _, function in _seeding_sites(PACKAGE / "montecarlo.py")] == [
        "stream", "stream"]


def test_the_guard_sees_a_second_seeding_site(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\n"
        "from numpy.random import default_rng as fresh\n"
        "def stream(seed, tag, index):\n"
        "    return np.random.default_rng(np.random.SeedSequence((seed, tag, index)))\n"
        "def draw(seed):\n"
        "    return np.random.default_rng(seed)\n"
        "ROOT = np.random.SeedSequence(0)\n"
    )
    assert _seeding_sites(source) == [(2, None), (4, "stream"), (4, "stream"), (6, "draw"),
                                      (7, None)]
