"""Only montecarlo's draw kernel reads _SLOT_CHUNK, so no other code branches on slot chunks."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "acfshape"


def _reads(path, name="_SLOT_CHUNK"):
    """(line, enclosing function or None) for each read of name: a loaded name or attribute,
    a string naming it (getattr) or a from-import."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        loaded = isinstance(getattr(node, "ctx", None), ast.Load)
        if (loaded and name in (getattr(node, "id", None), getattr(node, "attr", None))
                or isinstance(node, ast.Constant) and node.value == name):
            sites.append((node.lineno, function))
        elif isinstance(node, ast.ImportFrom):
            sites.extend((node.lineno, function) for a in node.names if a.name == name)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return sites


def test_only_the_draw_kernel_reads_the_slot_chunk():
    readers = {(path.name, function) for path in sorted(PACKAGE.glob("*.py"))
               for _, function in _reads(path)}
    assert readers == {("montecarlo.py", "_draw_layout"), ("montecarlo.py", "drawn_power")}


def test_the_guard_sees_a_second_reader(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .montecarlo import _SLOT_CHUNK\n"
        "import acfshape.montecarlo as mc\n"
        "_SLOT_CHUNK = 4\n"
        "def _draw_layout(m):\n"
        "    return min(m, _SLOT_CHUNK)\n"
        "def sweep(m):\n"
        "    return m > mc._SLOT_CHUNK, getattr(mc, '_SLOT_CHUNK'), '_SLOT_CHUNK slots'\n"
    )
    assert _reads(source) == [(1, None), (5, "_draw_layout"), (7, "sweep"), (7, "sweep")]
