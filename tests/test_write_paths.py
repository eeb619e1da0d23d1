"""Files reach the disk through tableio.commit alone, and the CLI commits once."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "acfshape"

_READ_MODES = set("rbt")


def _dotted(node) -> str:
    """'os.replace' for os.replace, 'open' for open, '' for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _dotted(node.value)
        return f"{inner}.{node.attr}" if inner else ""
    return ""


def _argument(call: ast.Call, index: int, keyword: str):
    if len(call.args) > index:
        return call.args[index]
    return next((k.value for k in call.keywords if k.arg == keyword), None)


def _writes(call: ast.Call) -> bool:
    """Whether a call renames a file or opens one for writing."""
    name = _dotted(call.func)
    if name in ("os.replace", "os.rename"):
        return True
    if name in ("open", "os.fdopen"):
        mode = _argument(call, 1, "mode")
        if mode is None:
            return False
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and set(mode.value) <= _READ_MODES)
    if name == "os.open":
        if _dotted(call.args[0]) == "os.devnull":  # the null device takes no output
            return False
        return _dotted(_argument(call, 1, "flags")) != "os.O_RDONLY"
    return False


def _write_sites(path):
    """(line, call) for each call in a source file that renames or opens a file for writing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted((node.lineno, _dotted(node.func)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _writes(node))


def _tableio_calls(path):
    """The tableio function named by each call of tableio.<name> in a source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and _dotted(node.func.value) == "tableio"]


def test_only_tableio_writes_files():
    sites = {path.name: _write_sites(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, found in sites.items() if found} == {"tableio.py"}
    # and tableio writes only inside commit
    tree = ast.parse((PACKAGE / "tableio.py").read_text())
    writers = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               and any(isinstance(node, ast.Call) and _writes(node) for node in ast.walk(fn))}
    assert writers == {"commit"}


def test_cli_commits_once_and_calls_no_other_writer():
    calls = _tableio_calls(PACKAGE / "cli.py")
    assert calls.count("commit") == 1
    assert set(calls) <= {"commit", "csv_text", "manifest_text", "manifest_path", "load_text",
                          "format_cell"}


def test_the_write_guard_sees_each_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import os\n"
        "from acfshape import tableio\n"
        "def f(path, mode):\n"
        "    open(path)\n"
        "    open(path, 'rb')\n"
        "    open(path, 'w')\n"
        "    open(path, mode=mode)\n"
        "    os.open(path, os.O_RDONLY)\n"
        "    os.open(path, os.O_CREAT | os.O_WRONLY)\n"
        "    os.open(os.devnull, os.O_WRONLY)\n"
        "    os.fdopen(3, 'a')\n"
        "    os.replace(path, path)\n"
        "    tableio.commit([])\n"
        "    tableio.csv_text({})\n"
    )
    assert _write_sites(source) == [(6, "open"), (7, "open"), (9, "os.open"), (11, "os.fdopen"),
                                    (12, "os.replace")]
    assert _tableio_calls(source) == ["commit", "csv_text"]
