"""The Monte Carlo and ranging kernels transform into kept buffers: every FFT passes out=.

A batch loop that lets numpy allocate each transform's output gives the
heap an allocation, a trim and a refault per batch; run_trials and the
ranging sweep keep one workspace instead (montecarlo._Workspace).
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "acfshape"


def _fft_calls_without_out(path):
    """(line, name) for each numpy.fft call, by attribute or imported name, given no out=."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy.fft"
                for alias in node.names}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value
            is_fft = getattr(owner, "attr", getattr(owner, "id", None)) == "fft"
            name = func.attr
        else:
            is_fft, name = getattr(func, "id", None) in imported, getattr(func, "id", None)
        if is_fft and not any(k.arg == "out" for k in node.keywords):
            found.append((node.lineno, name))
    return sorted(found)


def test_kernel_transforms_write_into_kept_buffers():
    for module in ("montecarlo.py", "ranging.py"):
        assert _fft_calls_without_out(PACKAGE / module) == [], module


def test_the_guard_sees_a_transform_without_out(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\n"
        "from numpy import fft\n"
        "from numpy.fft import ihfft as half\n"
        "def f(a, b, c):\n"
        "    np.fft.fft(a, axis=-1, out=b)\n"
        "    c = np.fft.ifft(a, axis=-1)\n"
        "    c = fft.rfft(a) + half(a)\n"
        "    return half(a, out=b), np.sum(a, out=b), c\n"
    )
    assert _fft_calls_without_out(source) == [(6, "ifft"), (7, "half"), (7, "rfft")]
