"""The ranging kernel makes no BLAS-backed product, so its bytes do not depend on BLAS threads.

OpenBLAS may split a matrix product differently at one and two threads and
round it differently, even for small complex and real operands; elementwise
products, reductions and np.einsum without optimize do not call it.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "acfshape"

_PRODUCTS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def _blas_products(path):
    """(line, form) for each @, product call by name or attribute, and einsum given optimize."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _PRODUCTS:
                found.append((node.lineno, name))
            elif name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                found.append((node.lineno, "einsum(optimize)"))
    return sorted(found)


def test_ranging_makes_no_blas_product():
    assert _blas_products(PACKAGE / "ranging.py") == []


def test_the_guard_sees_each_product_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\n"
        "from numpy import dot\n"
        "def f(a, b):\n"
        "    c = a @ b\n"
        "    c @= b\n"
        "    d = np.dot(a, b) + a.dot(b) + dot(a, b)\n"
        "    e = np.matmul(a, b) + np.inner(a, b) + np.vdot(a, b) + np.tensordot(a, b, 1)\n"
        "    g = np.einsum('ij,jk->ik', a, b, optimize=True)\n"
        "    return np.einsum('ij,jk->ik', a, b) * a + np.sum(a * b, axis=0)\n"
    )
    assert _blas_products(source) == [
        (4, "@"), (5, "@"), (6, "dot"), (6, "dot"), (6, "dot"), (7, "inner"), (7, "matmul"),
        (7, "tensordot"), (7, "vdot"), (8, "einsum(optimize)")]
