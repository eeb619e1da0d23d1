"""Unitary modulation bases (single carrier, OFDM, CDMA, custom).

A basis maps a block of n symbols s to time samples x = U s with U unitary.
Nothing downstream needs x itself, only its spectrum fft(x) = W s with the
spectral map W = sqrt(n) F U (F the unitary DFT), and the squared-magnitude
matrix Vt = |V|^2 of V = U^H F^H = W^H / sqrt(n): Vt is doubly stochastic
and captures how symbol energy spreads across subcarriers.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .tableio import load_text

__all__ = [
    "dft_matrix",
    "ModulationBasis",
    "make_basis",
    "random_unitary",
    "from_text_file",
]

_UNITARY_TOL = 1e-10

# kinds whose maps are transforms, built with no matrix
_STRUCTURED = ("sc", "ofdm")


def dft_matrix(n: int) -> np.ndarray:
    """Unitary forward DFT matrix of size n, in the engineering convention.

    F[m, k] = exp(-2j*pi*m*k / n) / sqrt(n), so F @ F.conj().T == I and
    numpy.fft.fft(x) == sqrt(n) * F @ x.
    """
    m = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)


@dataclass(frozen=True)
class ModulationBasis:
    """An n x n unitary basis with its derived spectral maps.

    spectral_map is W = sqrt(n) F U, so fft(U s) = W s, and v_tilde is
    |W|^2 transposed over n.  The dense kinds (cdma, custom) take their
    matrix as the third argument, which is checked for unitarity and kept
    with both maps.  SC (U = I, W = sqrt(n) F) and OFDM (U = F^H,
    W = sqrt(n) I) are unitary by construction and take no matrix: their
    users take the FFT or identity shortcut, spectral_map is None, and u
    and v_tilde are built on first read, by the dense derivation.
    """

    kind: str
    n: int
    matrix: InitVar[np.ndarray | None] = None
    spectral_map: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self, matrix):
        if self.n < 1:
            raise ValueError(f"block size must be >= 1, got {self.n}")
        if self.kind in _STRUCTURED:
            if matrix is not None:
                raise ValueError(f"the {self.kind} basis takes no matrix")
            return
        if matrix is None:
            raise ValueError(f"{self.kind} basis requires a matrix")
        u = np.ascontiguousarray(np.asarray(matrix, dtype=complex))
        if u.shape != (self.n, self.n):
            raise ValueError(f"basis matrix has shape {u.shape}, expected {(self.n, self.n)}")
        if not np.all(np.isfinite(u)):
            raise ValueError("basis matrix contains non-finite entries")
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or nan error
            gram_err = np.linalg.norm(u.conj().T @ u - np.eye(self.n))
        if not gram_err <= _UNITARY_TOL:
            raise ValueError(
                f"basis is not unitary: ||U^H U - I||_F = {gram_err:.3e} > {_UNITARY_TOL}"
            )
        w, vt = _maps(u)
        row_err = np.max(np.abs(vt.sum(axis=1) - 1.0))
        col_err = np.max(np.abs(vt.sum(axis=0) - 1.0))
        if max(row_err, col_err) > _UNITARY_TOL:
            raise ValueError(
                f"derived |V|^2 is not doubly stochastic (row err {row_err:.3e}, "
                f"col err {col_err:.3e})"
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v_tilde", vt)
        object.__setattr__(self, "spectral_map", w)

    @cached_property
    def u(self) -> np.ndarray:
        """The basis matrix U, x = U s."""
        if self.kind == "sc":
            return np.eye(self.n, dtype=complex)
        return np.ascontiguousarray(dft_matrix(self.n).conj().T)

    @cached_property
    def v_tilde(self) -> np.ndarray:
        """|V|^2 with V = W^H / sqrt(n): doubly stochastic, 1/n for sc and I for ofdm."""
        return _maps(self.u)[1]


def _maps(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spectral map W = sqrt(n) F U and Vt = |W|^2 transposed over n."""
    n = u.shape[0]
    w = np.sqrt(n) * (dft_matrix(n) @ u)
    return w, (np.abs(w) ** 2).T / n


def _hadamard(n: int) -> np.ndarray:
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"CDMA spreading needs a power-of-two block size, got {n}")
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def make_basis(kind: str, n: int, matrix: np.ndarray | None = None) -> ModulationBasis:
    """Construct a named basis: 'sc', 'ofdm', 'cdma', or 'custom' with matrix.

    sc   -> identity (symbols are the time samples)
    ofdm -> inverse unitary DFT (symbols live on subcarriers)
    cdma -> Sylvester Hadamard / sqrt(n), n a power of two
    """
    kind = kind.lower()
    if kind in _STRUCTURED:
        return ModulationBasis(kind, n)
    if kind == "cdma":
        matrix = _hadamard(n).astype(complex) / np.sqrt(n)
    elif kind != "custom":
        raise ValueError(f"unknown basis kind {kind!r}")
    return ModulationBasis(kind, n, matrix)


def random_unitary(n: int, rng: np.random.Generator) -> ModulationBasis:
    """Haar-distributed random unitary basis (QR with phase correction)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return ModulationBasis("custom", n, q)


def from_text_file(path, n: int) -> ModulationBasis:
    """Load a custom unitary from a row-major text file of (re, im) pairs.

    The file holds n*n rows of two columns, row-major over the matrix.
    Reading stops at row n*n + 1, so a longer file is refused unread.
    """
    data = load_text(path, ndmin=2, max_rows=n * n + 1)
    if data.shape != (n * n, 2):
        got = f"more than {n * n} rows" if len(data) > n * n else f"values of shape {data.shape}"
        raise ValueError(f"{path} holds {got}; expected {n * n} rows of (re, im) "
                         f"for a {n}x{n} basis")
    u = np.ascontiguousarray(data).view(complex).reshape(n, n)  # 1j * inf would warn
    return make_basis("custom", n, u)
