"""Helpers the tests share: a CSV reader, the time-domain oracles, the dense
spread rows of the closed-form variance and the least-squares oracles of the
design solvers."""

import csv

import numpy as np

from acfshape.modulation import ModulationBasis
from acfshape.pulse import NyquistPulse, assemble_full_spectrum
from acfshape.qpsolver import MinimaxResult, QpResult


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Parse a table back as raw strings (header, rows)."""
    with open(path, newline="") as handle:
        parsed = list(csv.reader(handle))
    if not parsed:
        raise ValueError(f"{path}: empty file, expected at least a header")
    return parsed[0], parsed[1:]


def spectrum_to_time(pulse: NyquistPulse) -> np.ndarray:
    """Zero-phase time taps of length l*n with unit energy.

    The bin power gains integrate to n, so taking sqrt(l * gain) as the
    spectrum amplitude gives ||p||^2 = 1 by Parseval.  The taps are complex
    in general: the assembled profile sits half a bin off a Hermitian-
    symmetric layout, which shows up as a slow phase ramp across the taps.
    """
    amplitude = np.sqrt(pulse.l * assemble_full_spectrum(pulse))
    return np.fft.ifft(amplitude)


def modulate(basis: ModulationBasis, symbols: np.ndarray) -> np.ndarray:
    """Map symbol blocks (..., n) to time samples x = U s.

    SC and OFDM take O(n)/O(n log n) shortcuts; they agree with the dense
    product to working precision (covered by tests).
    """
    s = np.asarray(symbols, dtype=complex)
    if s.shape[-1] != basis.n:
        raise ValueError(f"symbol block length {s.shape[-1]} != basis size {basis.n}")
    if basis.kind == "sc":
        return s.copy()
    if basis.kind == "ofdm":
        # U = F^H, and F^H s = sqrt(n) * ifft(s) under numpy's scaling.
        return np.sqrt(basis.n) * np.fft.ifft(s, axis=-1)
    return s @ basis.u.T


def slot_power(pulse: NyquistPulse, basis: ModulationBasis, symbols: np.ndarray) -> np.ndarray:
    """Slot-summed power spectrum the long way: sum |fft(U s)|^2 over the slots, tiled by l * G.

    symbols has shape (..., m, n); the slot axis -2 is summed out.
    """
    xf = np.fft.fft(modulate(basis, symbols), axis=-1)
    power = np.sum(np.abs(xf) ** 2, axis=-2)
    tiled = np.tile(power, (1,) * (power.ndim - 1) + (pulse.l,))
    return tiled * (pulse.l * assemble_full_spectrum(pulse))


def dense_spread(pulse: NyquistPulse, v_tilde: np.ndarray) -> np.ndarray:
    """sum_j |ifft(tile(Vt_j, l) * S)[k]|^2 at every lag k of the full grid.

    S = n * l * G is the expected slot power spectrum and row j of Vt the
    share of symbol j's energy on each subcarrier.  This is the basis term of
    the closed-form variance written out with all n rows at full length;
    with Vt = I it is the gain energy term.
    """
    s = pulse.n * pulse.l * assemble_full_spectrum(pulse)
    rows = np.fft.ifft(np.tile(v_tilde, pulse.l) * s, axis=-1)
    return np.sum(np.abs(rows) ** 2, axis=0)


def edge_lags(ln: int) -> np.ndarray:
    """Both ends of 0..ln-1 and both sides of its half, out of order and repeated."""
    half = ln // 2
    return np.array([ln - 1, half + 1, 0, half, 1, half, ln - 1, half + 1, 0])


def oracle_box_qp(a, b, e, f, x0, max_iter: int = 1_000) -> QpResult:
    """min |A x - b|^2 over x >= 0, E x = f by Lawson & Hanson, face by face
    with an SVD of E_F and a least-squares solve over all rows of A.

    The same active-set rules as qpsolver.solve_box_qp, without the Gram
    matrix: each face minimizer is lstsq on A_F N (N spanning the null space
    of E_F) and the multipliers are lstsq on E_F^T.  Inputs are not checked.
    """
    a, b, e, f = (np.asarray(v, dtype=float) for v in (a, b, e, f))
    x = np.array(x0, dtype=float)
    free = x > 0
    mu = np.zeros(f.size)
    converged, it = False, 0
    for it in range(1, max_iter + 1):
        idx = np.flatnonzero(free)
        _, sv, vh = np.linalg.svd(e[:, idx])
        null = vh[int(np.sum(sv > 1e-12 * sv.max(initial=0.0))):].T
        step = null @ np.linalg.lstsq(a[:, idx] @ null, b - a @ x, rcond=None)[0]
        target = x[idx] + step
        neg = np.flatnonzero(target < 0)
        if neg.size:
            ratio = x[idx[neg]] / (x[idx[neg]] - target[neg])
            first = int(np.argmin(ratio))
            x[idx] += ratio[first] * step
            x[idx[neg[first]]], free[idx[neg[first]]] = 0.0, False
            continue
        x[idx] = target
        grad = a.T @ (a @ x - b)
        mu = np.linalg.lstsq(e[:, idx].T, -grad[idx], rcond=None)[0]
        nu = np.where(free, 0.0, grad + e.T @ mu)
        j = int(np.argmin(nu))
        if nu[j] >= -1e-12 * np.abs(grad).max():
            converged = True
            break
        free[j] = True
    return QpResult(x, float(np.sum((a @ x - b) ** 2)), mu, it, converged)


def oracle_minimax(a_rows, b, e, f, x0, *, tol: float = 1e-4,
                   max_iter: int = 20_000) -> MinimaxResult:
    """Lawson's reweighting for min max_k |a_k x - b_k|^2 with oracle_box_qp
    as the inner solve, with the stopping rule of qpsolver.solve_minimax."""
    a_rows, b = np.asarray(a_rows, dtype=complex), np.asarray(b, dtype=complex)
    x = np.array(x0, dtype=float)
    stacked = np.vstack([a_rows.real, a_rows.imag])
    target = np.concatenate([b.real, b.imag])
    lam = np.full(b.size, 1.0 / b.size)
    best_x, upper, lower, noise, gap = x, np.inf, 0.0, 0.0, np.inf
    converged, step = False, 0
    for step in range(1, max_iter + 1):
        w = np.sqrt(np.concatenate([lam, lam]))
        inner = oracle_box_qp(w[:, None] * stacked, w * target, e, f, x)
        if not inner.converged:
            break
        x = inner.x
        mag2 = np.abs(a_rows @ x - b) ** 2
        if mag2.max() < upper:
            best_x, upper = x, float(mag2.max())
            noise = float(1e-13 * (np.abs(a_rows) @ x + np.abs(b)).max()) ** 2
        lower = max(lower, float(lam @ mag2))
        gap = (upper - lower) / upper if upper > noise else 0.0
        if gap <= tol:
            converged = True
            break
        lam = lam * np.sqrt(mag2)
        lam /= lam.sum()
    return MinimaxResult(best_x, upper, gap, step, converged)
