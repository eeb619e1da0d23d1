"""Exact small dense solvers for pulse design on {x >= 0, E x = f}, in numpy.

solve_box_qp minimizes |A x - b|^2 by the primal active-set method of
Lawson & Hanson (Solving Least Squares Problems, 1974, ch. 23), started
from a feasible x0.  Each iteration minimizes over the current face
exactly, in the null space of the free columns of E.  A step that would
leave x >= 0 stops at the first coordinate to reach zero and fixes it;
otherwise the coordinate with the most negative multiplier is freed, and
when none is negative x is a KKT point.

solve_minimax minimizes max_k |A_k x - b_k|^2 over complex rows by
Lawson's reweighting (Lawson, 1961; Rice & Usow, Math. Comp. 22, 1968):
each step solves min sum_k lam_k |r_k|^2 exactly, warm-started, then sets
lam_k <- lam_k |r_k| on the simplex.  At a weighted minimizer
sum_k lam_k |r_k|^2 bounds the optimum from below (the Lagrange dual of
the epigraph form) and max_k |r_k|^2 from above; their relative gap
certifies the answer and is the stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QpResult", "MinimaxResult", "solve_box_qp", "solve_minimax"]


@dataclass(frozen=True)
class QpResult:
    # y: multipliers of E x = f; A^T (A x - b) + E^T y is >= 0, and 0 where x > 0
    x: np.ndarray
    value: float
    y: np.ndarray
    iterations: int
    converged: bool


@dataclass(frozen=True)
class MinimaxResult:
    x: np.ndarray
    value: float
    gap: float
    iterations: int
    converged: bool


def _feasible_start(a, b, e, f, x0) -> np.ndarray:
    """A copy of x0 after checking the shapes and that x0 >= 0, E x0 = f."""
    x = np.array(x0, dtype=float)
    shapes_ok = a.ndim == 2 and b.shape == a.shape[:1] and x.shape == a.shape[1:]
    if not shapes_ok or e.shape != (f.size, x.size):
        raise ValueError(f"shapes do not match: A {a.shape}, b {b.shape}, "
                         f"E {e.shape}, f {f.shape}, x0 {x.shape}")
    if not (np.all(x >= 0) and np.allclose(e @ x, f, rtol=1e-9, atol=1e-12)):
        raise ValueError("x0 is infeasible: it needs x0 >= 0 and E x0 = f")
    return x


def solve_box_qp(a, b, e, f, x0, *, max_iter: int = 1_000) -> QpResult:
    """min |A x - b|^2 over x >= 0 with E x = f, from a feasible x0."""
    a, b, e, f = (np.asarray(v, dtype=float) for v in (a, b, e, f))
    x = _feasible_start(a, b, e, f, x0)
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
            # step back to the first coordinate that reaches zero and fix it
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


def solve_minimax(
    a_rows, b, e, f, x0, *, tol: float = 1e-4, max_iter: int = 20_000
) -> MinimaxResult:
    """min max_k |a_k x - b_k|^2 over x >= 0, E x = f, to a relative gap tol.

    Returns the best iterate of at most max_iter Lawson steps.  An inner
    solve cut short ends the loop unconverged: the bound needs its minimizer.
    """
    a_rows, b = np.asarray(a_rows, dtype=complex), np.asarray(b, dtype=complex)
    x = _feasible_start(a_rows, b, np.asarray(e, float), np.asarray(f, float), x0)
    stacked = np.vstack([a_rows.real, a_rows.imag])
    target = np.concatenate([b.real, b.imag])
    lam = np.full(b.size, 1.0 / b.size)
    best_x, upper, lower, noise, gap = x, np.inf, 0.0, 0.0, np.inf
    converged, step = False, 0
    for step in range(1, max_iter + 1):
        w = np.sqrt(np.concatenate([lam, lam]))
        inner = solve_box_qp(w[:, None] * stacked, w * target, e, f, x)
        if not inner.converged:
            break
        x = inner.x
        mag2 = np.abs(a_rows @ x - b) ** 2
        if mag2.max() < upper:
            best_x, upper = x, float(mag2.max())
            # residuals below this are round-off, with no relative gap to certify
            noise = float(1e-13 * (np.abs(a_rows) @ x + np.abs(b)).max()) ** 2
        lower = max(lower, float(lam @ mag2))
        gap = (upper - lower) / upper if upper > noise else 0.0
        if gap <= tol:
            converged = True
            break
        lam = lam * np.sqrt(mag2)
        lam /= lam.sum()
    return MinimaxResult(best_x, upper, gap, step, converged)
