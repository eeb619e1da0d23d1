"""Exact small dense solvers for pulse design on {x >= 0, E x = f}, in numpy.

solve_box_qp minimizes |A x - b|^2 by the primal active-set method of
Lawson & Hanson (Solving Least Squares Problems, 1974, ch. 23), started
from a feasible x0.  Each iteration minimizes over the current face
exactly, in the null space of the free columns of E.  A step that would
leave x >= 0 stops at the first coordinate to reach zero and fixes it;
otherwise the coordinate with the most negative multiplier is freed, and
when none is negative x is a KKT point.

The face solves share one kernel, _active_set.  It forms the Gram matrix
G = A^T A once per solve, and the SVD of E_F (the equality rows on the
free set F) once per face.  With N a basis of the null space of E_F,
each face minimizer is one Cholesky solve of N^T G_FF N, a matrix of
order at most |F|, and the multipliers of E x = f come from the same SVD.
A face whose reduced matrix is numerically singular (the factor fails,
or a pivot is at round-off level) takes the least-squares step on the
rows A_F N instead; the rank of the face picks that path, nothing else.
Gradients are formed from the residual A x - b, not from G, so the KKT
test keeps the precision of the residual.

solve_minimax minimizes max_k |A_k x - b_k|^2 over complex rows by
Lawson's reweighting (Lawson, 1961; Rice & Usow, Math. Comp. 22, 1968):
each step solves min sum_k lam_k |r_k|^2 exactly, warm-started, then sets
lam_k <- lam_k |r_k| on the simplex.  At a weighted minimizer
sum_k lam_k |r_k|^2 bounds the optimum from below (the Lagrange dual of
the epigraph form) and max_k |r_k|^2 from above; their relative gap
certifies the answer and is the stopping rule.  Each step calls the
kernel on the lam-weighted rows, from the previous step's x and face,
with the face SVDs kept across steps: a step whose face still holds
costs one small solve and the KKT test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QpResult", "MinimaxResult", "solve_box_qp", "solve_minimax"]

_EPS = np.finfo(float).eps
_MAX_FACE_ITER = 1_000


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


def solve_box_qp(a, b, e, f, x0, *, max_iter: int = _MAX_FACE_ITER) -> QpResult:
    """min |A x - b|^2 over x >= 0 with E x = f, from a feasible x0."""
    a, b, e, f = (np.asarray(v, dtype=float) for v in (a, b, e, f))
    x = _feasible_start(a, b, e, f, x0)
    mu, it, converged = _active_set(a, b, e, f, x, max_iter, {})
    return QpResult(x, float(np.sum((a @ x - b) ** 2)), mu, it, converged)


def _active_set(a, b, e, f, x, max_iter, faces):
    """Active-set iterations from a feasible x, which they update in place.

    Returns the multipliers of E x = f, the iteration count and whether
    the last iterate passed the KKT test.  The face is the set of free
    (positive) coordinates it starts from, so a warm start on the right
    face costs one face solve and the test.  faces caches the SVD of E_F
    by free set, so that a face seen before is not factored again.
    """
    gram = a.T @ a
    free = x > 0
    grad = a.T @ (a @ x - b)
    mu = np.zeros(f.size)
    converged, it = False, 0
    for it in range(1, max_iter + 1):
        idx = np.flatnonzero(free)
        key = idx.tobytes()
        if key not in faces:
            u, sv, vh = np.linalg.svd(e[:, idx])
            rank = np.count_nonzero(sv > 1e-12 * sv.max(initial=0.0))
            faces[key] = u[:, :rank] / sv[:rank], vh[:rank], vh[rank:].T
        range_map, row_basis, null = faces[key]
        step = _face_step(gram[idx][:, idx], null, grad[idx])
        if step is None:  # a singular face: the least-squares step on its rows
            step = np.linalg.lstsq(a[:, idx] @ null, b - a @ x, rcond=None)[0]
        step = null @ step
        target = x[idx] + step
        neg = np.flatnonzero(target < 0)
        if neg.size:
            # step back to the first coordinate that reaches zero and fix it,
            # with any other that round-off has left at or below zero
            ratio = x[idx[neg]] / (x[idx[neg]] - target[neg])
            first = int(np.argmin(ratio))
            x[idx] += ratio[first] * step
            x[idx[neg[first]]] = 0.0
            fixed = idx[x[idx] <= 0]
            x[fixed], free[fixed] = 0.0, False
            grad = a.T @ (a @ x - b)
            continue
        x[idx] = target
        grad = a.T @ (a @ x - b)
        # least-squares multipliers of E_F^T mu = -grad_F from the same SVD
        mu = range_map @ (row_basis @ -grad[idx])
        nu = np.where(free, 0.0, grad + e.T @ mu)
        j = int(np.argmin(nu))
        if nu[j] >= -1e-12 * np.abs(grad).max():
            converged = True
            break
        free[j] = True
    return mu, it, converged


def _face_step(gram_ff, null, grad_f):
    """Coordinates d of the step N d to the minimizer of the face, or None.

    Solves the reduced normal equations N^T G_FF N d = -N^T grad_F by
    Cholesky.  None means the face is singular: the factor or the solve
    failed, or a pivot of the p x p matrix H = N^T G_FF N is at its
    round-off level p eps trace(H).
    """
    h = null.T @ gram_ff @ null
    try:
        pivots = np.linalg.cholesky(h).diagonal() ** 2
        if pivots.min(initial=np.inf) <= h.shape[0] * _EPS * np.trace(h):
            return None
        return np.linalg.solve(h, -(null.T @ grad_f))
    except np.linalg.LinAlgError:
        return None


def solve_minimax(
    a_rows, b, e, f, x0, *, tol: float = 1e-4, max_iter: int = 20_000
) -> MinimaxResult:
    """min max_k |a_k x - b_k|^2 over x >= 0, E x = f, to a relative gap tol.

    Returns the best iterate of at most max_iter Lawson steps.  An inner
    solve cut short ends the loop unconverged: the bound needs its minimizer.
    """
    a_rows, b = np.asarray(a_rows, dtype=complex), np.asarray(b, dtype=complex)
    e, f = np.asarray(e, dtype=float), np.asarray(f, dtype=float)
    x = _feasible_start(a_rows, b, e, f, x0)
    stacked = np.vstack([a_rows.real, a_rows.imag])
    abs_rows, abs_b = np.abs(a_rows), np.abs(b)
    target = np.concatenate([b.real, b.imag])
    lam = np.full(b.size, 1.0 / b.size)
    best_x, upper, lower, noise, gap = x, np.inf, 0.0, 0.0, np.inf
    faces = {}
    converged, step = False, 0
    for step in range(1, max_iter + 1):
        w = np.sqrt(np.concatenate([lam, lam]))
        x = x.copy()  # the kernel updates x in place, and best_x may hold it
        if not _active_set(w[:, None] * stacked, w * target, e, f, x, _MAX_FACE_ITER, faces)[2]:
            break
        mag2 = np.abs(a_rows @ x - b) ** 2
        if mag2.max() < upper:
            best_x, upper = x, float(mag2.max())
            # residuals below this are round-off, with no relative gap to certify
            noise = float(1e-13 * (abs_rows @ x + abs_b).max()) ** 2
        lower = max(lower, float(lam @ mag2))
        gap = (upper - lower) / upper if upper > noise else 0.0
        if gap <= tol:
            converged = True
            break
        lam = lam * np.sqrt(mag2)
        lam /= lam.sum()
    return MinimaxResult(best_x, upper, gap, step, converged)
