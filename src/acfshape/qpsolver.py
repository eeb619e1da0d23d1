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

The KKT test counts a multiplier as zero when it lies within the
round-off that the residual carries into it, a few eps (|A| x + |b|) per
row, so that an exact fit, whose multipliers are all round-off, converges.

solve_minimax minimizes max_k |A_k x - b_k|^2 over complex rows by
Lawson's reweighting (Lawson, 1961; Rice & Usow, Math. Comp. 22, 1968):
each step solves min sum_k lam_k |r_k|^2 exactly, warm-started, then sets
lam_k <- lam_k |r_k| on the simplex.  At a weighted minimizer
sum_k lam_k |r_k|^2 bounds the optimum from below (the Lagrange dual of
the epigraph form) and max_k |r_k|^2 from above; their relative gap
certifies the answer and is the stopping rule.  A top residual at the
round-off level of its row is an exact fit, reported with gap 0.
Each step calls the kernel on the lam-weighted rows, from the previous
step's x and face, with the last face's SVD kept across steps: a step
whose face still holds costs one small solve and the KKT test.

Lawson's tail is linear, so after a short warm-up solve_minimax finishes
by Newton's method on the KKT system of the epigraph form, restricted to
the free set F and a support S of lags at the top (Boyd & Vandenberghe,
Convex Optimization, 2004, ch. 5 and 11), with a Remez-style exchange
that drops a lag of negative multiplier or adds a residual above the
level.  Newton's answer is reported only through the same certificate:
max |r_k|^2 at its x, and one exact weighted solve at its lam.  A finish
that fails, or whose gap misses tol, hands back to Lawson's steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QpResult", "MinimaxResult", "solve_box_qp", "solve_minimax"]

_EPS = np.finfo(float).eps
_MAX_FACE_ITER = 1_000
_ROUNDOFF_ULPS = 8.0  # round-off of a row of A x - b, in units of eps (|A| x + |b|)
# a top residual below this many eps (|a_k| x + |b_k|) is an exact fit: the
# rows' data carry round-off of their own (about 34 of these units at the
# design's exact fit 389:390), so no relative gap is certifiable there
_EXACT_FIT_ULPS = 64.0
# solve_minimax's exchange-Newton finish: first tried after _WARMUP Lawson
# steps, then again each time the step count has doubled.  Its support
# starts from the local maxima of |r_k|^2 within _SUPPORT_REL of the top;
# by step 20 these are the active lags of both fig4 windows, and the
# exchanges correct a support that is off by a lag or two.
_WARMUP = 20
_SUPPORT_REL = 0.05
_MAX_EXCHANGES = 10  # exchange rounds per finish
_NEWTON_STEPS = 12  # Newton steps per round, which converge quadratically or not at all
_NEWTON_STEP_TOL = 1e-9  # a step in x_F this small relative to x_F leaves round-off behind it
_INDEPENDENT = 1e-8  # a constraint row whose normalized remainder is below this is dependent


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
    face costs one face solve and the test.  faces holds the factors of
    the last face by its free set, so that a call that starts on the
    face the previous call ended on does not factor it again.
    """
    gram = a.T @ a
    # grad carries a few eps |A|^T (|A| x + |b|) of the residual's round-off
    abs_a, abs_e = np.abs(a), np.abs(e)
    abs_gram, abs_atb = abs_a.T @ abs_a, abs_a.T @ np.abs(b)
    free = x > 0
    grad = a.T @ (a @ x - b)
    mu = np.zeros(f.size)
    converged, it = False, 0
    for it in range(1, max_iter + 1):
        idx = np.flatnonzero(free)
        key = idx.tobytes()
        if key not in faces:
            faces.clear()
            u, sv, vh = np.linalg.svd(e[:, idx])
            rank = np.count_nonzero(sv > 1e-12 * sv.max(initial=0.0))
            # pinv maps -grad_F to the least-squares multipliers of E_F^T mu = -grad_F
            pinv = (u[:, :rank] / sv[:rank]) @ vh[:rank]
            faces[key] = pinv, np.abs(pinv), vh[rank:].T
        pinv, abs_pinv, null = faces[key]
        step = _face_step(gram[idx][:, idx], null, grad[idx])
        if step is None:  # a singular face: the least-squares step on its rows
            step = np.linalg.lstsq(a[:, idx] @ null, b - a @ x, rcond=None)[0]
        step = null @ step
        target = x[idx] + step
        neg = np.flatnonzero(target < 0)
        if neg.size:
            # step back to the first coordinate that reaches zero and fix it,
            # with any other that round-off has left below zero.  A free
            # coordinate at exactly zero, as at a degenerate vertex, stays
            # free: fixing it too would undo the freeing step and cycle.
            ratio = x[idx[neg]] / (x[idx[neg]] - target[neg])
            first = int(np.argmin(ratio))
            x[idx] += ratio[first] * step
            fixed = np.append(idx[neg[first]], idx[x[idx] < 0])
            x[fixed], free[fixed] = 0.0, False
            grad = a.T @ (a @ x - b)
            continue
        x[idx] = target
        grad = a.T @ (a @ x - b)
        mu = pinv @ -grad[idx]
        nu = np.where(free, 0.0, grad + e.T @ mu)
        # a multiplier within the round-off that the residual carries into it,
        # through grad and through mu, is zero
        noise = _ROUNDOFF_ULPS * _EPS * (abs_gram @ x + abs_atb)
        floor = np.maximum(1e-12 * np.abs(grad).max(), noise + abs_e.T @ (abs_pinv @ noise[idx]))
        j = int(np.argmin(nu + floor))
        if nu[j] >= -floor[j]:
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

    Returns the best iterate found within max_iter steps, Lawson and Newton
    steps together.  An inner solve cut short ends the Lawson loop
    unconverged: the bound needs its minimizer.
    """
    a_rows, b = np.asarray(a_rows, dtype=complex), np.asarray(b, dtype=complex)
    e, f = np.asarray(e, dtype=float), np.asarray(f, dtype=float)
    x = _feasible_start(a_rows, b, e, f, x0)
    stacked = np.vstack([a_rows.real, a_rows.imag])
    target = np.concatenate([b.real, b.imag])
    abs_rows, abs_b = np.abs(a_rows), np.abs(b)
    faces = {}
    best_x, upper, lower = x, np.inf, 0.0

    def offer(x):
        # any feasible x bounds the optimum from above by its largest |r_k|^2
        nonlocal best_x, upper
        mag2 = np.abs(a_rows @ x - b) ** 2
        if mag2.max() < upper:
            best_x, upper = x, float(mag2.max())
        return mag2

    def solve(x, lam):
        # the exact minimizer of sum_k lam_k |r_k|^2, from x, bounds it from
        # below by that sum; (None, None) when the solve was cut short
        nonlocal lower
        w = np.sqrt(np.concatenate([lam, lam]))
        x = x.copy()  # the kernel updates x in place, and best_x may hold it
        if not _active_set(w[:, None] * stacked, w * target, e, f, x, _MAX_FACE_ITER, faces)[2]:
            return None, None
        mag2 = offer(x)
        lower = max(lower, float(lam @ mag2))
        return x, mag2

    def current_gap():
        # an exact fit has no relative gap to certify
        noise = float(_EXACT_FIT_ULPS * _EPS * (abs_rows @ best_x + abs_b).max()) ** 2
        return max(upper - lower, 0.0) / upper if upper > noise else 0.0

    lam = np.full(b.size, 1.0 / b.size)
    steps, finish_at, gap = 0, _WARMUP, np.inf
    while steps < max_iter:
        steps += 1
        x, mag2 = solve(x, lam)
        if x is None:
            break
        gap = current_gap()
        if gap > tol and steps >= finish_at and steps < max_iter:
            finish_at = 2 * steps
            x_n, lam_n, used = _exchange_newton(a_rows, b, e, f, x, lam, mag2,
                                                max_iter - steps - 1)
            steps += used
            if x_n is not None:
                # the certificate: Newton's x and one exact solve at its lam
                steps += 1
                offer(x_n)
                solve(x_n, lam_n)
                gap = current_gap()
        if gap <= tol:
            break
        lam = lam * np.sqrt(mag2)
        lam /= lam.sum()
    return MinimaxResult(best_x, upper, gap, steps, gap <= tol)


def _exchange_newton(a_rows, b, e, f, x, lam, mag2, budget):
    """Newton on the epigraph form's KKT system, from a Lawson iterate.

    On the free set F of x and a support S of lags, the unknowns x_F, t,
    lam_S and mu solve
        |r_k|^2 = t (k in S),  sum_S lam_k grad |r_k|^2 + E_F^T mu = 0,
        sum_S lam_k = 1,  E_F x_F = f.
    Once Newton has converged, an exchange drops the lag whose multiplier
    is most negative, or else adds the largest residual outside S that
    exceeds t, and Newton resumes.  Returns (x, lam, steps) with one step
    per Newton solve, and x None when Newton did not converge, a system was
    singular, the budget of steps ran out or x_F left x > 0.
    """
    free = np.flatnonzero(x > 0)
    a_f, e_f = a_rows[:, free], e[:, free]
    x_f = x[free].copy()
    p, m = free.size, f.size

    def grads(k):
        r = a_f[k] @ x_f - b[k]
        return 2.0 * (r.real * a_f[k].real + r.imag * a_f[k].imag)

    padded = np.concatenate([[-np.inf], mag2, [-np.inf]])
    peaks = np.flatnonzero((mag2 >= padded[:-2]) & (mag2 >= padded[2:])
                           & (mag2 >= (1.0 - _SUPPORT_REL) * mag2.max()))
    support = _independent(peaks, mag2, grads, e_f)
    lam_s = lam[support] + (1.0 if lam[support].sum() == 0 else 0.0)
    lam_s /= lam_s.sum()
    t, mu = float(mag2[support].max()), np.zeros(m)
    steps = 0
    for _ in range(_MAX_EXCHANGES):
        q = support.size
        for _ in range(_NEWTON_STEPS):
            if steps >= budget:
                return None, None, steps
            steps += 1
            rows = a_f[support]
            r = rows @ x_f - b[support]
            g = 2.0 * (r.real[:, None] * rows.real + r.imag[:, None] * rows.imag)
            # the symmetric Jacobian over (x_F, t, lam_S, mu)
            kkt = np.zeros((p + 1 + q + m, p + 1 + q + m))
            kkt[:p, :p] = 2.0 * ((rows.real.T * lam_s) @ rows.real
                                 + (rows.imag.T * lam_s) @ rows.imag)
            kkt[:p, p + 1:p + 1 + q], kkt[p + 1:p + 1 + q, :p] = g.T, g
            kkt[:p, p + 1 + q:], kkt[p + 1 + q:, :p] = e_f.T, e_f
            kkt[p, p + 1:p + 1 + q] = kkt[p + 1:p + 1 + q, p] = -1.0
            rhs = -np.concatenate([g.T @ lam_s + e_f.T @ mu, [1.0 - lam_s.sum()],
                                   np.abs(r) ** 2 - t, e_f @ x_f - f])
            try:
                d = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                return None, None, steps
            if not np.all(np.isfinite(d)):
                return None, None, steps
            x_f += d[:p]
            t += d[p]
            lam_s = lam_s + d[p + 1:p + 1 + q]
            mu += d[p + 1 + q:]
            if np.abs(d[:p]).max() <= _NEWTON_STEP_TOL * np.abs(x_f).max():
                break
        else:
            return None, None, steps
        if lam_s.min() < 0:
            drop = int(np.argmin(lam_s))
            support, lam_s = np.delete(support, drop), np.delete(lam_s, drop)
            continue
        out = np.abs(a_f @ x_f - b) ** 2
        out[support] = -np.inf
        k = int(np.argmax(out))
        if out[k] <= t:
            break
        if _independent(np.append(support, k), out, grads, e_f).size <= q:
            return None, None, steps  # k would make the system singular
        pos = int(np.searchsorted(support, k))
        support, lam_s = np.insert(support, pos, k), np.insert(lam_s, pos, 0.0)
    else:
        return None, None, steps
    if x_f.min() <= 0:
        return None, None, steps
    x_new, lam_new = np.zeros_like(x), np.zeros_like(lam)
    x_new[free], lam_new[support] = x_f, lam_s
    return x_new, lam_new, steps


def _independent(cand, mag2, grads, e_f):
    """The candidate lags whose constraint rows are independent, largest |r_k|^2 first.

    Lag k's row of the constraint Jacobian over (x_F, t) is (grad |r_k|^2, -1),
    and E_F adds (E_F, 0).  A lag whose row depends on those of E_F and of
    the lags taken before it is passed over: the KKT system would be
    singular with it.  Returns the taken lags in increasing order.
    """
    basis = np.zeros((0, e_f.shape[1] + 1))
    for row in np.hstack([e_f, np.zeros((e_f.shape[0], 1))]):
        basis = _extend(basis, row)
    taken = []
    for k in cand[np.argsort(-mag2[cand], kind="stable")]:
        grown = _extend(basis, np.append(grads(k), -1.0))
        if grown.shape[0] > basis.shape[0]:
            basis = grown
            taken.append(k)
    return np.sort(np.array(taken, dtype=int))


def _extend(basis, row):
    """The orthonormal rows of basis, with row's normalized remainder if that is not round-off."""
    norm = np.linalg.norm(row)
    if norm == 0:
        return basis
    row = row / norm
    for _ in range(2):  # Gram-Schmidt twice is orthogonal to working precision
        row = row - basis.T @ (basis @ row)
    norm = np.linalg.norm(row)
    return np.vstack([basis, row / norm]) if norm > _INDEPENDENT else basis
