"""Small dense convex solvers for pulse design, built on numpy.

Two problem shapes are covered, both with box-interval linear constraints
lo <= M x <= up:

  solve_box_qp        minimize 1/2 x^T P x + q^T x
  solve_minimax       minimize max_k |A_k x + b_k|^2   (complex rows A_k)

Both are set-ups for one ADMM loop, ``_admm``, which minimizes
1/2 v^T P v + q^T v subject to C v + c in K, following the operator
splitting of OSQP (Stellato et al., 2020): a regularized equality solve
with a cached inverse, over-relaxation, a projection onto K, a scaled dual
update and residual-balanced penalty rescaling (Boyd et al., 2011, 3.4.1).
The box QP takes C = M, c = 0 and K the interval box.  The minimax
program is its epigraph over v = (x, t): minimize t while each
(Re, Im) pair of A x + b and its copy of t lie in the paraboloid
|z|^2 <= t.  They are meant for the modest sizes that arise here (tens to
a few hundred variables), where running many cheap iterations to tight
residuals is no burden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QpResult", "MinimaxResult", "solve_box_qp", "solve_minimax"]

_SIGMA = 1e-6  # proximal weight that keeps the equality solve regular
_RELAX = 1.6  # over-relaxation factor
_RHO0 = 0.1  # initial penalty


@dataclass(frozen=True)
class QpResult:
    x: np.ndarray
    y: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool


@dataclass(frozen=True)
class MinimaxResult:
    x: np.ndarray
    value: float
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool


def _admm(p_mat, q, c_mat, c, project, v0, eps, max_iter):
    """ADMM for min 1/2 v^T P v + q^T v subject to C v + c in K.

    project maps a point to its nearest point in K.  Residuals are checked
    every 50 iterations: primal |C v + c - z| and the KKT dual residual
    |P v + q + C^T y|, both in the max norm.  Every 2,000 iterations the
    penalty is rescaled to balance them.  Returns (v, y, iterations,
    primal residual, dual residual, converged).
    """
    v = np.array(v0, dtype=float)
    z = c_mat @ v + c
    y = np.zeros(z.size)
    rho = _RHO0

    def factor(rho_val):
        kkt = p_mat + _SIGMA * np.eye(q.size) + rho_val * (c_mat.T @ c_mat)
        return kkt, np.linalg.inv(kkt)

    kkt, kkt_inv = factor(rho)
    r_prim = r_dual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        rhs = _SIGMA * v - q + c_mat.T @ (rho * (z - c) - y)
        v_half = kkt_inv @ rhs
        # one refinement step keeps the cached inverse honest
        v_half += kkt_inv @ (rhs - kkt @ v_half)
        z_half = c_mat @ v_half + c
        v = _RELAX * v_half + (1.0 - _RELAX) * v
        z_relaxed = _RELAX * z_half + (1.0 - _RELAX) * z
        z = project(z_relaxed + y / rho)
        y = y + rho * (z_relaxed - z)
        if it % 50 == 0 or it == max_iter:
            r_prim = np.abs(c_mat @ v + c - z).max(initial=0.0)
            r_dual = np.abs(p_mat @ v + q + c_mat.T @ y).max(initial=0.0)
            if r_prim < eps and r_dual < eps:
                return v, y, it, r_prim, r_dual, True
            if it % 2000 == 0 and r_dual > 0:
                scale = np.sqrt(r_prim / r_dual)
                if scale > 5.0 or scale < 0.2:
                    rho = float(np.clip(rho * scale, 1e-6, 1e6))
                    kkt, kkt_inv = factor(rho)
    return v, y, it, r_prim, r_dual, False


def solve_box_qp(
    p_mat: np.ndarray,
    q: np.ndarray,
    m_mat: np.ndarray,
    lo: np.ndarray,
    up: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    eps: float = 1e-11,
    max_iter: int = 200_000,
) -> QpResult:
    """Box-constrained QP: C = M, c = 0, and K clips onto [lo, up]."""
    rows = m_mat.shape[0]
    if lo.shape != (rows,) or up.shape != (rows,):
        raise ValueError("constraint bounds do not match the matrix rows")
    if np.any(lo > up):
        raise ValueError("constraint interval is empty (lo > up)")
    x0 = np.zeros(q.size) if x0 is None else x0
    return QpResult(*_admm(p_mat, q, m_mat, np.zeros(rows),
                           lambda z: np.clip(z, lo, up), x0, eps, max_iter))


def _project_paraboloid(z_re: np.ndarray, z_im: np.ndarray, s: np.ndarray):
    """Euclidean projection of points onto {(z, s): |z|^2 <= s}.

    Points already inside stay put.  For the rest the projection lands on
    the boundary s = r^2 with the phase of z preserved, and the radius is
    the unique nonnegative root of f(r) = 2 r^3 + (1 - 2 s0) r - r0.
    Newton's method from r0 finds it: f is convex on r >= 0 and
    f(r0) = 2 r0 (r0^2 - s0) > 0 outside the set, so the iterates fall
    monotonically onto the root.  The step is written as
    r <- (4 r^3 + r0) / (6 r^2 + 1 - 2 s0), which has no cancellation, and
    the loop stops at the first step that does not decrease r; a strictly
    falling sequence of floats bounded below by the root must end.
    """
    r0 = np.hypot(z_re, z_im)
    inside = z_re**2 + z_im**2 <= s
    r, falling = r0, ~inside
    with np.errstate(invalid="ignore", divide="ignore"):
        while falling.any():
            nxt = (4.0 * r**3 + r0) / (6.0 * r**2 + 1.0 - 2.0 * s)
            falling &= nxt < r
            r = np.where(falling, nxt, r)
    scale = np.where(r0 > 0.0, r / np.where(r0 > 0.0, r0, 1.0), 0.0)
    out_re = np.where(inside, z_re, z_re * scale)
    out_im = np.where(inside, z_im, z_im * scale)
    out_s = np.where(inside, s, r**2)
    return out_re, out_im, out_s


def solve_minimax(
    a_rows: np.ndarray,
    b: np.ndarray,
    m_mat: np.ndarray,
    lo: np.ndarray,
    up: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    eps: float = 1e-10,
    max_iter: int = 400_000,
) -> MinimaxResult:
    """min_x max_k |a_k^T x + b_k|^2 with lo <= M x <= up, in epigraph form.

    Over v = (x, t) it minimizes t with C = [[M, 0], [Re A, 0], [Im A, 0],
    [0, 1]] and c = [0, Re b, Im b, 0]; K clips the M rows and projects
    each (Re, Im, t) triple onto the paraboloid |z|^2 <= t.
    """
    a_rows = np.asarray(a_rows, dtype=complex)
    k, n = a_rows.shape
    rows = m_mat.shape[0]
    c_mat = np.zeros((rows + 3 * k, n + 1))
    c_mat[:rows, :n] = m_mat
    c_mat[rows:rows + k, :n] = a_rows.real
    c_mat[rows + k:rows + 2 * k, :n] = a_rows.imag
    c_mat[rows + 2 * k:, n] = 1.0
    c = np.concatenate([np.zeros(rows), b.real, b.imag, np.zeros(k)])
    q = np.zeros(n + 1)
    q[n] = 1.0

    def project(z):
        zr, zi, s = _project_paraboloid(
            z[rows:rows + k], z[rows + k:rows + 2 * k], z[rows + 2 * k:]
        )
        return np.concatenate([np.clip(z[:rows], lo, up), zr, zi, s])

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    v0 = np.append(x, np.max(np.abs(a_rows @ x + b) ** 2))
    v, _, *stats = _admm(np.zeros((n + 1, n + 1)), q, c_mat, c, project, v0, eps, max_iter)
    x = v[:n]
    return MinimaxResult(x, float(np.max(np.abs(a_rows @ x + b) ** 2)), *stats)
