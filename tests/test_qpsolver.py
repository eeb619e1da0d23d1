"""Operator-splitting solvers checked against KKT conditions and grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfshape.qpsolver import (
    _project_paraboloid,
    solve_box_qp,
    solve_minimax,
)


def _random_box_qp(rng, n, rows):
    # rows > n would make a box around a random center infeasible more
    # often than not, so center the box on the image of a known point
    root = rng.standard_normal((n, n))
    p_mat = root.T @ root + 0.1 * np.eye(n)
    q = rng.standard_normal(n)
    m_mat = rng.standard_normal((rows, n))
    mid = m_mat @ rng.standard_normal(n)
    width = rng.random(rows) + 0.2
    return p_mat, q, m_mat, mid - width, mid + width


def _kkt_residuals(p_mat, q, m_mat, lo, up, res):
    """Stationarity, feasibility and complementarity of a box-QP solution."""
    z = m_mat @ res.x
    stationarity = np.linalg.norm(p_mat @ res.x + q + m_mat.T @ res.y, np.inf)
    feasibility = np.max(np.maximum(lo - z, 0) + np.maximum(z - up, 0))
    # multiplier sign must match the active side; inactive rows need y ~ 0
    comp = 0.0
    for i in range(len(lo)):
        if res.y[i] > 0:
            comp = max(comp, abs(z[i] - up[i]) * res.y[i])
        elif res.y[i] < 0:
            comp = max(comp, abs(z[i] - lo[i]) * -res.y[i])
    return stationarity, feasibility, comp


def test_box_qp_unconstrained_interior_solution():
    p_mat = np.diag([2.0, 4.0])
    q = np.array([-2.0, -4.0])  # minimizer (1, 1), well inside the box
    m_mat = np.eye(2)
    res = solve_box_qp(p_mat, q, m_mat, np.full(2, -10.0), np.full(2, 10.0))
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)


def test_box_qp_active_bound():
    # min (x - 2)^2 with x <= 1 pins the solution to the bound
    res = solve_box_qp(
        np.array([[2.0]]), np.array([-4.0]),
        np.eye(1), np.array([-np.inf]), np.array([1.0]),
    )
    assert res.converged
    assert res.x[0] == pytest.approx(1.0, abs=1e-8)
    assert res.y[0] > 0  # upper bound active, positive multiplier


def test_box_qp_kkt_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(6):
        p_mat, q, m_mat, lo, up = _random_box_qp(rng, 8, 12)
        res = solve_box_qp(p_mat, q, m_mat, lo, up)
        assert res.converged
        stat, feas, comp = _kkt_residuals(p_mat, q, m_mat, lo, up, res)
        assert stat <= 1e-7
        assert feas <= 1e-8
        assert comp <= 1e-6


def test_box_qp_equality_rows_via_equal_bounds():
    rng = np.random.default_rng(12)
    p_mat, q, m_mat, lo, up = _random_box_qp(rng, 6, 4)
    ones = np.ones((1, 6))
    m_all = np.vstack([m_mat, ones])
    lo_all = np.concatenate([lo, [3.0]])
    up_all = np.concatenate([up, [3.0]])
    res = solve_box_qp(p_mat, q, m_all, lo_all, up_all)
    assert res.converged
    assert np.sum(res.x) == pytest.approx(3.0, abs=1e-8)


def test_box_qp_rejects_bad_bounds():
    with pytest.raises(ValueError, match="empty"):
        solve_box_qp(
            np.eye(2), np.zeros(2), np.eye(2),
            np.array([1.0, 0.0]), np.array([0.0, 1.0]),
        )
    with pytest.raises(ValueError, match="rows"):
        solve_box_qp(
            np.eye(2), np.zeros(2), np.eye(2),
            np.zeros(3), np.ones(3),
        )


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4),
)
def test_paraboloid_projection_properties(re, im, s):
    zr, zi, sp = _project_paraboloid(
        np.array([re]), np.array([im]), np.array([s])
    )
    # lands in the set, and interior points stay put
    assert zr[0] ** 2 + zi[0] ** 2 <= sp[0] + 1e-9
    if re**2 + im**2 <= s:
        assert (zr[0], zi[0], sp[0]) == (re, im, s)
    else:
        # boundary, preserved phase, and no further movement on reprojection
        assert zr[0] ** 2 + zi[0] ** 2 == pytest.approx(sp[0], abs=1e-9)
        assert re * zi[0] - im * zr[0] == pytest.approx(0.0, abs=1e-9)
        zr2, zi2, sp2 = _project_paraboloid(zr, zi, sp)
        assert abs(zr2[0] - zr[0]) + abs(zi2[0] - zi[0]) <= 1e-7


@settings(max_examples=30, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 10_000))
def test_paraboloid_projection_is_nearest_point(re, im, s, probe_seed):
    zr, zi, sp = _project_paraboloid(np.array([re]), np.array([im]), np.array([s]))
    dist = (zr[0] - re) ** 2 + (zi[0] - im) ** 2 + (sp[0] - s) ** 2
    rng = np.random.default_rng(probe_seed)
    pts = rng.standard_normal((64, 2)) * 2.0
    radii2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    alt = (pts[:, 0] - re) ** 2 + (pts[:, 1] - im) ** 2 + (radii2 - s) ** 2
    assert dist <= alt.min() + 1e-7


def test_minimax_matches_dense_grid_on_one_dof():
    # one free direction: max of two shifted magnitudes, scanned on a grid
    a_rows = np.array([[1.0 + 0.5j], [0.7 - 0.2j]])
    b = np.array([0.3 - 1.0j, -0.8 + 0.1j])
    m_mat = np.eye(1)
    lo, up = np.array([-2.0]), np.array([2.0])
    res = solve_minimax(a_rows, b, m_mat, lo, up)
    assert res.converged
    grid = np.linspace(-2.0, 2.0, 200_001)
    vals = np.abs(a_rows @ grid[None, :] + b[:, None]) ** 2
    best = vals.max(axis=0).min()
    assert res.value == pytest.approx(best, rel=1e-5, abs=1e-9)


def test_minimax_value_equals_attained_maximum():
    rng = np.random.default_rng(13)
    a_rows = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    m_mat = np.eye(3)
    res = solve_minimax(a_rows, b, m_mat, np.full(3, -1.0), np.full(3, 1.0))
    assert res.converged
    attained = np.max(np.abs(a_rows @ res.x + b) ** 2)
    assert res.value == pytest.approx(attained, rel=1e-9)
    assert np.all(np.abs(res.x) <= 1.0 + 1e-8)


def test_minimax_no_worse_than_random_feasible_probes():
    rng = np.random.default_rng(14)
    a_rows = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    lo, up = np.full(4, -1.5), np.full(4, 1.5)
    res = solve_minimax(a_rows, b, np.eye(4), lo, up)
    probes = rng.uniform(-1.5, 1.5, size=(4000, 4))
    probe_vals = (np.abs(probes @ a_rows.T + b) ** 2).max(axis=1)
    assert res.value <= probe_vals.min() + 1e-6


def test_minimax_matches_box_qp_on_one_row():
    # with one row max_k |a x + b|^2 is |a x + b|^2 itself, which is a box QP
    # over the stacked real parts; the box excludes the zero-residual point,
    # so the minimizer is unique and lies on the box
    rng = np.random.default_rng(15)
    lo, up = np.full(2, -0.2), np.full(2, 0.2)
    for _ in range(5):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = -a @ (rng.uniform(0.5, 1.0, 2) * rng.choice([-1.0, 1.0], 2))
        ar = np.vstack([a.real, a.imag])
        br = np.array([b.real, b.imag])
        qp = solve_box_qp(2.0 * ar.T @ ar, 2.0 * ar.T @ br, np.eye(2), lo, up)
        mm = solve_minimax(a[None, :], np.array([b]), np.eye(2), lo, up)
        assert qp.converged and mm.converged
        assert np.max(np.abs(qp.x)) == pytest.approx(0.2, abs=1e-9)
        np.testing.assert_allclose(mm.x, qp.x, rtol=0, atol=1e-7)
        assert mm.value == pytest.approx(abs(a @ qp.x + b) ** 2, rel=1e-8)


def test_paraboloid_projection_across_scales():
    # r0 and |s| from 1e-6 to 1e6; the Newton loop has no cap, so it must
    # end at the root of 2 r^3 + (1 - 2 s0) r - r0 for every outside point
    grid = np.logspace(-6, 6, 25)
    r0, s_abs = (v.ravel() for v in np.meshgrid(grid, grid))
    r0 = np.concatenate([r0, r0])
    s = np.concatenate([s_abs, -s_abs])
    outside = r0**2 > s
    r0, s = r0[outside], s[outside]
    phase = np.random.default_rng(16).uniform(-np.pi, np.pi, r0.size)
    re, im = r0 * np.cos(phase), r0 * np.sin(phase)
    zr, zi, sp = _project_paraboloid(re, im, s)
    radius = np.hypot(zr, zi)
    np.testing.assert_array_less(np.abs(zr**2 + zi**2 - sp), 1e-12 * sp)
    np.testing.assert_array_less(np.abs(re * zi - im * zr), 1e-12 * r0 * radius)
    assert np.all(re * zr + im * zi > 0)  # same phase, not the opposite one
    cubic = 2 * radius**3 + (1 - 2 * s) * radius - r0
    scale = 2 * radius**3 + np.abs(1 - 2 * s) * radius + r0
    np.testing.assert_array_less(np.abs(cubic), 1e-12 * scale)
