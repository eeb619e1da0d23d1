"""Active-set and Lawson solvers checked against KKT conditions and grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfshape import qpsolver, shaping
from acfshape.qpsolver import solve_box_qp, solve_minimax
from helpers import oracle_box_qp, oracle_minimax


def _boxed(a0, b0, lo, up):
    """A box lo <= y <= up written as y = lo + u with u, v >= 0, u + v = up - lo.

    Returns (A, b, E, f, x0) over x = (u, v), with x0 the box center, so
    that A x - b = a0 y - b0.
    """
    k = lo.size
    a = np.hstack([a0, np.zeros_like(a0)])
    e = np.hstack([np.eye(k), np.eye(k)])
    return a, b0 - a0 @ lo, e, up - lo, np.concatenate([(up - lo) / 2, (up - lo) / 2])


def _kkt_violation(a, b, e, f, res):
    """Worst KKT violation of a result for min |A x - b|^2 over x >= 0, E x = f.

    With the equality multipliers y that the solver reports, the bound
    multipliers nu = A^T (A x - b) + E^T y must be nonnegative and vanish
    wherever x > 0; x must be feasible.
    """
    x = res.x
    nu = a.T @ (a @ x - b) + e.T @ res.y
    return max(
        -nu.min(),
        np.abs(nu * x).max(),
        np.abs(e @ x - f).max(initial=0.0),
        -x.min(),
    )


def _design_rows(w):
    """The design's two equality rows over (z, s): sum(cumsum(z)) = w/2 and
    sum(z) + s = 1, with a feasible ramp start."""
    e = np.vstack([np.append(np.arange(w, 0, -1), 0.0), np.ones(w + 1)])
    ramp = (np.arange(w) + 0.5) / w
    return e, np.array([w / 2, 1.0]), np.append(np.diff(ramp, prepend=0.0), 1.0 - ramp[-1])


def test_box_qp_unconstrained_interior_solution():
    # |diag(1, sqrt 2) y - (1, sqrt 2)|^2 has its minimizer (1, 1) well inside the box
    a0 = np.diag([1.0, np.sqrt(2.0)])
    a, b, e, f, x0 = _boxed(a0, a0 @ np.ones(2), np.full(2, -10.0), np.full(2, 10.0))
    res = solve_box_qp(a, b, e, f, x0)
    assert res.converged
    np.testing.assert_allclose(-10.0 + res.x[:2], [1.0, 1.0], atol=1e-12)
    assert res.value == pytest.approx(0.0, abs=1e-24)


def test_box_qp_active_bound():
    # min (y - 2)^2 with y <= 1 pins the solution to the bound
    a, b, e, f, x0 = _boxed(np.eye(1), np.array([2.0]), np.array([-10.0]), np.array([1.0]))
    res = solve_box_qp(a, b, e, f, x0)
    assert res.converged
    assert -10.0 + res.x[0] == pytest.approx(1.0, abs=1e-12)
    assert res.x[1] == 0.0  # the upper slack sits at its bound
    nu = a.T @ (a @ res.x - b) + e.T @ res.y
    assert nu[0] == pytest.approx(0.0, abs=1e-12)
    assert nu[1] > 0  # positive multiplier on the active upper bound


def test_box_qp_kkt_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(6):
        a = rng.standard_normal((12, 8))
        b = rng.standard_normal(12)
        e = rng.random((2, 8))
        x0 = rng.random(8) + 0.1
        f = e @ x0
        res = solve_box_qp(a, b, e, f, x0)
        assert res.converged
        assert 0 < np.sum(res.x == 0) < 8  # some bounds active, some not
        assert _kkt_violation(a, b, e, f, res) <= 1e-12


def test_box_qp_equality_rows_via_equal_bounds():
    # rows of E hold exactly at the answer, and the answer is a KKT point
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((4, 6)), rng.standard_normal(4)
    e = np.vstack([np.ones(6), np.arange(6.0)])
    x0 = np.full(6, 0.5)
    f = e @ x0
    res = solve_box_qp(a, b, e, f, x0)
    assert res.converged
    np.testing.assert_allclose(e @ res.x, [3.0, 7.5], rtol=0, atol=1e-13)
    assert _kkt_violation(a, b, e, f, res) <= 1e-12


def test_box_qp_rejects_bad_bounds():
    a, b, e, f = np.eye(2), np.zeros(2), np.ones((1, 2)), np.array([1.0])
    with pytest.raises(ValueError, match="shapes"):
        solve_box_qp(a, np.zeros(3), e, f, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="shapes"):
        solve_box_qp(a, b, e, f, np.array([0.5, 0.25, 0.25]))
    with pytest.raises(ValueError, match="infeasible"):
        solve_box_qp(a, b, e, f, np.array([1.5, -0.5]))  # E x0 = f but x0 < 0
    with pytest.raises(ValueError, match="infeasible"):
        solve_box_qp(a, b, e, f, np.array([0.5, 0.6]))  # x0 >= 0 but E x0 != f
    with pytest.raises(ValueError, match="infeasible"):
        solve_minimax(a, b, e, f, np.array([0.5, 0.6]))


def test_minimax_matches_dense_grid_on_one_dof():
    # one free direction: max of two shifted magnitudes, scanned on a grid
    a_rows = np.array([[1.0 + 0.5j], [0.7 - 0.2j]])
    b = np.array([0.3 - 1.0j, -0.8 + 0.1j])
    lo, up = np.array([-2.0]), np.array([2.0])
    res = solve_minimax(*_boxed(a_rows, -b, lo, up))
    assert res.converged
    grid = np.linspace(-2.0, 2.0, 200_001)
    vals = np.abs(a_rows @ grid[None, :] + b[:, None]) ** 2
    best = vals.max(axis=0).min()
    assert res.value == pytest.approx(best, rel=1e-5, abs=1e-9)
    assert best >= res.value * (1 - res.gap)


def test_minimax_value_equals_attained_maximum():
    rng = np.random.default_rng(13)
    a_rows = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    lo, up = np.full(3, -1.0), np.full(3, 1.0)
    res = solve_minimax(*_boxed(a_rows, b, lo, up))
    assert res.converged and res.gap <= 1e-4
    y = lo + res.x[:3]
    attained = np.max(np.abs(a_rows @ y - b) ** 2)
    assert res.value == pytest.approx(attained, rel=1e-9)
    assert np.all(np.abs(y) <= 1.0 + 1e-12)


def test_minimax_no_worse_than_random_feasible_probes():
    rng = np.random.default_rng(14)
    a_rows = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    lo, up = np.full(4, -1.5), np.full(4, 1.5)
    res = solve_minimax(*_boxed(a_rows, b, lo, up))
    assert res.converged
    probes = rng.uniform(-1.5, 1.5, size=(4000, 4))
    probe_vals = (np.abs(probes @ a_rows.T - b) ** 2).max(axis=1)
    assert res.value <= probe_vals.min() + 1e-6


def test_minimax_matches_box_qp_on_one_row():
    # with one row max_k |a y - b|^2 is |a y - b|^2 itself, a least-squares
    # problem over the stacked real parts; the box excludes the zero-residual
    # point, so the minimizer is unique and lies on the box
    rng = np.random.default_rng(15)
    lo, up = np.full(2, -0.2), np.full(2, 0.2)
    for _ in range(5):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = a @ (rng.uniform(0.5, 1.0, 2) * rng.choice([-1.0, 1.0], 2))
        ar = np.vstack([a.real, a.imag])
        br = np.array([b.real, b.imag])
        qp = solve_box_qp(*_boxed(ar, br, lo, up))
        mm = solve_minimax(*_boxed(a[None, :], np.array([b]), lo, up))
        assert qp.converged and mm.converged
        assert mm.iterations == 1 and mm.gap <= 1e-12  # one weight: one exact solve
        y = lo + qp.x[:2]
        assert np.max(np.abs(y)) == pytest.approx(0.2, abs=1e-12)
        np.testing.assert_allclose(lo + mm.x[:2], y, rtol=0, atol=1e-12)
        assert mm.value == pytest.approx(abs(a @ y - b) ** 2, rel=1e-12)
        assert qp.value == pytest.approx(mm.value, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_design_rows_reach_kkt_points(w, rows, seed):
    # random small (A, b) under the design's two equality rows, n = w + 1 <= 8
    rng = np.random.default_rng(seed)
    e, f, x0 = _design_rows(w)
    a, b = rng.standard_normal((rows, w + 1)), rng.standard_normal(rows)
    res = solve_box_qp(a, b, e, f, x0)
    assert res.converged
    assert _kkt_violation(a, b, e, f, res) <= 1e-9


def _agrees_with_oracle(a, b, e, f, x0):
    """The Gram kernel reaches the lstsq oracle's value and a KKT point.

    An exact fit (value at round-off) can leave both cycling to the cap on
    multipliers that are round-off too, so only the oracle's convergence
    is required of the kernel.
    """
    res, ref = solve_box_qp(a, b, e, f, x0), oracle_box_qp(a, b, e, f, x0)
    assert res.converged or not ref.converged
    # relative to the larger value; near an exact fit, to 1e-6 |b|^2, so that
    # the tolerance never drops below the round-off of |b|^2
    scale = max(res.value, ref.value, 1e-6 * float(b @ b))
    assert abs(res.value - ref.value) <= 1e-10 * scale
    assert _kkt_violation(a, b, e, f, res) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 10), st.booleans(), st.integers(0, 2**32 - 1))
def test_box_qp_matches_the_lstsq_oracle(w, rows, boxed, seed):
    # design rows over w + 1 coordinates or a box over w; rows < free columns
    # gives singular faces, which take the least-squares step
    rng = np.random.default_rng(seed)
    if boxed:
        a0, b0 = rng.standard_normal((rows, w)), rng.standard_normal(rows)
        lo = rng.uniform(-2.0, 0.0, w)
        _agrees_with_oracle(*_boxed(a0, b0, lo, lo + rng.uniform(0.1, 2.0, w)))
    else:
        e, f, x0 = _design_rows(w)
        _agrees_with_oracle(rng.standard_normal((rows, w + 1)), rng.standard_normal(rows),
                            e, f, x0)


@pytest.mark.parametrize("window", [(5, 15), (10, 30)])
def test_box_qp_matches_the_lstsq_oracle_on_isl_design_rows(window, monkeypatch):
    # the rows design_pulse hands the solver for fig4's pulse at n=128, l=10
    captured = []

    def capture(*args, **kwargs):
        captured.append(args)
        return solve_box_qp(*args, **kwargs)

    monkeypatch.setattr(shaping, "solve_box_qp", capture)
    lags = shaping.sidelobe_lags(128, 10, *window)
    shaping.design_pulse(shaping.ShapingSpec(128, 10, 0.35, lags, "isl"))
    _agrees_with_oracle(*captured[0])


@pytest.mark.parametrize("seed", [15, 20, 23, 27])
def test_minimax_face_changes_after_the_first_step(seed, monkeypatch):
    # boxed instances whose Lawson steps leave the face of step 1 later on;
    # a step on a face seen before still has to pass the KKT test
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(3, 9)), int(rng.integers(2, 5))
    a_rows = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    b = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    problem = _boxed(a_rows, b, np.full(n, -0.5), np.full(n, 0.5))
    kernel, changed = qpsolver._active_set, []

    def watch(a, b, e, f, x, *rest):
        start = x > 0
        out = kernel(a, b, e, f, x, *rest)
        changed.append(bool(np.any(start != (x > 0))))
        return out

    monkeypatch.setattr(qpsolver, "_active_set", watch)
    res = solve_minimax(*problem)
    ref = oracle_minimax(*problem)
    assert any(changed[1:])
    assert res.converged and ref.converged
    # both values are attained maxima; each must sit above the other's bound
    assert ref.value >= res.value * (1 - res.gap)
    assert res.value >= ref.value * (1 - ref.gap)


@pytest.mark.parametrize("w, seed", [(5, 3032128458), (6, 3934870575)])
def test_exact_fits_converge(w, seed):
    # two rows over a w-dimensional box: the optimum fits both exactly, so
    # the multipliers at the answer are round-off and must test as zero
    rng = np.random.default_rng(seed)
    a0, b0 = rng.standard_normal((2, w)), rng.standard_normal(2)
    lo = rng.uniform(-2.0, 0.0, w)
    a, b, e, f, x0 = _boxed(a0, b0, lo, lo + rng.uniform(0.1, 2.0, w))
    qp = solve_box_qp(a, b, e, f, x0)
    assert qp.converged and qp.value <= 1e-28 * float(b @ b)
    assert _kkt_violation(a, b, e, f, qp) <= 1e-12
    mm = solve_minimax(a, b, e, f, x0)
    assert mm.converged and mm.gap == 0.0 and mm.value <= 1e-28 * float(b @ b)


def _complex_instance(rng, w, rows, boxed):
    """A complex minimax instance: rows over a w-dimensional box, or over the
    design's two equality rows with w + 1 coordinates."""
    if boxed:
        a0 = rng.standard_normal((rows, w)) + 1j * rng.standard_normal((rows, w))
        b0 = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        lo = rng.uniform(-2.0, 0.0, w)
        return _boxed(a0, b0, lo, lo + rng.uniform(0.1, 2.0, w))
    e, f, x0 = _design_rows(w)
    a = rng.standard_normal((rows, w + 1)) + 1j * rng.standard_normal((rows, w + 1))
    return a, rng.standard_normal(rows) + 1j * rng.standard_normal(rows), e, f, x0


def _agrees_with_minimax_oracle(problem):
    """solve_minimax converges wherever the Lawson oracle does, and each
    value sits above the other's certified lower bound value (1 - gap).

    Both values are attained maxima of |r_k|^2, so the comparison allows
    round-off only: 1e-12 relative, or 1e-20 |b|^2 at an exact fit.
    """
    res, ref = solve_minimax(*problem), oracle_minimax(*problem)
    assert res.converged or not ref.converged
    if res.converged and ref.converged:
        slack = 1e-20 * float(np.sum(np.abs(problem[1]) ** 2))
        assert ref.value >= res.value * (1 - res.gap - 1e-12) - slack
        assert res.value >= ref.value * (1 - ref.gap - 1e-12) - slack
    return res


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 10), st.booleans(), st.integers(0, 2**32 - 1))
def test_minimax_matches_the_lawson_oracle(w, rows, boxed, seed):
    _agrees_with_minimax_oracle(_complex_instance(np.random.default_rng(seed), w, rows, boxed))


@pytest.mark.parametrize("seed", [6, 7])
def test_minimax_certifies_the_newton_finish(seed, monkeypatch):
    # instances on which Newton converges on a face that is not optimal, so
    # that only the certificate's exact solve sends the solver back to Lawson
    rng = np.random.default_rng(seed)
    problem = _complex_instance(rng, 6, 7, False)
    finishes = []
    newton = qpsolver._exchange_newton

    def watch(*args):
        out = newton(*args)
        finishes.append(out[0] is not None)
        return out

    monkeypatch.setattr(qpsolver, "_exchange_newton", watch)
    res = _agrees_with_minimax_oracle(problem)
    assert res.converged and finishes[0]
