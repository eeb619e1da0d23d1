"""Gain-design problem setup and solutions against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfshape import acfstats
from acfshape import pulse as pul
from acfshape import shaping as sh


def test_sidelobe_lags_cover_symbol_window_inclusively():
    lags = sh.sidelobe_lags(128, 10, 5, 15)
    np.testing.assert_array_equal(lags, np.arange(50, 151))
    np.testing.assert_array_equal(sh.sidelobe_lags(16, 4, 1.25, 2.5), np.arange(5, 11))


def test_sidelobe_maps_reproduce_squared_mean_acf():
    rng = np.random.default_rng(21)
    for n, l in [(8, 3), (16, 2), (12, 5)]:
        g = rng.random(n)
        p = pul.NyquistPulse(n, l, g)
        lags = rng.choice(np.arange(1, l * n), size=7, replace=False)
        a_mat, c = sh.sidelobe_maps(n, l, lags)
        from_maps = np.abs(a_mat @ g + c) ** 2
        oracle = np.abs(acfstats.mean_acf(p, lags)) ** 2
        np.testing.assert_allclose(from_maps, oracle, atol=1e-10)


def test_sidelobe_maps_give_exact_zero_rows_at_block_lags():
    # the mean ACF of a Nyquist pulse vanishes at nonzero multiples of l for
    # any gains, so those rows carry no round-off into a design
    a_mat, _ = sh.sidelobe_maps(32, 4, np.array([4, 76, 124]))
    assert np.all(a_mat == 0.0)


def test_region_metrics_are_sum_and_peak():
    p = pul.rrc_spectrum(16, 4, 0.5)
    lags = np.arange(8, 25)
    a_mat, c = sh.sidelobe_maps(16, 4, lags)
    floor = np.abs(a_mat @ p.g + c) ** 2
    metrics = sh.region_metrics(p, lags)
    assert metrics["isl"] == pytest.approx(np.sum(floor), rel=1e-12)
    assert metrics["psl"] == pytest.approx(np.max(floor), rel=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError, match="empty"):
        sh.ShapingSpec(16, 4, 0.5, np.array([]))
    with pytest.raises(ValueError, match="lags must lie"):
        sh.ShapingSpec(16, 4, 0.5, np.array([0, 5]))
    with pytest.raises(ValueError, match="lags must lie"):
        sh.ShapingSpec(16, 4, 0.5, np.array([64]))
    with pytest.raises(ValueError, match="objective"):
        sh.ShapingSpec(16, 4, 0.5, np.array([5]), "mean")


def _check_feasible(result, spec):
    g = result.pulse.g
    w = pul.rolloff_bin_count(spec.n, spec.alpha)
    zeros = (spec.n - w) // 2
    assert np.all(g[:zeros] == 0.0)
    assert np.all(g[zeros + w:] == 1.0)
    seg = g[zeros:zeros + w]
    assert np.all(np.diff(seg) >= -1e-9)
    assert np.all(seg >= -1e-12) and np.all(seg <= 1 + 1e-12)
    assert np.sum(g) == pytest.approx(spec.n / 2, abs=1e-8)
    assert result.constraint_violation <= 1e-9


@pytest.mark.parametrize("objective", ["isl", "psl"])
def test_design_improves_on_rrc_and_stays_feasible(objective):
    spec = sh.ShapingSpec(32, 4, 0.5, sh.sidelobe_lags(32, 4, 2, 6), objective)
    result = sh.design_pulse(spec)
    assert result.converged
    _check_feasible(result, spec)
    rrc = pul.rrc_spectrum(32, 4, 0.5)
    baseline = sh.region_metrics(rrc, spec.region)[objective]
    # the raised cosine is feasible, so the optimum cannot be worse
    assert result.value <= baseline * (1 + 1e-8)
    # reported value is recomputed from the returned gains
    attained = sh.region_metrics(result.pulse, spec.region)[objective]
    assert result.value == pytest.approx(attained, rel=1e-9)


@pytest.mark.parametrize("objective, tol, max_iter", [
    ("psl", 0.0, None), ("psl", -1.0, None), ("psl", float("nan"), None),
    ("psl", float("inf"), None), ("psl", 1.0, None), ("psl", None, 0),
    ("isl", None, -5), ("isl", 1e-3, None),
])
def test_design_rejects_bad_stops(objective, tol, max_iter):
    spec = sh.ShapingSpec(32, 4, 0.5, sh.sidelobe_lags(32, 4, 2, 6), objective)
    with pytest.raises(ValueError, match="tol|max_iter"):
        sh.design_pulse(spec, tol=tol, max_iter=max_iter)


def test_tiny_design_matches_grid_search():
    # w = 2 leaves one degree of freedom: h = (h1, 1 - h1), monotone means
    # h1 <= 0.5, so a dense scan is an exact oracle
    n, l = 8, 2
    region = np.array([5, 7])
    spec = sh.ShapingSpec(n, l, 2 / 8, region, "psl")
    result = sh.design_pulse(spec)
    assert result.converged
    w = pul.rolloff_bin_count(n, spec.alpha)
    zeros = (n - w) // 2
    a_mat, c = sh.sidelobe_maps(n, l, region)
    template = np.zeros(n)
    template[zeros + w:] = 1.0
    h1 = np.linspace(0.0, 0.5, 20_001)
    gains = np.tile(template, (h1.size, 1))
    gains[:, zeros] = h1
    gains[:, zeros + 1] = 1.0 - h1
    vals = (np.abs(gains @ a_mat.T + c) ** 2).max(axis=1)
    best = vals.min()
    assert result.value == pytest.approx(best, abs=1e-3 * max(best, 1.0))


def _monotone_grid(w, steps):
    """Every nondecreasing h on the grid k/steps in [0, 1] with sum(h) = w/2, for w = 4."""
    assert w == 4 and steps % 2 == 0
    total, points = 2 * steps, []
    k = np.arange(steps + 1)
    for k1 in range(total // 4 + 1):
        k2, k3 = np.meshgrid(k, k, indexing="ij")
        k4 = total - k1 - k2 - k3
        keep = (k1 <= k2) & (k2 <= k3) & (k3 <= k4) & (k4 <= steps)
        points.append(np.stack([np.full(keep.sum(), k1), k2[keep], k3[keep], k4[keep]], 1))
    return np.concatenate(points) / steps


@pytest.mark.parametrize("objective", ["isl", "psl"])
def test_design_beats_brute_force_grid(objective):
    # w = 4: every monotone segment on a 1/200 grid with the half-band sum
    n, l = 16, 2
    region = np.array([5, 9, 13])
    spec = sh.ShapingSpec(n, l, 0.25, region, objective)
    w = pul.rolloff_bin_count(n, spec.alpha)
    zeros = (n - w) // 2
    h = _monotone_grid(w, 200)
    assert len(h) == 230_673
    a_mat, c = sh.sidelobe_maps(n, l, region)
    floor = np.abs(h @ a_mat[:, zeros:zeros + w].T + (c + a_mat[:, zeros + w:].sum(axis=1))) ** 2
    best = (floor.max(axis=1) if objective == "psl" else floor.sum(axis=1)).min()
    result = sh.design_pulse(spec)
    assert result.converged
    _check_feasible(result, spec)
    assert result.value <= best
    assert best >= result.value * (1 - result.gap)


def test_degenerate_rolloff_returns_rrc():
    # alpha small enough that the budget is at most one bin: nothing to tune
    spec = sh.ShapingSpec(9, 3, 0.05, np.array([4, 5]), "isl")
    result = sh.design_pulse(spec)
    assert result.converged
    assert result.iterations == 0
    rrc = pul.rrc_spectrum(9, 3, 0.05)
    np.testing.assert_allclose(result.pulse.g, rrc.g, atol=1e-14)
    assert result.value == sh.region_metrics(rrc, spec.region)["isl"]


def test_designed_pulse_keeps_nyquist_zeros():
    spec = sh.ShapingSpec(16, 4, 0.75, sh.sidelobe_lags(16, 4, 2, 3), "psl")
    result = sh.design_pulse(spec)
    # the optimum here is a zero floor, which is certified rather than chased
    assert result.converged and result.gap == 0.0
    block_lags = np.arange(1, 16) * 4
    np.testing.assert_allclose(
        acfstats.mean_acf(result.pulse, block_lags), 0.0, atol=1e-10
    )


@pytest.mark.parametrize("objective", ["isl", "psl"])
def test_design_builds_the_maps_once_and_reports_region_metrics(objective, monkeypatch):
    calls = []
    maps = sh.sidelobe_maps

    def counted(*args):
        calls.append(args)
        return maps(*args)

    monkeypatch.setattr(sh, "sidelobe_maps", counted)
    spec = sh.ShapingSpec(128, 10, 0.35, sh.sidelobe_lags(128, 10, 5, 15), objective)
    result = sh.design_pulse(spec)
    assert len(calls) == 1
    monkeypatch.setattr(sh, "sidelobe_maps", maps)
    assert result.value == sh.region_metrics(result.pulse, spec.region)[objective]


@settings(max_examples=40, deadline=None)  # three in four at n=32, where designs are cheap
@given(st.sampled_from([(32, 4), (32, 4), (32, 4), (128, 10)]), st.integers(1, 5),
       st.floats(0.0, 1.0), st.sampled_from(["isl", "psl"]))
def test_short_windows_converge(grid, width, where, objective):
    # windows of 1-5 lags anywhere on the grid, exact fits and block lags included
    n, l = grid
    start = 1 + int(where * (l * n - 1 - width))
    spec = sh.ShapingSpec(n, l, 0.35, np.arange(start, start + width), objective)
    result = sh.design_pulse(spec)
    assert result.converged
    _check_feasible(result, spec)
    baseline = sh.region_metrics(pul.rrc_spectrum(n, l, 0.35), spec.region)[objective]
    assert result.value <= baseline * (1 + result.gap) * (1 + 1e-8) + 1e-24
