"""Matched-filter ranging against dense-matrix and closed-form oracles."""

import copy
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from acfshape import acfstats
from acfshape import constellation as con
from acfshape import modulation as mod
from acfshape import montecarlo as mc
from acfshape import pulse as pul
from acfshape import ranging as rng_mod
from acfshape import shaping
from helpers import modulate, spectrum_to_time


def _waveform(n=16, l=2, kind="ofdm", const="qam16"):
    return con.from_name(const), mod.make_basis(kind, n), pul.rrc_spectrum(n, l, 0.35)


def _scenario(n=16, l=2, targets=(), roi=None, **kw):
    c, b, p = _waveform(n, l)
    roi = roi if roi is not None else (0, n * l - 1)
    return rng_mod.RangingScenario(c, b, p, tuple(targets), roi, **kw)


def test_grid_mapping_matches_paper_scale():
    # 200 MHz band at 10x oversampling: half-nanosecond samples, one per lag
    per_lag = rng_mod.range_per_lag_m(200e6, 10)
    assert 2.0 * per_lag / rng_mod.SPEED_OF_LIGHT == pytest.approx(0.5e-9)
    assert per_lag == pytest.approx(0.07494811, abs=1e-8)
    assert rng_mod.lag_for_range(20.0, 200e6, 10) == 267
    assert rng_mod.lag_for_range(30.0, 200e6, 10) == 400
    assert rng_mod.range_for_lag(267, 200e6, 10) == pytest.approx(267 * per_lag)
    assert rng_mod.resolution_cell_m(200e6, 10) == pytest.approx(10 * per_lag)


def _estimate_range(profile, roi, bandwidth_hz, l):
    """Range in meters of the peak inside the inclusive lag window; ties go low.

    The scalar form of rmse_sweep's vectorized peak pick, kept as its oracle.
    """
    lo, hi = roi
    if not 0 <= lo <= hi < len(profile):
        raise ValueError(f"roi {roi} outside the profile of length {len(profile)}")
    lag = lo + int(np.argmax(profile[lo:hi + 1]))
    return rng_mod.range_for_lag(lag, bandwidth_hz, l)


def _detection_success(estimate_m, true_m, bandwidth_hz, l):
    """Hit when the estimate lands within half a resolution cell (the oracle)."""
    return abs(estimate_m - true_m) <= rng_mod.resolution_cell_m(bandwidth_hz, l) / 2.0


def _time_domain_profile(scenario, symbols):
    """Brute-force oracle for run_once without noise, one slot per row.

    Shapes each slot with the dense pulse circulant, builds the echo by
    rolling the signal once per target, correlates it against the signal
    by the cyclic sum at every lag, and averages the m outputs.
    """
    pulse, grid = scenario.pulse, scenario.grid
    taps = spectrum_to_time(pulse)
    circulant = np.array([np.roll(taps, k) for k in range(grid)]).T
    total = np.zeros(grid, dtype=complex)
    for s in symbols:
        up = np.zeros(grid, dtype=complex)
        up[::pulse.l] = modulate(scenario.basis, s)
        xt = circulant @ up
        y = np.zeros(grid, dtype=complex)
        for t in scenario.targets:
            y += t.amplitude * np.roll(xt, t.delay)
        total += [
            sum(y[t] * np.conj(xt[(t - i) % grid]) for t in range(grid))
            for i in range(grid)
        ]
    return np.abs(total / len(symbols)) ** 2


def test_echo_trivial_cases():
    n, m = 16, 2
    empty = _scenario(n=n, l=2, m=m)
    np.testing.assert_array_equal(rng_mod.run_once(empty, np.random.default_rng(0)), 0.0)
    # a unit target at delay 0 returns the squared slot-averaged ACF
    one = replace(empty, targets=(rng_mod.Target(0, 1.0),))
    profile = rng_mod.run_once(one, np.random.default_rng(0))
    symbols = con.sample_symbols(one.constellation, (m, n), np.random.default_rng(0))
    oracle = _time_domain_profile(one, symbols)
    np.testing.assert_allclose(profile, oracle, rtol=0, atol=1e-12 * oracle.max())


def test_run_once_matches_time_domain_oracle(monkeypatch):
    n, m = 16, 3
    targets = [
        rng_mod.Target(3, 0.8 * np.exp(0.4j)),
        rng_mod.Target(41, 0.1 * np.exp(-1.1j)),
    ]
    scene = _scenario(n=n, l=4, targets=targets, m=m)
    profile = rng_mod.run_once(scene, np.random.default_rng(2))
    # run_once draws the symbols first, then the noise record
    symbols = con.sample_symbols(scene.constellation, (m, n), np.random.default_rng(2))
    oracle = _time_domain_profile(scene, symbols)
    np.testing.assert_allclose(profile, oracle, rtol=0, atol=1e-12 * oracle.max())
    monkeypatch.setattr(mc, "_SLOT_CHUNK", 2)
    chunked = rng_mod.run_once(scene, np.random.default_rng(2))
    np.testing.assert_allclose(chunked, oracle, rtol=0, atol=1e-12 * oracle.max())


def test_run_once_noiseless_single_target_is_exact():
    n, l = 16, 4
    # unit-modulus symbols on subcarriers keep every slot's energy at
    # exactly n, so the coherent average peaks at n^2 with no spread
    c, b, p = _waveform(n, l, kind="ofdm", const="psk8")
    scene = rng_mod.RangingScenario(
        c, b, p, (rng_mod.Target(23, 1.0),), roi=(16, 48), m=3
    )
    profile = rng_mod.run_once(scene, np.random.default_rng(6))
    assert np.argmax(profile) == 23
    assert profile[23] == pytest.approx(n**2, rel=1e-9)
    est = _estimate_range(profile, scene.roi, scene.bandwidth_hz, l)
    truth = rng_mod.range_for_lag(23, scene.bandwidth_hz, l)
    assert est == pytest.approx(truth)
    assert _detection_success(est, truth, scene.bandwidth_hz, l)


def test_noise_floor_drops_with_integration():
    # no targets: the averaged matched filter holds pure noise, whose level
    # must fall by the integration count
    n, l = 32, 4
    c, b, p = _waveform(n, l, kind="ofdm", const="psk16")
    levels = {}
    for m in (1, 64):
        scene = rng_mod.RangingScenario(c, b, p, (), roi=(0, n * l - 1), m=m)
        gen = np.random.default_rng(7)
        acc = np.zeros(n * l)
        for _ in range(40):
            acc += rng_mod.run_once(scene, gen, 0.5)
        levels[m] = acc.mean() / 40
    drop_db = 10 * np.log10(levels[1] / levels[64])
    assert drop_db == pytest.approx(10 * np.log10(64), abs=1.0)


def test_noise_floor_is_absolute():
    # no targets and constant-modulus symbols (||x||^2 = n in every slot):
    # the lag-averaged output is pure noise with mean noise_var * n / m.
    # One run's lag mean is a sum over about n independent bins, so it
    # scatters by roughly 1/sqrt(n) = 18%; 50 runs bring that to 2.5%.
    n, l, noise_var, runs = 32, 4, 0.5, 50
    c, b, p = _waveform(n, l, kind="ofdm", const="psk16")
    for m in (1, 64):
        scene = rng_mod.RangingScenario(c, b, p, (), roi=(0, n * l - 1), m=m)
        gen = np.random.default_rng(12)
        level = np.mean([rng_mod.run_once(scene, gen, noise_var).mean() for _ in range(runs)])
        assert level == pytest.approx(noise_var * n / m, rel=0.1)


def test_estimate_range_tie_breaks_to_smallest_lag():
    profile = np.ones(32)
    est = _estimate_range(profile, (10, 20), 200e6, 2)
    assert est == rng_mod.range_for_lag(10, 200e6, 2)


def test_scenario_validation():
    c, b, p = _waveform(8, 2)
    good = rng_mod.Target(3, 1.0)
    with pytest.raises(ValueError, match="delay"):
        rng_mod.RangingScenario(c, b, p, (rng_mod.Target(16, 1.0),), (0, 15))
    with pytest.raises(ValueError, match="distinct"):
        rng_mod.RangingScenario(c, b, p, (good, rng_mod.Target(3, 0.5)), (0, 15))
    with pytest.raises(ValueError, match="roi"):
        rng_mod.RangingScenario(c, b, p, (good,), (4, 16))
    with pytest.raises(ValueError, match="integration"):
        rng_mod.RangingScenario(c, b, p, (good,), (0, 15), m=0)
    with pytest.raises(ValueError, match="basis size"):
        rng_mod.RangingScenario(c, mod.make_basis("ofdm", 16), p, (good,), (0, 15))
    with pytest.raises(ValueError, match="roi"):
        _estimate_range(np.ones(8), (5, 9), 200e6, 2)
    scene = rng_mod.RangingScenario(c, b, p, (good,), (0, 15))
    for bad in (-1.0, [0.5, -1.0], [[0.5]], np.nan):
        with pytest.raises(ValueError, match="noise"):
            rng_mod.run_once(scene, np.random.default_rng(0), bad)


def test_rmse_sweep_is_deterministic_and_well_formed():
    scene = _scenario(
        n=16, l=2, targets=[rng_mod.Target(9, 1.0)], roi=(5, 14), m=2
    )
    truth = rng_mod.range_for_lag(9, scene.bandwidth_hz, 2)
    first = rng_mod.rmse_sweep(scene, truth, [0.0, 20.0], runs=6, seed=42)
    again = rng_mod.rmse_sweep(scene, truth, [0.0, 20.0], runs=6, seed=42)
    assert first == again
    for row in first:
        assert set(row) == {"snr_db", "rmse_m", "rmse_hits_m", "success_rate"}
        assert 0.0 <= row["success_rate"] <= 1.0
        assert row["rmse_m"] >= 0.0
    # high SNR on an isolated target inside the roi: every run hits
    assert first[1]["success_rate"] == 1.0
    assert first[1]["rmse_hits_m"] == first[1]["rmse_m"]


def test_rmse_sweep_reports_nan_when_nothing_hits():
    # roi excludes the only target, so no estimate can land within a cell
    scene = _scenario(n=16, l=2, targets=[rng_mod.Target(25, 1.0)], roi=(2, 8))
    truth = rng_mod.range_for_lag(25, scene.bandwidth_hz, 2)
    rows = rng_mod.rmse_sweep(scene, truth, [30.0], runs=4, seed=1)
    assert rows[0]["success_rate"] == 0.0
    assert np.isnan(rows[0]["rmse_hits_m"])


def test_noise_variance_sets_the_strong_path_snr():
    # amplitude_ref^2 / l per sample over the noise variance, in dB
    for snr_db in (-20.0, 0.0, 13.0):
        var = rng_mod.noise_variance(snr_db, 4, amplitude_ref=2.0)
        assert 10.0 * np.log10(4.0 / 4 / var) == pytest.approx(snr_db, abs=1e-12)
    assert rng_mod.noise_variance(10.0, 2) == pytest.approx(0.05, rel=1e-15)


def test_profile_db_is_its_own_stream_in_db_of_its_peak():
    scene = _scenario(n=16, l=2, targets=[rng_mod.Target(4, 1.0), rng_mod.Target(20, 0.1)], m=3)
    db = rng_mod.profile_db(scene, 20.0, seed=7, index=2, amplitude_ref=2.0)
    raw = rng_mod.run_once(scene, mc.stream(7, mc._TAG_PROFILE, 2), 4.0 / (2 * 10.0**2))
    assert db.max() == 0.0 and db.shape == (scene.grid,)
    assert np.array_equal(db, np.maximum(10.0 * np.log10(raw / raw.max()), acfstats.DB_FLOOR))
    assert not np.array_equal(db, rng_mod.profile_db(scene, 20.0, seed=7, index=3,
                                                     amplitude_ref=2.0))


def test_profile_db_floors_an_all_zero_profile(recwarn):
    # no target power and no noise: every lag sits on the floor, with no warning
    scene = _scenario(targets=[rng_mod.Target(4, 0.0)])
    db = rng_mod.profile_db(scene, 0.0, seed=0, index=0, amplitude_ref=0.0)
    assert np.array_equal(db, np.full(scene.grid, acfstats.DB_FLOOR))
    assert [str(w.message) for w in recwarn] == []


def test_target_phase_redraw_keeps_magnitudes():
    scene = _scenario(
        n=16, l=2,
        targets=[rng_mod.Target(3, 2.0), rng_mod.Target(7, 0.25 * np.exp(1j))],
    )
    redrawn = rng_mod._drawn_amplitudes(scene, np.random.default_rng(8))
    assert np.abs(redrawn) == pytest.approx([2.0, 0.25])
    assert redrawn[0] != scene.targets[0].amplitude
    # the same phases, drawn in the same order, as one target at a time
    oracle = _with_phases(scene, np.random.default_rng(8))
    assert np.array_equal(redrawn, [t.amplitude for t in oracle.targets])
    # a batch of runs in one call: the runs' draws in turn
    batch = rng_mod._drawn_amplitudes(scene, np.random.default_rng(8), (3,))
    gen = np.random.default_rng(8)
    assert np.array_equal(batch, [rng_mod._drawn_amplitudes(scene, gen) for _ in range(3)])


def test_run_once_rows_equal_scalar_calls():
    scene = _scenario(
        n=16, l=4, targets=[rng_mod.Target(3, 1.0), rng_mod.Target(40, 0.1j)], m=3
    )
    variances = [0.0, 1e-3, 0.5, 7.0]
    rows = rng_mod.run_once(scene, np.random.default_rng(4), variances)
    assert rows.shape == (len(variances), scene.grid)
    for row, var in zip(rows, variances):
        single = rng_mod.run_once(scene, np.random.default_rng(4), var)
        assert single.shape == (scene.grid,)
        assert np.array_equal(row, single)


def _with_phases(scenario, rng):
    """Redraw every target phase uniformly, keeping magnitudes, one target at a time."""
    targets = tuple(
        replace(t, amplitude=abs(t.amplitude) * np.exp(2j * np.pi * rng.random()))
        for t in scenario.targets
    )
    return replace(scenario, targets=targets)


def _run_streams(seed, runs):
    """(phases, symbols, noise) generators for runs 0..runs-1, one run at a time.

    Block b of 64 runs owns stream(seed, tag, b) for each of the three
    tags, and its runs take each stream in run order; the tuple yielded
    for a run is its block's, advanced by the runs before it.
    """
    for run in range(runs):
        if run % 64 == 0:
            streams = tuple(mc.stream(seed, tag, run // 64) for tag in mc._TAG_RUNS)
        yield streams


def _per_snr_reference(scene, truth, snr_grid, runs, seed):
    """rmse_sweep as one fresh draw per (SNR, run), the loop it replaced.

    Each run is scored by _one_fft_profiles, which draws all m slots in one
    sample_symbols call, or their class counts in its own multinomial draw,
    so it shares no chunked or batched slot draw with rmse_sweep; the run
    draws its phases, symbols and noise from its block's streams
    (_run_streams), one target at a time.  The squared errors are summed
    one run after another (cumsum), the order rmse_sweep's running sums
    take.
    """
    bw, l = scene.bandwidth_hz, scene.pulse.l
    rows = []
    for snr_db in snr_grid:
        noise_var = 1.0 / (l * 10.0 ** (snr_db / 10.0))
        errors, hits = np.empty(runs), np.zeros(runs, dtype=bool)
        for run, (phases, symbols, noise) in enumerate(_run_streams(seed, runs)):
            drawn = _with_phases(scene, phases)
            profile = _one_fft_profiles(drawn, symbols, [noise_var], noise)[0]
            est_m = _estimate_range(profile, drawn.roi, bw, l)
            errors[run] = est_m - truth
            hits[run] = _detection_success(est_m, truth, bw, l)
        rows.append({
            "snr_db": float(snr_db),
            "rmse_m": float(np.sqrt(np.cumsum(errors**2)[-1] / runs)),
            "rmse_hits_m": float(np.sqrt(np.cumsum(errors[hits] ** 2)[-1] / hits.sum())),
            "success_rate": float(np.mean(hits)),
        })
    return rows


def _sweep_scene(l=2):
    # a weak target beside a strong one: low SNR misses some runs, high SNR hits all
    targets = [rng_mod.Target(4, 1.0), rng_mod.Target(20, 0.5)]
    scene = _scenario(n=16, l=l, targets=targets, roi=(12, 28), m=2)
    return scene, rng_mod.range_for_lag(20, scene.bandwidth_hz, l)


# at l = 2 the pulse's band is the whole grid; l = 3 leaves a block of bins empty
@pytest.mark.parametrize("block, l", [(None, 2), (2, 2), (None, 3)], ids=["None", "2", "l3"])
def test_rmse_sweep_equals_per_snr_draws(monkeypatch, block, l):
    if block is not None:
        monkeypatch.setattr(rng_mod, "_SNR_BLOCK", block)
    scene, truth = _sweep_scene(l)
    grid = [-10.0, 0.0, 30.0]
    rows = rng_mod.rmse_sweep(scene, truth, grid, runs=8, seed=3)
    assert rows == _per_snr_reference(scene, truth, grid, runs=8, seed=3)
    assert 0.0 < rows[0]["success_rate"] < 1.0
    assert rows[-1]["success_rate"] == 1.0


def _counted_streams(monkeypatch):
    """Record the (tag, index) of every stream the sweep builds."""
    calls = []
    original = rng_mod.stream

    def counted(seed, tag, index):
        calls.append((tag, index))
        return original(seed, tag, index)

    monkeypatch.setattr(rng_mod, "stream", counted)
    return calls


def _block_streams(blocks):
    """The streams a sweep builds for its run blocks: three per block, in draw-kind order."""
    return [(tag, b) for b in range(blocks) for tag in mc._TAG_RUNS]


def test_rmse_sweep_draws_once_per_run_and_block(monkeypatch):
    # three streams per block of 64 runs and per SNR block, each built once
    calls = _counted_streams(monkeypatch)
    scene, truth = _sweep_scene()
    rng_mod.rmse_sweep(scene, truth, [0.0, 10.0, 20.0], runs=4, seed=0)
    assert calls == _block_streams(1)
    calls.clear()
    rng_mod.rmse_sweep(scene, truth, [0.0, 10.0, 20.0], runs=130, seed=0)
    assert calls == _block_streams(3)
    calls.clear()
    monkeypatch.setattr(rng_mod, "_SNR_BLOCK", 2)
    rng_mod.rmse_sweep(scene, truth, [0.0, 10.0, 20.0], runs=4, seed=0)
    assert calls == _block_streams(1) * 2


@pytest.mark.parametrize("case", ["one-run-batch", "ragged-batch", "slot-chunks", "class-counts",
                                  "targets"])
def test_rmse_sweep_batches_equal_per_snr_draws(monkeypatch, case):
    scene, truth = _sweep_scene()
    runs, grid = 8, [-10.0, 0.0, 30.0]
    if case == "one-run-batch":
        monkeypatch.setattr(rng_mod, "_BATCH_BYTES", 1)
    elif case == "ragged-batch":
        monkeypatch.setattr(rng_mod, "_batch_runs", lambda scenario, scored: 3)
    elif case == "slot-chunks":  # on SC, where every m draws its slots
        monkeypatch.setattr(mc, "_SLOT_CHUNK", 2)
        scene = replace(scene, basis=mod.make_basis("sc", 16), m=5)
    elif case == "class-counts":  # qam16 on OFDM: 5 slots, 3 power classes
        monkeypatch.setattr(mc, "_SLOT_CHUNK", 2)
        scene = replace(scene, m=5)
    else:
        targets = [rng_mod.Target(4, 1.0), rng_mod.Target(20, 0.5),
                   rng_mod.Target(9, 0.3j), rng_mod.Target(26, 0.2)]
        scene = replace(scene, targets=tuple(targets))
    rows = rng_mod.rmse_sweep(scene, truth, grid, runs=runs, seed=5)
    assert rows == _per_snr_reference(scene, truth, grid, runs=runs, seed=5)
    assert 0.0 < rows[0]["success_rate"] < 1.0


@pytest.mark.parametrize("draw", ["slots", "class-counts"])
def test_sweep_rows_do_not_depend_on_batches_or_blocks(monkeypatch, draw):
    # 130 runs: two full blocks of 64 and a part block, each with its own streams
    scene, truth = _sweep_scene()
    m = 2 if draw == "slots" else 5  # qam16 on OFDM: 5 slots, 3 power classes
    scenarios = _methods(scene, m, "qam16", [scene.basis])
    if draw == "slots":
        scenarios += _methods(scene, m, "qam16", [mod.make_basis("sc", 16)])
    assert len(rng_mod._draw_groups(scenarios)) == 1
    grid, runs = [-10.0, 0.0, 30.0], 130
    default = rng_mod.rmse_sweeps(scenarios, truth, grid, runs=runs, seed=9)
    assert default[0] == _per_snr_reference(scenarios[0], truth, grid, runs=runs, seed=9)
    assert default == [rng_mod.rmse_sweep(s, truth, grid, runs=runs, seed=9) for s in scenarios]
    assert rng_mod._batch_runs(scenarios, len(grid) * 17) not in (1, 3)
    for batch in (1, 3):  # 3 leaves a batch of one run at the end of each full block
        monkeypatch.setattr(rng_mod, "_batch_runs", lambda group, scored, b=batch: b)
        assert rng_mod.rmse_sweeps(scenarios, truth, grid, runs=runs, seed=9) == default
    monkeypatch.undo()
    monkeypatch.setattr(rng_mod, "_SNR_BLOCK", 2)  # the SNR grid crosses a block
    assert rng_mod.rmse_sweeps(scenarios, truth, grid, runs=runs, seed=9) == default


def _class_count_power(scenario, rng):
    """Slot-summed power of m OFDM slots from the class counts of the symbols' |s|^2.

    The classes are the distinct powers of the alphabet, rounded to 12
    digits, each as likely as its share of the points; subcarrier j holds
    n times its count-weighted sum of class powers, tiled by l * G.
    """
    pulse, points = scenario.pulse, scenario.constellation.points
    levels, index = np.unique(np.round(np.abs(points) ** 2, 12), return_inverse=True)
    counts = rng.multinomial(scenario.m, np.bincount(index) / points.size, size=pulse.n)
    power = pulse.n * np.array([sum(c * level for c, level in zip(row, levels))
                                for row in counts])
    return np.tile(power, pulse.l) * (pulse.l * pul.assemble_full_spectrum(pulse))


def _one_fft_profiles(scenario, rng, variances, noise_rng=None):
    """run_once as it was before the noise term was split off: one inverse FFT per variance.

    The m slots are drawn at once, as one sample_symbols call, and their
    power is drawn_power's on a twin of the generator, except on OFDM with
    more slots than the alphabet has power classes, where their power comes
    from one class-count draw (_class_count_power).  The unit
    noise record is the band record run_once draws: 2n real parts, then 2n
    imaginary parts, on bins 0..n-1 and (l-1)*n..l*n-1, zero elsewhere,
    drawn from noise_rng (rng itself by default, after the symbols).  The
    echo is ifft(P * fft(channel)), the full-length oracle of the ACF-row
    read.
    """
    n, m, grid = scenario.pulse.n, scenario.m, scenario.grid
    classes = np.unique(np.round(np.abs(scenario.constellation.points) ** 2, 12)).size
    if scenario.basis.kind == "ofdm" and m > classes:
        power = _class_count_power(scenario, rng)
    else:
        twin = copy.deepcopy(rng)
        con.sample_symbols(scenario.constellation, (m, n), rng)
        shape = (scenario.basis, scenario.pulse)
        power = mc.drawn_power(scenario.constellation, [shape], m, [(twin, 1)])[0][0]
    channel = np.zeros(grid, dtype=complex)
    for t in scenario.targets:
        channel[t.delay] = t.amplitude
    noise_rng = rng if noise_rng is None else noise_rng
    noise = np.zeros(grid, dtype=complex)
    noise[np.r_[0:n, grid - n:grid]] = (noise_rng.standard_normal(2 * n)
                                        + 1j * noise_rng.standard_normal(2 * n))
    scale = np.sqrt(np.asarray(variances)[:, None] * grid * power / 2.0)
    spectrum = power * np.fft.fft(channel) + scale * noise
    return np.abs(np.fft.ifft(spectrum) / m) ** 2


def test_split_noise_matches_one_fft_formula():
    # l = 3 and 5 put the band's two blocks apart on the grid
    for l in (4, 3, 5):
        scene = _scenario(
            n=16, l=l, targets=[rng_mod.Target(3, 1.0), rng_mod.Target(40, 0.1j)], m=3
        )
        variances = [0.0, 0.05, 2.0]
        split = rng_mod.run_once(scene, np.random.default_rng(9), variances)
        oracle = _one_fft_profiles(scene, np.random.default_rng(9), variances)
        # the noiseless row is the echo term alone, read from the ACF row
        for got, want in zip(split, oracle):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())


# l = 2 and 3 on an even grid, and an odd grid (n = 5, l = 3); targets at
# delays 0, grid // 2 and grid - 1 put window lags t - d on both halves of
# the ACF row, on lag grid // 2 and wrapped round the grid
@pytest.mark.parametrize("n, l", [(16, 2), (16, 3), (5, 3)], ids=["l2", "l3", "odd-grid"])
def test_acf_row_echo_matches_full_fft_oracle(n, l):
    grid = n * l
    c, b = con.from_name("qam16"), mod.make_basis("sc", n)
    targets = (rng_mod.Target(0, 0.7 * np.exp(0.3j)), rng_mod.Target(grid // 2, 0.5j),
               rng_mod.Target(grid - 1, 0.4 * np.exp(-2.0j)))
    scene = rng_mod.RangingScenario(c, b, pul.rrc_spectrum(n, l, 0.5), targets,
                                    (0, grid - 1), m=3)
    variances = [0.0, 0.2]
    whole = rng_mod.run_once(scene, np.random.default_rng(21), variances)
    oracle = _one_fft_profiles(scene, np.random.default_rng(21), variances)
    for got, want in zip(whole, oracle):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())
    # a window at the end of the grid, as a sweep scores its roi
    window = (grid // 2, grid - 1)
    gen = np.random.default_rng(21)
    (power,), noise = rng_mod._drawn([scene], gen, gen, 1)
    amplitudes = np.array([[t.amplitude for t in targets]])
    part = rng_mod._profiles(scene, power, noise, amplitudes, np.array(variances), window,
                             rng_mod._workspace(scene, 3, window))[0]
    for got, want in zip(part, oracle[:, window[0]:]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())


@pytest.mark.parametrize("l", [2, 3, 10])
def test_run_once_draws_symbols_then_4n_normals(l):
    n, m = 16, 3
    scene = _scenario(n=n, l=l, targets=[rng_mod.Target(5, 1.0)], m=m)
    rng = np.random.default_rng(11)
    rng_mod.run_once(scene, rng, [0.0, 0.5])
    fresh = np.random.default_rng(11)
    con.sample_symbols(scene.constellation, (m, n), fresh)
    fresh.standard_normal(4 * n)
    assert np.array_equal(rng.random(8), fresh.random(8))


def _designed(n, l):
    """An isl-designed pulse at a small window, the other pulse family of the paper."""
    spec = shaping.ShapingSpec(n, l, 0.5, shaping.sidelobe_lags(n, l, 1, 3), "isl")
    return shaping.design_pulse(spec).pulse


def _methods(scene, m, const, bases):
    """One scenario per (basis, pulse) of the scene, at m slots of const."""
    pulses = (scene.pulse, _designed(scene.pulse.n, scene.pulse.l))
    return [replace(scene, constellation=con.from_name(const), basis=basis, pulse=pulse, m=m)
            for basis in bases for pulse in pulses]


@pytest.mark.parametrize("setting", ["one-run-batch", "ragged-batch", "snr-block"])
@pytest.mark.parametrize("draw", ["slot-chunks", "class-counts"])
def test_rmse_sweeps_rows_equal_one_scenario_sweeps(monkeypatch, draw, setting):
    scene, truth = _sweep_scene()
    n = scene.pulse.n
    cdma = mod.make_basis("cdma", n)
    if draw == "slot-chunks":  # qam16 at its class count keeps the slot draw on OFDM
        monkeypatch.setattr(mc, "_SLOT_CHUNK", 2)
        scenarios = _methods(scene, 3, "qam16", [mod.make_basis("sc", n), scene.basis, cdma])
    else:  # OFDM class counts beside an SC group of the same m, in one call
        scenarios = (_methods(scene, 5, "qam16", [scene.basis])
                     + _methods(scene, 5, "qam16", [mod.make_basis("sc", n)]))
    scenarios.append(replace(scenarios[0], basis=cdma, bandwidth_hz=201e6))
    if setting == "one-run-batch":
        monkeypatch.setattr(rng_mod, "_BATCH_BYTES", 1)
    elif setting == "ragged-batch":
        monkeypatch.setattr(rng_mod, "_batch_runs", lambda group, scored: 3)
    else:
        monkeypatch.setattr(rng_mod, "_SNR_BLOCK", 2)
    grid = [-10.0, 0.0, 30.0]
    rows = rng_mod.rmse_sweeps(scenarios, truth, grid, runs=8, seed=5)
    assert rows == [rng_mod.rmse_sweep(s, truth, grid, runs=8, seed=5) for s in scenarios]
    assert len({str(r) for r in rows}) > 1  # the methods do score differently


def test_rmse_sweeps_draw_once_per_run_and_block_per_group(monkeypatch):
    calls = _counted_streams(monkeypatch)
    scene, truth = _sweep_scene()
    group = _methods(scene, 2, "qam16", [mod.make_basis("sc", 16), scene.basis])
    rng_mod.rmse_sweeps(group, truth, [0.0, 10.0, 20.0], runs=4, seed=0)
    assert calls == _block_streams(1)
    calls.clear()
    monkeypatch.setattr(rng_mod, "_SNR_BLOCK", 2)
    two = group + [replace(s, m=1) for s in group]
    rng_mod.rmse_sweeps(two, truth, [0.0, 10.0, 20.0], runs=4, seed=0)
    assert calls == _block_streams(1) * 4  # two groups of two SNR blocks each


def test_draw_groups_split_on_m_constellation_scene_and_draw_path():
    scene, _ = _sweep_scene()
    sc, ofdm, cdma = (mod.make_basis(kind, 16) for kind in ("sc", "ofdm", "cdma"))
    qam, psk = con.from_name("qam16"), con.from_name("psk16")
    other = pul.rrc_spectrum(16, 2, 0.9)
    scenarios = [
        replace(scene, basis=sc, constellation=qam, m=1),                 # 0
        replace(scene, basis=ofdm, constellation=qam, m=1, pulse=other),  # 0: bases and pulses
        replace(scene, basis=sc, constellation=psk, m=1),                 # 2: constellation
        replace(scene, basis=sc, constellation=qam, m=2),                 # 3: m
        replace(scene, basis=cdma, constellation=qam, m=1000),            # 4: slot draw
        replace(scene, basis=ofdm, constellation=qam, m=1000),            # 5: class counts
        replace(scene, basis=ofdm, constellation=qam, m=1000, pulse=other),  # 5
        replace(scene, basis=sc, constellation=qam, m=1, roi=(12, 27)),   # 7: roi
        replace(scene, basis=sc, constellation=qam, m=1,
                targets=(scene.targets[0], rng_mod.Target(21, 0.5))),    # 8: delays
        replace(scene, basis=sc, constellation=qam, m=1,
                targets=(scene.targets[0], rng_mod.Target(20, 0.5j))),   # 0: phase only
        replace(scene, basis=sc, constellation=qam, m=1, bandwidth_hz=1e6),  # 0: bandwidth
    ]
    assert rng_mod._draw_groups(scenarios) == [[0, 1, 9, 10], [2], [3], [4], [5, 6], [7], [8]]


def test_group_sweep_memory_within_one_scenario_sweep():
    # four SC methods at a full slot chunk: the group's draw is taken once
    # and its scenarios are scored one at a time, so the group peaks no
    # higher than its costliest one-method sweep plus one method's profiles
    n, l, m = 128, 10, 512
    c, b = con.from_name("psk16"), mod.make_basis("sc", n)
    targets = (rng_mod.Target(267, 1.0), rng_mod.Target(400, 0.01))
    group = [rng_mod.RangingScenario(c, b, pul.rrc_spectrum(n, l, alpha), targets, (317, 417),
                                     m=m) for alpha in (0.2, 0.35, 0.5, 0.9)]
    truth, grid = rng_mod.range_for_lag(400, 200e6, l), [15.0, 20.0, 25.0, 30.0, 35.0]
    scored = len(grid) * (417 - 317 + 1)
    batch = rng_mod._batch_runs(group[:1], scored)
    assert batch == rng_mod._batch_runs(group, scored) == 1  # one run's draw passes 1 MiB

    # an untraced sweep first builds what outlives it: each pulse's l * G tile, the FFT plans
    rng_mod.rmse_sweeps(group, truth, grid, runs=1, seed=0)

    def peak(scenarios):
        tracemalloc.start()
        try:
            rng_mod.rmse_sweeps(scenarios, truth, grid, runs=2, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single = max(peak([s]) for s in group)
    assert peak(group) <= single + 16 * batch * scored


def test_sweep_memory_does_not_grow_with_runs():
    # 768 runs' peak lags over 8 SNR points would be 48 KiB of int64;
    # the running sums of squared error, hits and hit error are one batch
    scene, truth = _sweep_scene()
    grid = list(np.linspace(-10.0, 30.0, 8))
    batch = rng_mod._batch_runs([scene], len(grid) * (scene.roi[1] - scene.roi[0] + 1))
    assert batch < 100

    def peak(runs):
        tracemalloc.start()
        try:
            rng_mod.rmse_sweep(scene, truth, grid, runs=runs, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 256 runs take three full batches and a fourth; the first traced sweep
    # of several batches fills caches that later ones reuse
    peak(256)
    grown = peak(768) - peak(256)
    assert grown < 8 * len(grid) * 256, f"{grown} bytes"
