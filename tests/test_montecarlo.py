import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from acfshape import acfstats as st
from acfshape import constellation as con
from acfshape import modulation as mod
from acfshape import montecarlo as mc
from acfshape import pulse as pul
from helpers import edge_lags, modulate, slot_power, spectrum_to_time


def _twin_draw(spec, basis, pulse, m, count, seed):
    """drawn_power of count draws of m slots from stream(seed, 0, 0), and those symbols redrawn."""
    power = mc.drawn_power(spec, [(basis, pulse)], m, mc.stream(seed, 0, 0), count)[0]
    return power, con.sample_symbols(spec, (count, m, basis.n), mc.stream(seed, 0, 0))


def _slot_arithmetic(pulse, basis, slots):
    """drawn_power's arithmetic on given slots (draws, m, n), op for op: sum |X|^2, times l G."""
    if basis.kind == "ofdm":
        power = basis.n * np.sum(np.abs(slots) ** 2, axis=-2)
    else:
        power = np.sum(np.abs(np.fft.fft(slots, axis=-1)) ** 2, axis=-2)
    return (power[:, None, :] * pulse.gain_tile).reshape(len(power), -1)


def _stream_draws(spec, shapes, m, seed, streams):
    """One draw per generator stream(seed, 0, r), r < streams, concatenated per pair of shapes."""
    runs = [mc.drawn_power(spec, shapes, m, mc.stream(seed, 0, r), 1) for r in range(streams)]
    return [np.concatenate(p) for p in zip(*runs)]


def test_slot_power_matches_dense_circulant():
    rng = np.random.default_rng(21)
    n, l, m = 8, 3, 3
    basis = mod.random_unitary(n, rng)
    pulse = pul.rrc_spectrum(n, l, 0.5)
    power, (s,) = _twin_draw(con.qam(16), basis, pulse, m, 1, 21)
    up = np.zeros((m, l * n), dtype=complex)
    up[:, ::l] = modulate(basis, s)
    taps = spectrum_to_time(pulse)
    circulant = np.array([np.roll(taps, k) for k in range(l * n)]).T
    xt = up @ circulant.T  # row s is circulant @ up[s]
    expect = np.sum(np.abs(np.fft.fft(xt, axis=-1)) ** 2, axis=0)
    np.testing.assert_allclose(power[0], expect, atol=1e-10)


def test_slot_power_energy_by_parseval():
    n, l = 16, 4
    basis = mod.make_basis("ofdm", n)
    pulse = pul.rrc_spectrum(n, l, 0.35)
    # three slots of qam16, its class count, keep the slot draw on OFDM
    power, s = _twin_draw(con.qam(16), basis, pulse, 3, 2, 22)
    assert power.shape == (2, l * n)
    # the pulse is unit-energy and Nyquist, so each shaped block keeps
    # ||s||^2, and Parseval puts l*n times that into the spectrum
    np.testing.assert_allclose(
        power.sum(axis=-1) / (l * n),
        np.sum(np.abs(s) ** 2, axis=(-2, -1)),
        rtol=1e-10,
    )


def _basis(kind, n, rng):
    return mod.random_unitary(n, rng) if kind == "haar" else mod.make_basis(kind, n)


@pytest.mark.parametrize("kind, n, l", [
    ("sc", 8, 4), ("ofdm", 8, 4), ("cdma", 8, 4), ("haar", 8, 4),
    ("sc", 7, 3), ("ofdm", 7, 3), ("haar", 7, 3),
])
def test_slot_power_matches_modulate_oracle(kind, n, l):
    basis = _basis(kind, n, np.random.default_rng(31))
    pulse = pul.rrc_spectrum(n, l, 0.5)
    got, s = _twin_draw(con.qam(16), basis, pulse, 3, 2, 31)
    expect = slot_power(pulse, basis, s)
    assert got.shape == expect.shape == (2, l * n)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * expect.max())


def _full_ifft_trials(config, lags):
    """Oracle for run_trials: every trial's full-length ifft, then its lags.

    Block b of _SE_BLOCK trials draws from its own generator, its trials
    taking their m slots from it one after another, in trial order.
    """
    pulse, t, block = config.pulse, config.trials, mc._SE_BLOCK
    rows = []
    for trial in range(t):
        if trial % block == 0:
            seq = np.random.SeedSequence((config.seed, mc._TAG_SYMBOLS, trial // block))
            rng = np.random.default_rng(seq)
        s = con.sample_symbols(config.constellation, (config.m, pulse.n), rng)
        power = slot_power(pulse, config.basis, s) / config.m
        rows.append(np.fft.ifft(power)[lags])
    rows = np.array(rows)
    sq = np.abs(rows) ** 2
    mean_sq = sq.mean(axis=0)
    se = np.sqrt(np.sum((sq - mean_sq) ** 2, axis=0) / (t * (t - 1)))
    mean = rows.mean(axis=0)
    return mean_sq, se, mean, mean_sq - np.abs(mean) ** 2


@pytest.mark.parametrize("kind, n, l, chunk", [
    pytest.param("cdma", 8, 2, None, id="cdma-8-2"),
    pytest.param("haar", 7, 3, None, id="haar-7-3"),
    pytest.param("ofdm", 7, 3, None, id="ofdm-7-3"),
    # m = 5 in slot chunks of 2, 2 and 1; the oracle draws all 5 slots at once
    pytest.param("sc", 6, 3, 2, id="sc-6-3-slot-chunks"),
])
def test_run_trials_half_spectrum_matches_full_ifft_oracle(monkeypatch, kind, n, l, chunk):
    m = 3
    if chunk is not None:
        monkeypatch.setattr(mc, "_SLOT_CHUNK", chunk)
        m = 5
    basis = _basis(kind, n, np.random.default_rng(32))
    lags = edge_lags(l * n)
    cfg = _base_config(basis=basis, pulse=pul.rrc_spectrum(n, l, 0.5), trials=30, m=m)
    res = mc.run_trials(cfg)
    np.testing.assert_array_equal(res.lags, np.arange(l * n))
    mean_sq, se, mean, var = _full_ifft_trials(cfg, lags)
    peak = float(n) ** 2
    np.testing.assert_allclose(res.mean_sq[lags], mean_sq, rtol=0, atol=1e-12 * peak)
    np.testing.assert_allclose(res.se[lags], se, rtol=0, atol=1e-12 * peak)
    np.testing.assert_allclose(res.var[lags], var, rtol=0, atol=1e-12 * peak)
    np.testing.assert_allclose(res.mean[lags], mean, rtol=0, atol=1e-12 * n)


def _base_config(**overrides):
    n, l = 8, 2
    fields = dict(
        constellation=con.qam(16),
        basis=mod.make_basis("sc", n),
        pulse=pul.rrc_spectrum(n, l, 0.5),
        trials=400,
        seed=123,
        m=2,
    )
    fields.update(overrides)
    return mc.TrialConfig(**fields)


def test_run_trials_deterministic_and_chunk_invariant(monkeypatch):
    first = mc.run_trials(_base_config())
    monkeypatch.setattr(mc, "_BATCH_BYTES", 1)  # one trial per batch
    second = mc.run_trials(_base_config())
    monkeypatch.undo()
    third = mc.run_trials(_base_config())
    np.testing.assert_array_equal(first.mean_sq, second.mean_sq)
    np.testing.assert_array_equal(first.mean_sq, third.mean_sq)
    np.testing.assert_array_equal(first.mean, second.mean)
    np.testing.assert_array_equal(first.se, second.se)


@settings(max_examples=40, deadline=None)
@given(hst.integers(1, 5), hst.integers(1, 4), hst.integers(1, 9),
       hst.sampled_from([3, 4, 16, 1024, 65536]), hst.integers(0, 2**32 - 1))
def test_one_draw_call_over_c_equals_c_calls_in_turn(c, m, n, size, seed):
    # run_trials draws a batch of c trials in one call; numpy must give the
    # bits of c calls in turn for point indices, class counts and normals
    def twin():
        return mc.stream(seed, mc._TAG_SYMBOLS, 0)

    for spec in (con.psk(size), con.gaussian()):
        one = con.sample_symbols(spec, (c, m, n), twin())
        rng = twin()
        turn = np.array([con.sample_symbols(spec, (m, n), rng) for _ in range(c)])
        assert np.array_equal(one, turn)
        out = np.empty((c, m, n), dtype=complex)
        assert con.sample_symbols(spec, (c, m, n), twin(), out=out) is out
        assert np.array_equal(out, one)
    probs = con.qam(16).power_classes[1]
    rng = twin()
    turn = np.array([rng.multinomial(m, probs, size=n) for _ in range(c)])
    assert np.array_equal(twin().multinomial(m, probs, size=(c, n)), turn)
    # Gaussian symbols are interleaved (re, im) normals times sqrt(1/2)
    normals = twin().standard_normal((c, m, n, 2)) * np.sqrt(0.5)
    z = con.sample_symbols(con.gaussian(), (c, m, n), twin())
    assert np.array_equal(z.real, normals[..., 0]) and np.array_equal(z.imag, normals[..., 1])


@pytest.mark.parametrize("spec, kind, m, chunk", [
    (con.qam(16), "sc", 2, None),
    (con.qam(16), "ofdm", 5, 2),
    (con.gaussian(), "ofdm", 3, None),
    (con.qam(16), "sc", 5, 2),
    (con.gaussian(), "ofdm", 5, 2),
    (con.qam(16), "cdma", 5, None),
], ids=["slots", "class-counts", "gaussian", "slot-chunks", "gaussian-slot-chunks", "cdma"])
def test_run_trials_same_bits_at_any_batch(monkeypatch, spec, kind, m, chunk):
    # 150 trials: two full blocks of 64 and a part block, each from its own stream; "cdma"
    # draws its spectra by dense matrix products, of one trial's slots at batch 1
    if chunk is not None:
        monkeypatch.setattr(mc, "_SLOT_CHUNK", chunk)
    cfg = _base_config(constellation=spec, basis=mod.make_basis(kind, 8), trials=150, m=m)
    assert mc._batch_trials(cfg) > 1
    default = mc.run_trials(cfg)
    monkeypatch.setattr(mc, "_BATCH_BYTES", 1)  # one trial per batch
    assert mc._batch_trials(cfg) == 1
    single = mc.run_trials(cfg)
    for field in ("mean_sq", "se", "mean", "var"):
        np.testing.assert_array_equal(getattr(default, field), getattr(single, field))
    # one call of two draws, of several chunks each on "slot-chunks", is two calls in turn
    shape = [(cfg.basis, cfg.pulse)]
    both = mc.drawn_power(spec, shape, m, mc.stream(0, 0, 0), 2)[0]
    rng = mc.stream(0, 0, 0)
    turn = np.concatenate([mc.drawn_power(spec, shape, m, rng, 1)[0] for _ in range(2)])
    assert np.array_equal(both, turn)
    if chunk is None:
        return
    # chunks shape memory only: a chunk's |X|^2 rows follow the sum so far, so slot chunks
    # of 2, 2 and 1 give the bits of one chunk of m.  Dense maps are left out: there a
    # one-slot chunk is a BLAS matrix-vector product, whose last bit may differ from the
    # same row's in a larger product.
    monkeypatch.undo()  # _SLOT_CHUNK at 512, above m
    whole = mc.run_trials(cfg)
    for field in ("mean_sq", "se", "mean", "var"):
        np.testing.assert_array_equal(getattr(whole, field), getattr(default, field))


@pytest.mark.parametrize("kind, m, chunk, trials", [
    ("sc", 3, None, 4096), ("ofdm", 5, None, 4096), ("sc", 5, 2, 1024),
], ids=["sc-m3", "ofdm-class-counts", "sc-slot-chunks"])
def test_run_trials_memory_does_not_grow_with_trials(monkeypatch, kind, m, chunk, trials):
    # 4,096 trials' ACF rows alone are 2.2 MB, 1,024 trials' 0.5 MB; one batch
    # of 64 trials' slot draws (one chunk each), power spectra and rows is
    # well under the bound below.  Trials of several chunks are drawn one at
    # a time, which tracemalloc slows most, hence their smaller count.
    n, l = 16, 4
    if chunk is not None:  # trials of several chunks share batches too
        monkeypatch.setattr(mc, "_SLOT_CHUNK", chunk)

    def peak(trials):
        cfg = _base_config(basis=mod.make_basis(kind, n), pulse=pul.rrc_spectrum(n, l, 0.5),
                           trials=trials, m=m)
        tracemalloc.start()
        try:
            mc.run_trials(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # fills lazy caches
    grown = peak(trials) - peak(64)
    assert grown < 64 * 16 * (3 * min(m, mc._SLOT_CHUNK) * n + 4 * l * n), f"{grown} bytes"


def test_run_trials_workspace_is_one_draw_of_several_chunks():
    # acf-mc --basis sc --n 8 --l 2 --m 1100: each trial takes three slot
    # chunks in a draw of its own, so the workspace holds one draw, and a
    # trial costs only its power sum and ACF row: all 18 trials are one batch.
    # One draw's symbols are S = 512 * 8 * 16 B = 64 KiB, and its spectrum,
    # |X|^2 and point indices 2 S more (_draw_layout), so the peak stays
    # under 4 S; a symbol workspace for the batch's 18 draws would alone be 18 S.
    n, l, m = 8, 2, 1100
    cfg = _base_config(basis=mod.make_basis("sc", n), pulse=pul.rrc_spectrum(n, l, 0.5),
                       trials=18, m=m)
    assert mc._batch_trials(cfg) == mc._SE_BLOCK
    mc.run_trials(cfg)  # fills lazy caches
    tracemalloc.start()
    try:
        mc.run_trials(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 16 * mc._SLOT_CHUNK * n, f"{peak} bytes"


@pytest.mark.parametrize("spec, kind, m, chunk, trials", [
    (con.qam(16), "sc", 1, None, 20000),
    (con.qam(16), "ofdm", 5, None, 20000),
    (con.psk(16), "cdma", 1, None, 20000),
    (con.gaussian(), "ofdm", 2, None, 20000),
    (con.qam(16), "sc", 5, 2, 2000),
    (con.qam(16), "sc", 600, None, 2000),  # chunks of 512 and 88 slots
], ids=["sc-qam16", "ofdm-qam16-class-counts", "cdma-psk16", "ofdm-gaussian",
        "sc-qam16-slot-chunks", "sc-qam16-m600"])
def test_run_trials_agrees_with_closed_form(monkeypatch, spec, kind, m, chunk, trials):
    # Each lag's deviation from the closed form is gated at 5 standard errors,
    # fixed before any case was run: at most a 5.7e-7 two-sided normal tail per
    # lag, so under 1.1e-5 per case over the 9 distinct lags of l n = 16 (lags
    # k and l n - k share |r|) for mean_sq and mean together, 6.2e-5 over the
    # six cases.  Where se is 0 nothing is random and only round-off remains:
    # at most trials * eps * n^2 in sums of terms up to n^2.
    if chunk is not None:
        monkeypatch.setattr(mc, "_SLOT_CHUNK", chunk)
    cfg = _base_config(constellation=spec, basis=mod.make_basis(kind, 8), trials=trials, m=m)
    res = mc.run_trials(cfg)
    theory = st.expected_sq_acf(cfg.pulse, cfg.basis, con.kurtosis(spec), m=m)
    roundoff = trials * np.finfo(float).eps * cfg.pulse.n ** 2
    assert np.all(np.abs(res.mean_sq - theory.total) <= 5.0 * res.se + roundoff)
    mean_se = np.sqrt(np.maximum(res.var, 0.0) / trials)
    assert np.all(np.abs(res.mean - st.mean_acf(cfg.pulse)) <= 5.0 * mean_se + roundoff)


def test_block_averaging_shrinks_variance():
    res1 = mc.run_trials(_base_config(trials=4000, m=1, seed=9))
    res8 = mc.run_trials(_base_config(trials=4000, m=8, seed=9))
    off_peak = np.arange(1, res1.lags.size)
    v1 = res1.var[off_peak].sum()
    v8 = res8.var[off_peak].sum()
    assert v8 < v1 / 4  # expect close to 1/8 with sampling noise


def test_deterministic_acf_for_psk_on_subcarriers():
    n = 16
    cfg = mc.TrialConfig(
        constellation=con.psk(4),
        basis=mod.make_basis("ofdm", n),
        pulse=pul.rrc_spectrum(n, 4, 0.35),
        trials=50,
        seed=5,
    )
    res = mc.run_trials(cfg)
    # constant-modulus symbols on their own subcarriers leave nothing
    # random; what remains is float cancellation at the n^2 scale
    assert np.abs(res.var).max() < 1e-9
    np.testing.assert_allclose(res.mean, st.mean_acf(cfg.pulse), atol=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        _base_config(trials=1)
    with pytest.raises(ValueError):
        _base_config(m=0)
    with pytest.raises(ValueError):
        _base_config(basis=mod.make_basis("sc", 4))


def _subcarrier_power(power, l, n):
    """P_j from a slot-summed spectrum: the l replicas of bin j carry l * G summing to l."""
    return power.reshape(-1, l, n).sum(axis=-2) / l


@pytest.mark.parametrize("spec", [con.qam(16), con.two_ring_mix(2.5), con.psk(16)],
                         ids=["qam16", "rings", "psk16"])
def test_class_count_law_matches_the_slot_draw(spec):
    # P_j = n sum_s |s_sj|^2: mean n m and variance n^2 m (kurt - 1), from
    # 2,000 class-count draws and 2,000 slot draws of m = 20 slots
    n, l, m, draws = 16, 2, 20, 2000
    pulse, basis = pul.rrc_spectrum(n, l, 0.5), mod.make_basis("ofdm", n)
    law = _subcarrier_power(_stream_draws(spec, [(basis, pulse)], m, 7, draws)[0], l, n)
    symbols = con.sample_symbols(spec, (draws, m, n), np.random.default_rng(8))
    slot = n * np.sum(np.abs(symbols) ** 2, axis=-2)
    kurt = con.kurtosis(spec)
    if kurt == 1.0:  # one class: the constant n m
        np.testing.assert_allclose(law, n * m, rtol=1e-14)
        assert np.ptp(law) == 0.0
        return
    sd = n * np.sqrt(m * (kurt - 1.0))
    for power in (law, slot):
        assert abs(power.mean() - n * m) < 5 * sd / np.sqrt(power.size)
        assert power.var() == pytest.approx(sd**2, rel=0.05)
    assert law.var() == pytest.approx(slot.var(), rel=0.07)
    if spec.name.startswith("rings"):  # two classes: the inner count is binomial
        (inner, outer), (p, _) = spec.power_classes
        counts = np.rint((m * outer - law / n) / (outer - inner))
        assert abs(counts.mean() - m * p) < 5 * np.sqrt(m * p * (1 - p) / counts.size)
        assert counts.var() == pytest.approx(m * p * (1 - p), rel=0.05)
        slot_counts = np.sum(np.abs(symbols) ** 2 < (inner + outer) / 2, axis=-2)
        assert abs(slot_counts.mean() - counts.mean()) < 0.05


@pytest.mark.parametrize("spec, m", [(con.qam(16), 3), (con.psk(16), 1), (con.gaussian(), 50)],
                         ids=["qam16-m3", "psk16-m1", "gaussian-m50"])
def test_slot_stream_stands_up_to_the_class_count(spec, m):
    # m at the class count (qam16, PSK) and Gaussian symbols keep the slot draw
    n, l = 8, 3
    pulse, basis = pul.rrc_spectrum(n, l, 0.5), mod.make_basis("ofdm", n)
    got, slots = _twin_draw(spec, basis, pulse, m, 1, 3)
    np.testing.assert_array_equal(got, _slot_arithmetic(pulse, basis, slots))
    expect = slot_power(pulse, basis, slots)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * expect.max())


def test_class_counts_above_the_class_count():
    # one multinomial draw per generator, in stream order, weighted by a sum
    n, l, m = 8, 3, 4
    spec, pulse, basis = con.qam(16), pul.rrc_spectrum(n, l, 0.5), mod.make_basis("ofdm", n)
    got = _stream_draws(spec, [(basis, pulse)], m, 3, 3)[0]
    levels, probs = spec.power_classes
    counts = [mc.stream(3, 0, r).multinomial(m, probs, size=n) for r in range(3)]
    power = n * np.sum(np.array(counts) * levels, axis=-1)
    np.testing.assert_array_equal(got, np.tile(power, l) * (l * pul.assemble_full_spectrum(pulse)))
    sc = mod.make_basis("sc", n)  # every other basis keeps the slot draw
    got, slots = _twin_draw(spec, sc, pulse, m, 1, 3)
    np.testing.assert_array_equal(got, _slot_arithmetic(pulse, sc, slots))
    expect = slot_power(pulse, sc, slots)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * expect.max())


@pytest.mark.parametrize("spec, m", [(con.qam(16), 5), (con.qam(16), 3)],
                         ids=["class-counts", "slot-chunks"])
def test_drawn_power_serves_every_pair_from_one_draw(monkeypatch, spec, m):
    # entry k equals the pair's own draw from fresh generators, chunk by chunk
    monkeypatch.setattr(mc, "_SLOT_CHUNK", 2)
    n, l = 8, 3
    ofdm, sc = mod.make_basis("ofdm", n), mod.make_basis("sc", n)
    pulses = [pul.rrc_spectrum(n, l, 0.5), pul.rrc_spectrum(n, l, 0.9)]
    bases = [ofdm] if m == 5 else [ofdm, sc, mod.make_basis("cdma", n)]
    shapes = [(basis, pulse) for basis in bases for pulse in pulses]
    got = _stream_draws(spec, shapes, m, 3, 3)
    assert len(got) == len(shapes)
    for power, shape in zip(got, shapes):
        alone = _stream_draws(spec, [shape], m, 3, 3)[0]
        assert np.array_equal(power, alone)
    with pytest.raises(ValueError, match="draw path"):
        mc.drawn_power(spec, [(ofdm, pulses[0]), (sc, pulses[0])], 5, mc.stream(3, 0, 0), 1)
