import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from acfshape import acfstats, tableio
from acfshape import pulse as pul
from helpers import spectrum_to_time


@pytest.mark.parametrize(
    "n, alpha, expect",
    [
        (64, 0.35, 22),
        (64, 0.0, 0),
        (64, 1.0, 64),
        (10, 0.5, 6),  # tie between 4 and 6 rounds up
        (8, 0.25, 2),
        (33, 0.0, 1),  # odd n cannot have an empty transition
        (33, 1.0, 33),
        (5, 0.9, 5),
    ],
)
def test_rolloff_bin_count(n, alpha, expect):
    w = pul.rolloff_bin_count(n, alpha)
    assert w == expect
    assert (w - n) % 2 == 0


def test_rolloff_bin_count_rejects_bad_alpha():
    with pytest.raises(ValueError):
        pul.rolloff_bin_count(8, -0.1)
    with pytest.raises(ValueError):
        pul.rolloff_bin_count(8, 1.2)


@pytest.mark.parametrize("n, l, alpha", [(64, 4, 0.35), (32, 2, 0.5), (33, 3, 0.2), (16, 8, 1.0), (64, 4, 0.0)])
def test_rrc_gain_structure(n, l, alpha):
    p = pul.rrc_spectrum(n, l, alpha)
    g = p.g
    # gains rise monotonically, pair to one, and sum to exactly n/2
    assert np.all(np.diff(g) >= -1e-14)
    np.testing.assert_allclose(g + g[::-1], 1.0, atol=1e-13)
    assert np.sum(g) == pytest.approx(n / 2, abs=1e-10)
    w = pul.rolloff_bin_count(n, alpha)
    flat = (n - w) // 2
    assert np.all(g[:flat] == 0.0)
    assert np.all(g[n - flat:] == 1.0)
    assert p.alpha == pytest.approx(w / n)


def test_full_spectrum_layout():
    p = pul.rrc_spectrum(8, 4, 0.5)
    full = pul.assemble_full_spectrum(p)
    assert full.shape == (32,)
    # gains are read edge-to-carrier: bin 0 gets g[-1], bin 7 gets g[0],
    # and the alias block rises back up toward the top bin
    np.testing.assert_allclose(full[:8], p.g[::-1], atol=1e-15)
    np.testing.assert_allclose(full[24:], 1.0 - p.g[::-1], atol=1e-15)
    assert np.all(full[8:24] == 0.0)
    assert np.sum(full) == pytest.approx(8.0, abs=1e-12)
    # the occupied band hugs the carrier: full power at bin 0, none at the
    # outer edge of the first block
    assert full[0] == 1.0
    assert full[7] == 0.0


def test_gain_tile_is_built_once_and_read_only():
    p = pul.rrc_spectrum(8, 4, 0.5)
    tile = p.gain_tile
    assert tile is p.gain_tile
    np.testing.assert_array_equal(tile, (4 * pul.assemble_full_spectrum(p)).reshape(4, 8))
    with pytest.raises(ValueError):
        tile[0, 0] = 0.0


@pytest.mark.parametrize("n, l, alpha", [(16, 2, 0.3), (16, 5, 0.8), (9, 3, 0.5)])
def test_taps_have_unit_energy(n, l, alpha):
    taps = spectrum_to_time(pul.rrc_spectrum(n, l, alpha))
    assert taps.shape == (l * n,)
    assert np.sum(np.abs(taps) ** 2) == pytest.approx(1.0, abs=1e-12)


def _circular_acf(taps, lags):
    """sum_t p[t + k] p*[t] by shifting the taps, with no FFT involved."""
    return np.array([np.sum(np.roll(taps, -k) * taps.conj()) for k in lags])


def test_pulse_acf_matches_time_domain_correlation():
    rng = np.random.default_rng(6)
    for n, l in [(8, 2), (12, 3), (16, 4)]:
        g = rng.random(n)
        p = pul.NyquistPulse(n, l, g)
        lags = np.arange(l * n)
        direct = _circular_acf(spectrum_to_time(p), lags)
        formula = acfstats.mean_acf(p, lags) / n
        np.testing.assert_allclose(formula, direct, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 16),
    st.integers(2, 6),
    st.integers(0, 2**31 - 1),
)
def test_acf_vanishes_at_block_lags_for_any_gains(n, l, seed):
    # the gain/alias pairing forces zero correlation at nonzero multiples
    # of the oversampling factor, whatever the gains are
    g = np.random.default_rng(seed).random(n)
    p = pul.NyquistPulse(n, l, g)
    lags = np.arange(n) * l
    expect = np.eye(n)[0]
    np.testing.assert_allclose(acfstats.mean_acf(p, lags) / n, expect, atol=1e-12)
    np.testing.assert_allclose(_circular_acf(spectrum_to_time(p), lags), expect, atol=1e-12)


def _rrc_impulse(u, a):
    """Textbook unit-period root-raised-cosine impulse response."""
    u = np.asarray(u, dtype=float)
    if a == 0:
        return np.sinc(u)
    out = np.empty_like(u)
    tiny = 1e-9
    sing = np.abs(np.abs(u) - 1.0 / (4 * a)) < tiny
    zero = np.abs(u) < tiny
    ok = ~(sing | zero)
    uu = u[ok]
    out[ok] = (
        np.sin(np.pi * uu * (1 - a)) + 4 * a * uu * np.cos(np.pi * uu * (1 + a))
    ) / (np.pi * uu * (1 - (4 * a * uu) ** 2))
    out[zero] = 1 - a + 4 * a / np.pi
    out[sing] = (a / np.sqrt(2)) * (
        (1 + 2 / np.pi) * np.sin(np.pi / (4 * a))
        + (1 - 2 / np.pi) * np.cos(np.pi / (4 * a))
    )
    return out


@pytest.mark.parametrize(
    "n, l, alpha", [(64, 4, 0.35), (32, 2, 0.5), (16, 8, 1.0), (33, 3, 0.2), (64, 4, 0.0)]
)
def test_gains_reproduce_closed_form_rrc(n, l, alpha):
    """The half-bin gain samples really are the root-raised-cosine.

    The assembled band sits symmetric around frequency zero up to a
    half-bin shift, so the inverse DFT must equal the alternating-sign
    periodization of the textbook impulse response times a half-bin
    phase ramp.
    """
    p = pul.rrc_spectrum(n, l, alpha)
    taps = spectrum_to_time(p)
    t = np.arange(l * n)
    r = np.arange(-400, 401)
    u = (t[None, :] + r[:, None] * l * n) / l
    acc = ((-1.0) ** np.abs(r))[:, None] * _rrc_impulse(u, p.alpha)
    oracle = np.exp(-1j * np.pi * t / (l * n)) * acc.sum(axis=0) / np.sqrt(l)
    np.testing.assert_allclose(taps, oracle, atol=1e-6)


def test_gain_validation_messages():
    with pytest.raises(ValueError, match=r"g\[2\]"):
        pul.NyquistPulse(4, 2, [0.0, 0.5, 1.5, 1.0])
    with pytest.raises(ValueError, match=r"g\[0\]"):
        pul.NyquistPulse(4, 2, [np.inf, 0.5, 0.5, 1.0])
    with pytest.raises(ValueError, match="shape"):
        pul.NyquistPulse(4, 2, [0.0, 1.0])
    with pytest.raises(ValueError, match="oversampling"):
        pul.NyquistPulse(4, 1, [0.0, 0.5, 0.5, 1.0])
    # values inside the tolerance band are clipped, not rejected
    p = pul.NyquistPulse(4, 2, [0.0, 0.5, 1.0, 1.0 + 1e-12])
    assert p.g.max() == 1.0


def test_from_text_file_roundtrip(tmp_path):
    p = pul.rrc_spectrum(16, 2, 0.4)
    path = tmp_path / "gains.txt"
    np.savetxt(path, p.g)
    loaded = pul.from_text_file(path, 16, 2)
    np.testing.assert_allclose(loaded.g, p.g, atol=1e-12)


@pytest.mark.parametrize("n, alpha", [(64, 0.35), (33, 0.2), (16, 1.0), (64, 0.0), (9, 0.05)])
def test_from_segment_lays_out_the_rrc_gains(tmp_path, n, alpha):
    # the layout written out by hand: zeros, the raised-cosine segment, ones
    width = pul.rolloff_bin_count(n, alpha)
    zeros = (n - width) // 2
    j = np.arange(1, width + 1)
    g = np.zeros(n)
    g[zeros:zeros + width] = 0.5 * (1.0 - np.cos(np.pi * (j - 0.5) / width))
    g[zeros + width:] = 1.0
    rrc = pul.rrc_spectrum(n, 3, alpha)
    assert rrc.g.tobytes() == g.tobytes()
    segment = g[zeros:zeros + width]
    assert pul.from_segment(n, 3, segment).g.tobytes() == g.tobytes()
    if width:  # a gain file holding only the segment is padded to the same gains
        path = tmp_path / "segment.txt"
        tableio.commit([(path, tableio.csv_text(segment))])
        assert pul.from_text_file(path, n, 3).g.tobytes() == g.tobytes()


@pytest.mark.parametrize("size", [3, 10])
def test_from_segment_refuses_a_segment_that_does_not_center(size):
    with pytest.raises(ValueError, match=f"segment of {size} gains does not center in 8 bins"):
        pul.from_segment(8, 2, np.full(size, 0.5))


@settings(max_examples=20, deadline=None)
@given(
    hnp.arrays(
        float,
        st.integers(2, 12),
        elements=st.floats(0.0, 1.0, allow_nan=False),
    ),
    st.integers(2, 5),
)
def test_custom_gains_always_give_unit_energy(g, l):
    p = pul.NyquistPulse(g.size, l, g)
    taps = spectrum_to_time(p)
    assert np.sum(np.abs(taps) ** 2) == pytest.approx(1.0, abs=1e-10)
