import itertools
import tracemalloc

import numpy as np
import pytest

from acfshape import acfstats as st
from acfshape import constellation as con
from acfshape import modulation as mod
from acfshape import pulse as pul
from helpers import dense_spread, edge_lags, slot_power


def enumerated_acf_moments(spec, basis, pulse):
    """Exact ACF mean and second moment by enumerating every symbol block.

    Independent of the closed forms: goes the long way through each block's
    power spectrum and its inverse DFT, weighting each block by its
    probability.  Only tractable for tiny alphabets and block sizes.
    """
    pts, pr = spec.points, spec.probs
    assert pts.size ** pulse.n <= 1_000_000
    combos = np.array(list(itertools.product(range(pts.size), repeat=pulse.n)))
    syms = pts[combos]
    w = np.prod(pr[combos], axis=1)
    acf = np.fft.ifft(slot_power(pulse, basis, syms[:, None, :]), axis=-1)
    mean = np.sum(w[:, None] * acf, axis=0)
    mean_sq = np.sum(w[:, None] * np.abs(acf) ** 2, axis=0)
    return mean, mean_sq


CASES = [
    (con.psk(4), 3, 2, 1),
    (con.psk(4), 3, 3, 2),
    (con.psk(8), 3, 2, 1),
    (con.qam(16), 2, 2, 1),
    (con.qam(16), 2, 3, 3),
    (con.two_ring_mix(2.5), 2, 2, 1),
]


@pytest.mark.parametrize("spec, n, l, m", CASES, ids=lambda c: getattr(c, "name", c))
@pytest.mark.parametrize("kind", ["sc", "ofdm", "haar"])
def test_expected_sq_acf_against_exact_enumeration(spec, n, l, m, kind):
    if kind == "haar":
        basis = mod.random_unitary(n, np.random.default_rng(42))
    else:
        basis = mod.make_basis(kind, n)
    pulse = pul.rrc_spectrum(n, l, 0.6)
    kurt = con.kurtosis(spec)
    mean, mean_sq = enumerated_acf_moments(spec, basis, pulse)
    # single-block second moment, then the m-block average: the mean part
    # stays put while the variance part shrinks by 1/m
    var = mean_sq - np.abs(mean) ** 2
    total = np.abs(mean) ** 2 + var / m
    stats = st.expected_sq_acf(pulse, basis, kurt, m=m)
    np.testing.assert_allclose(stats.total, total, atol=1e-12)
    np.testing.assert_allclose(st.mean_acf(pulse), mean, atol=1e-12)
    np.testing.assert_allclose(stats.squared_mean, np.abs(mean) ** 2, atol=1e-12)


def dense_acf_moments(pulse, basis, kurt, m):
    """The closed form written out with dense in-band phase matrices.

    f_k holds exp(-2j pi k i / (l n)) / sqrt(n) over the n in-band bins,
    gt_k the gain pairs combined at lag k, p + (1 - p) exp(-2j pi k / l),
    and the variance is (||gt_k||^2 + (kurt - 2) n ||Vt (gt_k f_k*)||^2) / m.
    """
    n, l = pulse.n, pulse.l
    lags = np.arange(l * n)
    f = np.exp(-2j * np.pi * np.outer(np.arange(n), lags) / (l * n)) / np.sqrt(n)
    p = pulse.g[::-1, None]
    gt = p + (1.0 - p) * np.exp(-2j * np.pi * lags / l)
    mean = np.sqrt(n) * np.sum(f.conj() * gt, axis=0)
    energy = np.sum(np.abs(gt) ** 2, axis=0)
    basis_term = n * np.sum(np.abs(basis.v_tilde @ (gt * f.conj())) ** 2, axis=0)
    return mean, (energy + (kurt - 2.0) * basis_term) / m


@pytest.mark.parametrize("kurt", [1.0, 1.32, 2.5])
@pytest.mark.parametrize(
    "n, kind",
    [(n, kind) for n in (16, 33, 128) for kind in ("sc", "ofdm", "cdma", "haar")
     if not (kind == "cdma" and n == 33)],
)
def test_expected_sq_acf_matches_dense_formula(n, kind, kurt):
    rng = np.random.default_rng(n)
    if kind == "haar":
        basis = mod.random_unitary(n, rng)
    else:
        basis = mod.make_basis(kind, n)
    pulse = pul.NyquistPulse(n, 3, rng.random(n))
    mean, variance = dense_acf_moments(pulse, basis, kurt, m=3)
    stats = st.expected_sq_acf(pulse, basis, kurt, m=3)
    tol = 1e-12 * n**2
    np.testing.assert_allclose(st.mean_acf(pulse), mean, rtol=0, atol=tol)
    np.testing.assert_allclose(stats.squared_mean, np.abs(mean) ** 2, rtol=0, atol=tol)
    np.testing.assert_allclose(stats.variance, variance, rtol=0, atol=tol)


@pytest.mark.parametrize("kind", ["sc", "ofdm"])
@pytest.mark.parametrize("kurt", [1.0, 1.32, 2.0, 2.5])
@pytest.mark.parametrize("m", [1, 10])
def test_special_cases_match_generic_formula(kind, kurt, m):
    # the paper's corollaries for the two extreme bases, with
    # ||gt_k||^2 = n - 2 (1 - cos(2 pi k / l)) sum g (1 - g)
    n, l = 16, 4
    pulse = pul.rrc_spectrum(n, l, 0.35)
    lags = np.arange(l * n)
    gt_sq = n - 2.0 * (1.0 - np.cos(2 * np.pi * lags / l)) * np.sum(pulse.g * (1.0 - pulse.g))
    mean_sq = np.abs(st.mean_acf(pulse)) ** 2
    if kind == "ofdm":
        variance = (kurt - 1.0) / m * gt_sq
    else:
        variance = (gt_sq + (kurt - 2.0) / n * mean_sq) / m
    generic = st.expected_sq_acf(pulse, mod.make_basis(kind, n), kurt, m=m)
    np.testing.assert_allclose(generic.variance, variance, atol=1e-12)
    np.testing.assert_allclose(generic.squared_mean, mean_sq, atol=1e-12)


@pytest.mark.parametrize("kind, n, l, kurt", [
    ("cdma", 8, 2, 1.32), ("haar", 7, 3, 1.0), ("ofdm", 7, 3, 2.5), ("sc", 6, 3, 1.32),
])
def test_expected_sq_acf_half_spectrum_matches_full_ifft_oracle(kind, n, l, kurt):
    rng = np.random.default_rng(41)
    basis = mod.random_unitary(n, rng) if kind == "haar" else mod.make_basis(kind, n)
    pulse = pul.rrc_spectrum(n, l, 0.5)
    lags = edge_lags(l * n)
    spread = dense_spread(pulse, basis.v_tilde)[lags]
    variance = (dense_spread(pulse, np.eye(n))[lags] + (kurt - 2.0) * spread) / 3
    stats = st.expected_sq_acf(pulse, basis, kurt, m=3, lags=lags)
    np.testing.assert_array_equal(stats.lags, lags)
    np.testing.assert_allclose(stats.variance, variance, rtol=0, atol=1e-12 * n**2)
    np.testing.assert_allclose(stats.squared_mean, np.abs(st.mean_acf(pulse)[lags]) ** 2,
                               rtol=0, atol=1e-12 * n**2)


@pytest.mark.parametrize("l", [2, 3, 10])
@pytest.mark.parametrize("n", [2, 7, 16, 33, 128])
def test_structured_spread_matches_dense_rows(n, l):
    # SC spreads every symbol evenly (Vt = 1/n), OFDM keeps it on its own bin (Vt = I)
    pulse = pul.NyquistPulse(n, l, np.random.default_rng(n * l).random(n))
    lags = np.arange(-l * n, l * n)
    energy = dense_spread(pulse, np.eye(n))[lags]
    for kind, vt in (("sc", np.full((n, n), 1.0 / n)), ("ofdm", np.eye(n))):
        basis = mod.make_basis(kind, n)
        spread = dense_spread(pulse, vt)[lags]
        for kurt, m in ((1.0, 1), (1.32, 3), (2.5, 7)):
            stats = st.expected_sq_acf(pulse, basis, kurt, m=m, lags=lags)
            np.testing.assert_allclose(stats.variance, (energy + (kurt - 2.0) * spread) / m,
                                       rtol=0, atol=1e-12 * n**2, err_msg=kind)


def test_structured_closed_forms_build_no_dense_matrix():
    # one n x n complex matrix at n = 2048 is 64 MiB; the dense rows held ten
    n = 2048
    pulse = pul.rrc_spectrum(n, 10, 0.35)
    for kind in ("sc", "ofdm"):
        tracemalloc.start()
        try:
            st.expected_sq_acf(pulse, mod.make_basis(kind, n), 1.32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, f"{kind}: {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("budget", [1, 20_000], ids=["one-row", "seven-rows"])
@pytest.mark.parametrize("kind", ["cdma", "haar"])
def test_dense_spread_rows_taken_in_blocks(monkeypatch, kind, budget):
    n, l, kurt = 32, 3, 1.32
    basis = mod.random_unitary(n, np.random.default_rng(43)) if kind == "haar" else \
        mod.make_basis(kind, n)
    pulse = pul.rrc_spectrum(n, l, 0.4)
    lags = np.arange(-l * n, l * n)
    whole = st.expected_sq_acf(pulse, basis, kurt, m=3, lags=lags)  # one block of n rows
    monkeypatch.setattr(st, "_BATCH_BYTES", budget)
    blocked = st.expected_sq_acf(pulse, basis, kurt, m=3, lags=lags)
    np.testing.assert_array_equal(blocked.variance, whole.variance)
    spread = dense_spread(pulse, basis.v_tilde)[lags]
    variance = (dense_spread(pulse, np.eye(n))[lags] + (kurt - 2.0) * spread) / 3
    np.testing.assert_allclose(blocked.variance, variance, rtol=0, atol=1e-12 * n**2)


def test_dense_spread_rows_stay_within_the_budget():
    # the n dense rows over l n / 2 + 1 lags are 16.8 MB of complex ACF alone
    n, l = 256, 32
    basis, pulse = mod.make_basis("cdma", n), pul.rrc_spectrum(n, l, 0.35)
    assert basis.v_tilde.shape == (n, n)  # built before tracing
    tracemalloc.start()
    try:
        st.expected_sq_acf(pulse, basis, 1.32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * st._BATCH_BYTES < 16 * n * (l * n // 2 + 1) / 2, f"{peak / 2**20:.1f} MiB"


def test_slot_counts_beyond_2_53_are_refused():
    pulse, basis = pul.rrc_spectrum(4, 2, 0.5), mod.make_basis("ofdm", 4)
    assert st.expected_sq_acf(pulse, basis, 1.32, m=st.MAX_SLOTS).variance[0] > 0
    for m in (0, st.MAX_SLOTS + 1, 2**63, 10**400):
        with pytest.raises(ValueError, match=r"integration count m must lie in \[1, 2\*\*53\]"):
            st.expected_sq_acf(pulse, basis, 1.32, m=m)


def test_fold_lags_maps_onto_the_half_and_refuses_out_of_range():
    for ln in (20, 21):
        fold, mirrored = st.fold_lags(ln, np.arange(-ln, ln))
        k = np.arange(-ln, ln) % ln
        np.testing.assert_array_equal(fold, np.minimum(k, ln - k))
        assert fold.max() == ln // 2
        np.testing.assert_array_equal(mirrored, k > ln // 2)
    for bad in ([20], [-21], [0, 25]):
        with pytest.raises(ValueError, match="lags must lie in"):
            st.fold_lags(20, bad)


def test_zero_lag_identity():
    # E|R_0|^2 = n^2 + (kurt - 1) n / m whatever the pulse and basis
    n, l = 12, 3
    for alpha in (0.0, 0.4, 1.0):
        pulse = pul.rrc_spectrum(n, l, alpha)
        for kind in ("sc", "ofdm", "cdma"):
            if kind == "cdma" and (n & (n - 1)) != 0:
                continue
            basis = mod.make_basis(kind, n)
            for kurt in (1.0, 1.32, 2.0):
                for m in (1, 7):
                    stats = st.expected_sq_acf(pulse, basis, kurt, m=m, lags=0)
                    expect = n**2 + (kurt - 1.0) * n / m
                    assert stats.total[0] == pytest.approx(expect, rel=1e-12)


def test_gain_energy_closed_form():
    # ||gt_k||^2 = n - 2 (1 - cos(2 pi k / l)) sum g (1 - g); with Gaussian
    # symbols (kurt = 2) the basis term vanishes and the variance is ||gt_k||^2
    n, l = 32, 4
    pulse = pul.rrc_spectrum(n, l, 0.7)
    lags = np.arange(l * n)
    basis = mod.make_basis("sc", n)
    got = st.expected_sq_acf(pulse, basis, 2.0, m=1, lags=lags).variance
    cross = np.sum(pulse.g * (1.0 - pulse.g))
    expect = n - 2.0 * (1.0 - np.cos(2 * np.pi * lags / l)) * cross
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_mean_acf_endpoints():
    pulse = pul.rrc_spectrum(16, 4, 0.35)
    mean = st.mean_acf(pulse)
    assert mean[0] == pytest.approx(16.0, rel=1e-12)
    block_lags = np.arange(1, 16) * 4
    np.testing.assert_allclose(mean[block_lags], 0.0, atol=1e-10)


def enumerated_fourth_moment(spec, n):
    pts, pr = spec.points, spec.probs
    combos = np.array(list(itertools.product(range(pts.size), repeat=n)))
    syms = pts[combos]
    w = np.prod(pr[combos], axis=1)
    v = np.einsum("ki,kj->kji", syms.conj(), syms).reshape(-1, n * n)
    return np.einsum("k,ki,kj->ij", w, v, v.conj())


@pytest.mark.parametrize("spec", [con.psk(4), con.qam(16), con.two_ring_mix(2.5)])
@pytest.mark.parametrize("n", [1, 2])
def test_fourth_moment_matrix_against_enumeration(spec, n):
    expect = enumerated_fourth_moment(spec, n)
    got = st.fourth_moment_matrix(n, con.kurtosis(spec))
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_fourth_moment_matrix_qpsk_pattern():
    kurt = 1.0
    expect = np.array(
        [
            [1.0, 0, 0, 1],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [1, 0, 0, 1.0],
        ]
    )
    np.testing.assert_allclose(st.fourth_moment_matrix(2, kurt), expect, atol=1e-15)


def test_gaussian_symbols_make_basis_irrelevant():
    n, l = 16, 3
    pulse = pul.rrc_spectrum(n, l, 0.5)
    rng = np.random.default_rng(3)
    ofdm = st.expected_sq_acf(pulse, mod.make_basis("ofdm", n), 2.0)
    for _ in range(5):
        other = st.expected_sq_acf(pulse, mod.random_unitary(n, rng), 2.0)
        np.testing.assert_allclose(other.variance, ofdm.variance, atol=1e-10)


def test_basis_ordering_by_kurtosis():
    n, l = 12, 3
    pulse = pul.rrc_spectrum(n, l, 0.4)
    rng = np.random.default_rng(9)
    sc = mod.make_basis("sc", n)
    ofdm = mod.make_basis("ofdm", n)
    for _ in range(20):
        basis = mod.random_unitary(n, rng)
        sub = st.expected_sq_acf(pulse, basis, 1.32)
        assert np.all(sub.variance >= st.expected_sq_acf(pulse, ofdm, 1.32).variance - 1e-9)
        sup = st.expected_sq_acf(pulse, basis, 2.5)
        assert np.all(sup.variance >= st.expected_sq_acf(pulse, sc, 2.5).variance - 1e-9)


def test_to_db_of_peak():
    vals = np.array([16.0, 0.0, 1e-50])
    db = st.to_db_of_peak(vals, 4)
    assert db[0] == pytest.approx(0.0, abs=1e-12)
    assert db[1] == st.DB_FLOOR
    assert db[2] == st.DB_FLOOR
    with pytest.raises(FloatingPointError):
        st.to_db_of_peak(np.array([-1.0]), 4)


def test_input_validation():
    pulse = pul.rrc_spectrum(8, 2, 0.5)
    basis = mod.make_basis("sc", 4)
    with pytest.raises(ValueError):
        st.expected_sq_acf(pulse, basis, 1.32)
    with pytest.raises(ValueError):
        st.expected_sq_acf(pulse, mod.make_basis("sc", 8), 1.32, m=0)
