import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfshape import constellation as con

# Exact normalized fourth moments of the square QAM grids, from the
# per-axis level moments: E|s|^4 = (2 E[a^4] + 2 E[a^2]^2) / (2 E[a^2])^2.
QAM_FOURTH_MOMENTS = {
    4: 1.0,
    16: 132 / 100,
    64: 2436 / 1764,
    256: 40324 / 28900,
    1024: 650628 / 465124,
}


@pytest.mark.parametrize("m, expect", sorted(QAM_FOURTH_MOMENTS.items()))
def test_qam_kurtosis_exact(m, expect):
    assert con.kurtosis(con.qam(m)) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("m", [3, 4, 8, 16, 64])
def test_psk_kurtosis_is_one(m):
    spec = con.psk(m)
    assert con.kurtosis(spec) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(spec.points), 1.0, atol=1e-12)


def test_gaussian_reference():
    g = con.gaussian()
    assert con.kurtosis(g) == 2.0


@pytest.mark.parametrize("kurt", [1.5, 2.5, 3.0])
def test_two_ring_mix_hits_requested_kurtosis(kurt):
    spec = con.two_ring_mix(kurt)
    assert con.kurtosis(spec) == pytest.approx(kurt, abs=1e-9)
    # unit power comes via the constructor validation; check explicitly
    power = np.sum(spec.probs * np.abs(spec.points) ** 2)
    assert power == pytest.approx(1.0, abs=1e-12)


def test_moment_validation_rejections():
    with pytest.raises(ValueError):
        con.psk(2)  # E(s^2) = 1, not a proper alphabet
    with pytest.raises(ValueError):
        con.custom([1.0, -1.0])  # same problem, by hand
    with pytest.raises(ValueError):
        con.qam(8)  # not a square grid
    with pytest.raises(ValueError):
        con.qam(32)
    with pytest.raises(ValueError):
        con.custom([2.0, -2.0, 2.0j, -2.0j])  # power 4, not 1
    with pytest.raises(ValueError):
        con.custom([1.0, -1.0, 1.0j], probs=[0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        con.custom([np.nan, 1.0])


def test_from_name_parsing():
    assert con.from_name("psk16").points.size == 16
    assert con.from_name("QAM64").points.size == 64
    assert con.from_name("gaussian").kind == "gaussian"
    for bad in ("bpsk", "qam12", "psk", "16qam", ""):
        with pytest.raises(ValueError):
            con.from_name(bad)


def test_orders_above_the_bound_are_refused():
    # just above the bound, so a regressed check still allocates little
    assert con.from_name("psk65536").size == con.qam(65536).size == 65536
    for make, order in ((con.psk, 65537), (con.qam, 262144)):
        with pytest.raises(ValueError, match="exceeds the largest supported"):
            make(order)
        with pytest.raises(ValueError, match="exceeds the largest supported"):
            con.from_name(f"{make.__name__}{order}")


def test_custom_alphabets_above_the_bound_are_refused(tmp_path):
    # a valid alphabet in every other respect: the 65,537 roots of unity
    points = con.ring_points(1.0, 65537)
    with pytest.raises(ValueError, match="exceeds the largest supported"):
        con.custom(points)
    path = tmp_path / "alphabet.txt"
    np.savetxt(path, np.column_stack([points.real, points.imag]))
    with pytest.raises(ValueError, match="exceeds the largest supported"):
        con.from_text_file(path)


def test_from_text_file_roundtrip(tmp_path):
    spec = con.psk(8)
    path = tmp_path / "alphabet.txt"
    np.savetxt(path, np.column_stack([spec.points.real, spec.points.imag]))
    loaded = con.from_text_file(path)
    np.testing.assert_allclose(loaded.points, spec.points, atol=1e-12)
    np.testing.assert_allclose(loaded.probs, spec.probs, atol=1e-12)


def test_sample_symbols_moments_and_membership():
    rng = np.random.default_rng(11)
    spec = con.qam(16)
    draws = con.sample_symbols(spec, 200_000, rng)
    assert np.abs(draws.mean()) < 0.01
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.01)
    assert np.mean(np.abs(draws) ** 4) == pytest.approx(1.32, abs=0.02)
    dist = np.min(np.abs(draws[:, None] - spec.points[None, :]), axis=1)
    assert dist.max() == 0.0


def test_sample_symbols_gaussian_and_shapes():
    rng = np.random.default_rng(12)
    draws = con.sample_symbols(con.gaussian(), 200_000, rng)
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.01)
    assert np.abs(np.mean(draws**2)) < 0.01  # properness
    batch = con.sample_symbols(con.psk(4), (3, 5), rng)
    assert batch.shape == (3, 5)


def test_nonuniform_probabilities_respected():
    # 8-PSK split into two interleaved 4-point subsets with different
    # weights; each subset alone has zero mean and zero pseudo-variance,
    # so any weighting between them validates
    rng = np.random.default_rng(13)
    points = np.exp(1j * np.pi * np.arange(8) / 4)
    probs = np.where(np.arange(8) % 2 == 0, 0.2, 0.05)
    spec = con.custom(points, probs=probs)
    draws = con.sample_symbols(spec, 100_000, rng)
    axis_aligned = np.abs(draws.real * draws.imag) < 1e-9
    assert np.mean(axis_aligned) == pytest.approx(0.8, abs=0.01)


@settings(max_examples=40, deadline=None)
@given(st.floats(1.05, 4.5))
def test_two_ring_mix_property(kurt):
    spec = con.two_ring_mix(kurt)
    assert con.kurtosis(spec) == pytest.approx(kurt, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 64))
def test_psk_property(m):
    spec = con.psk(m)
    assert con.kurtosis(spec) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(np.sum(spec.probs * spec.points)) < 1e-12


def _searchsorted_oracle(spec, u):
    """The binary-search sampler the guide table replaces."""
    cum = np.cumsum(spec.probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


class _FixedUniforms:
    """Stands in for a generator whose random(count) returns chosen values."""

    def __init__(self, u):
        self.u = u

    def random(self, count):
        assert count == self.u.shape
        return self.u.copy()


def _zero_probability_alphabet():
    # axis points weigh 0.15 and diagonal points 0.1 (each subset has zero
    # mean and pseudo-variance); zero-weight points sit first, in runs and
    # last, so a draw past 0.15 in the bucket [1/12, 2/12) steps three times
    axis = [1, 1j, -1, -1j]
    diag = np.exp(1j * np.pi * np.array([1, 3, 5, 7]) / 4)
    zero = np.exp(1j * np.pi * np.array([1, 2, 3, 4]) / 6)
    points = [axis[0], zero[0], zero[1], diag[0], axis[1], zero[2], diag[1],
              axis[2], diag[2], axis[3], diag[3], zero[3]]
    probs = [0.15, 0, 0, 0.1, 0.15, 0, 0.1, 0.15, 0.1, 0.15, 0.1, 0]
    return con.custom(points, probs=probs, name="weighted+zeros")


def _oracle_alphabets():
    nonuniform = con.custom(
        np.exp(1j * np.pi * np.arange(8) / 4),
        probs=np.where(np.arange(8) % 2 == 0, 0.2, 0.05),
        name="psk8-weighted",
    )
    # psk13 has uniforms a few ulps below a cum entry whose u * 13 rounds
    # up into the next bucket, which only the step back corrects
    named = [con.psk(3), con.psk(5), con.psk(13), con.psk(16), con.qam(16), con.qam(1024),
             con.qam(65536)]
    return named + [con.two_ring_mix(), nonuniform, _zero_probability_alphabet()]


def _edge_uniforms(spec, rng):
    """Random u, every cum entry and j/K with four floats either side, 0 and 1-."""
    cum = np.cumsum(spec.probs)
    cum[-1] = 1.0
    edges = np.concatenate([cum, np.arange(spec.size + 1) / spec.size])
    below, above = [edges], [edges]
    for _ in range(4):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 2.0))
    u = np.concatenate([rng.random(10_000), *below, *above[1:], [0.0, np.nextafter(1.0, 0.0)]])
    return u[(u >= 0.0) & (u < 1.0)]


@pytest.mark.parametrize("spec", _oracle_alphabets(), ids=lambda spec: spec.name)
def test_sampler_picks_the_binary_search_index(spec):
    u = _edge_uniforms(spec, np.random.default_rng(21))
    oracle = spec.points[_searchsorted_oracle(spec, u)]
    np.testing.assert_array_equal(con.sample_symbols(spec, u.shape, _FixedUniforms(u)), oracle)
    # a shape tuple reads the same uniforms in the same order
    square = u[: u.size // 4 * 4].reshape(-1, 4)
    drawn = con.sample_symbols(spec, square.shape, _FixedUniforms(square))
    np.testing.assert_array_equal(drawn, oracle[: square.size].reshape(square.shape))


def test_sampler_skips_zero_probability_points():
    spec = _zero_probability_alphabet()
    u = _edge_uniforms(spec, np.random.default_rng(22))
    drawn = con.sample_symbols(spec, u.shape, _FixedUniforms(u))
    assert set(drawn.tolist()) == set(spec.points[spec.probs > 0].tolist())


@pytest.mark.parametrize("spec", [con.qam(16), con.psk(5), con.two_ring_mix(),
                                  _zero_probability_alphabet()], ids=lambda spec: spec.name)
def test_sampler_consumes_one_uniform_per_symbol(spec):
    rng, twin = np.random.default_rng(23), np.random.default_rng(23)
    con.sample_symbols(spec, (7, 9), rng)
    twin.random((7, 9))
    assert rng.bit_generator.state == twin.bit_generator.state
