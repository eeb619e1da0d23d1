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
    # 8-PSK split into two interleaved 4-point subsets, the axis points
    # listed four times each: every listed point weighs 1/20, so the axis
    # subset draws 0.8 and each subset alone has zero mean and pseudo-variance
    rng = np.random.default_rng(13)
    points = np.exp(1j * np.pi * np.arange(8) / 4)
    spec = con.custom(np.concatenate([points] + 3 * [points[::2]]))
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


def _repeated_point_alphabet():
    # the axis points listed twice and the diagonal points once: each subset
    # has zero mean and pseudo-variance, and each axis point weighs 2/12
    axis = np.array([1, 1j, -1, -1j])
    diag = np.exp(1j * np.pi * np.array([1, 3, 5, 7]) / 4)
    return con.custom(np.concatenate([axis, diag, axis]), name="axis-twice")


def _oracle_alphabets():
    named = [con.psk(3), con.psk(5), con.psk(13), con.psk(16), con.qam(16), con.qam(1024),
             con.qam(65536)]
    return named + [con.two_ring_mix(), _repeated_point_alphabet()]


@pytest.mark.parametrize("spec", _oracle_alphabets(), ids=lambda spec: spec.name)
def test_sampler_picks_the_integer_index(spec):
    for count in (10_000, (250, 4)):
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        drawn = con.sample_symbols(spec, count, rng)
        np.testing.assert_array_equal(drawn, spec.points[twin.integers(0, spec.size, count)])


@pytest.mark.parametrize("spec", [con.qam(16), con.psk(5), con.two_ring_mix(),
                                  _repeated_point_alphabet()], ids=lambda spec: spec.name)
def test_sampler_consumes_one_integer_per_symbol(spec):
    rng, twin = np.random.default_rng(23), np.random.default_rng(23)
    con.sample_symbols(spec, (7, 9), rng)
    twin.integers(0, spec.size, (7, 9))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_sampler_draws_every_point_of_a_custom_alphabet():
    spec = con.custom(con.ring_points(1.0, 7), name="ring7")
    drawn = con.sample_symbols(spec, 500, np.random.default_rng(24))
    assert set(drawn.tolist()) == set(spec.points.tolist())


@pytest.mark.parametrize("spec", [con.psk(5), con.qam(16), con.two_ring_mix(),
                                  _repeated_point_alphabet()], ids=lambda spec: spec.name)
def test_sampler_frequencies_match_the_point_counts(spec):
    # every listed point weighs 1/size, so a distinct value weighs its
    # multiplicity over size; counts lie within 5 standard deviations
    draws = 120_000
    values, index = np.unique(spec.points, return_inverse=True)
    expect = draws * np.bincount(index) / spec.size
    drawn = con.sample_symbols(spec, draws, np.random.default_rng(25))
    counts = np.array([np.sum(drawn == v) for v in values])
    assert counts.sum() == draws
    np.testing.assert_array_less(np.abs(counts - expect), 5 * np.sqrt(expect))


@pytest.mark.parametrize("spec, levels, probs", [
    (con.qam(16), [0.2, 1.0, 1.8], [0.25, 0.5, 0.25]),
    (con.psk(16), [1.0], [1.0]),
    (con.two_ring_mix(2.5), [1 - np.sqrt(0.375), 1 + 4 * np.sqrt(0.375)], [0.8, 0.2]),
    (con.custom(np.concatenate([con.psk(8).points, con.psk(4).points])), [1.0], [1.0]),
    (con.gaussian(), [], []),
], ids=["qam16", "psk16", "rings", "repeated-ring", "gaussian"])
def test_power_classes_group_equal_powers(spec, levels, probs):
    got_levels, got_probs = spec.power_classes
    np.testing.assert_allclose(got_levels, levels, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(got_probs, probs)
    if spec.size:
        assert np.sum(got_levels * got_probs) == pytest.approx(1.0, abs=1e-15)
    assert spec.power_classes is spec.power_classes  # built once per alphabet


def test_power_classes_count_the_qam_rings():
    # a square 4^k grid has one class per distinct a^2 + b^2 over its odd levels
    for order in (4, 64, 1024):
        side = int(np.sqrt(order))
        odd = np.arange(1, side, 2)
        distinct = np.unique(np.add.outer(odd**2, odd**2)).size
        assert con.qam(order).power_classes[0].size == distinct
