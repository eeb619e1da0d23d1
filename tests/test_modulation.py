import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acfshape import modulation as mod
from helpers import modulate


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
def test_dft_matrix_is_unitary(n):
    f = mod.dft_matrix(n)
    np.testing.assert_allclose(f.conj().T @ f, np.eye(n), atol=1e-12)


def test_dft_matrix_matches_numpy_fft():
    rng = np.random.default_rng(1)
    n = 12
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(
        np.sqrt(n) * mod.dft_matrix(n) @ x, np.fft.fft(x), atol=1e-12
    )


@pytest.mark.parametrize("kind, n", [("sc", 7), ("ofdm", 12), ("cdma", 8)])
def test_builtin_bases_are_unitary(kind, n):
    basis = mod.make_basis(kind, n)
    np.testing.assert_allclose(basis.u.conj().T @ basis.u, np.eye(n), atol=1e-12)


def test_energy_spreading_extremes():
    n = 16
    # identity basis spreads every symbol uniformly over subcarriers
    sc = mod.make_basis("sc", n)
    np.testing.assert_allclose(sc.v_tilde, np.full((n, n), 1 / n), atol=1e-12)
    # the subcarrier basis keeps each symbol on its own bin
    ofdm = mod.make_basis("ofdm", n)
    np.testing.assert_allclose(ofdm.v_tilde, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("kind, n", [("sc", 7), ("ofdm", 12), ("cdma", 8), ("haar", 9)])
def test_v_tilde_and_spectral_map(kind, n):
    rng = np.random.default_rng(3)
    basis = mod.random_unitary(n, rng) if kind == "haar" else mod.make_basis(kind, n)
    f = mod.dft_matrix(n)
    np.testing.assert_allclose(
        basis.v_tilde, np.abs(basis.u.conj().T @ f.conj().T) ** 2, rtol=0, atol=1e-14
    )
    # W = sqrt(n) F U is kept only where slot_power has no shortcut
    if kind in ("sc", "ofdm"):
        assert basis.spectral_map is None
    else:
        s = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        np.testing.assert_allclose(
            s @ basis.spectral_map.T, np.fft.fft(modulate(basis, s), axis=-1), atol=1e-12
        )


def test_fast_modulate_paths_match_dense_product():
    rng = np.random.default_rng(5)
    n = 16
    s = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    for kind in ("sc", "ofdm"):
        basis = mod.make_basis(kind, n)
        np.testing.assert_allclose(
            modulate(basis, s), s @ basis.u.T, atol=1e-12
        )


def test_cdma_needs_power_of_two():
    with pytest.raises(ValueError):
        mod.make_basis("cdma", 12)
    basis = mod.make_basis("cdma", 4)
    assert np.all(np.abs(np.abs(basis.u) - 0.5) < 1e-12)


def test_custom_rejects_non_unitary():
    with pytest.raises(ValueError):
        mod.make_basis("custom", 3, matrix=np.ones((3, 3)))
    with pytest.raises(ValueError):
        mod.make_basis("custom", 3, matrix=np.eye(4))
    with pytest.raises(ValueError):
        mod.make_basis("custom", 3)
    with pytest.raises(ValueError):
        mod.make_basis("dft", 3)


def test_random_unitary_reproducible():
    a = mod.random_unitary(9, np.random.default_rng(7))
    b = mod.random_unitary(9, np.random.default_rng(7))
    c = mod.random_unitary(9, np.random.default_rng(8))
    np.testing.assert_array_equal(a.u, b.u)
    assert np.abs(a.u - c.u).max() > 0.01


def test_modulate_shape_check():
    basis = mod.make_basis("sc", 4)
    with pytest.raises(ValueError):
        modulate(basis, np.zeros(5))


def test_from_text_file_roundtrip(tmp_path):
    basis = mod.make_basis("cdma", 4)
    flat = basis.u.reshape(-1)
    path = tmp_path / "basis.txt"
    np.savetxt(path, np.column_stack([flat.real, flat.imag]))
    loaded = mod.from_text_file(path, 4)
    np.testing.assert_allclose(loaded.u, basis.u, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2**31 - 1))
def test_random_unitary_gives_doubly_stochastic_spreading(n, seed):
    basis = mod.random_unitary(n, np.random.default_rng(seed))
    vt = basis.v_tilde
    assert np.all(vt >= -1e-14)
    np.testing.assert_allclose(vt.sum(axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(vt.sum(axis=1), 1.0, atol=1e-10)
    # modulation preserves energy
    rng = np.random.default_rng(seed + 1)
    s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = modulate(basis, s)
    assert np.sum(np.abs(x) ** 2) == pytest.approx(np.sum(np.abs(s) ** 2), rel=1e-10)


@pytest.mark.parametrize("n", [1, 7, 16])
def test_structured_bases_build_u_and_v_tilde_on_first_read(n):
    # the values the dense path gives for the same matrices, bit for bit
    for kind, u in (("sc", np.eye(n, dtype=complex)), ("ofdm", mod.dft_matrix(n).conj().T)):
        basis = mod.make_basis(kind, n)
        assert basis.spectral_map is None
        assert "u" not in vars(basis) and "v_tilde" not in vars(basis)
        dense = mod.ModulationBasis("custom", n, u)
        np.testing.assert_array_equal(basis.v_tilde, dense.v_tilde)
        np.testing.assert_array_equal(basis.u, dense.u)
        assert basis.u.flags.c_contiguous


def test_structured_bases_take_no_matrix_and_dense_kinds_need_one():
    with pytest.raises(ValueError, match="takes no matrix"):
        mod.ModulationBasis("ofdm", 4, np.eye(4))
    with pytest.raises(ValueError, match="requires a matrix"):
        mod.ModulationBasis("cdma", 4)
    with pytest.raises(ValueError, match="block size"):
        mod.make_basis("sc", 0)
