import numpy as np
import pytest

from acfshape import fourier


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
def test_dft_matrix_is_unitary(n):
    f = fourier.dft_matrix(n)
    np.testing.assert_allclose(f.conj().T @ f, np.eye(n), atol=1e-12)


def test_dft_matrix_matches_numpy_fft():
    rng = np.random.default_rng(1)
    n = 12
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(
        np.sqrt(n) * fourier.dft_matrix(n) @ x, np.fft.fft(x), atol=1e-12
    )


def test_band_dft_columns_entries():
    n, l = 5, 3
    lags = np.array([0, 1, 7])
    f = fourier.band_dft_columns(n, l, lags)
    m = np.arange(n)
    for j, k in enumerate(lags):
        expect = np.exp(-2j * np.pi * k * m / (l * n)) / np.sqrt(n)
        np.testing.assert_allclose(f[:, j], expect, atol=1e-14)
    # every column has unit norm; the zero-lag column is flat
    np.testing.assert_allclose(np.sum(np.abs(f) ** 2, axis=0), 1.0, atol=1e-13)
    np.testing.assert_allclose(f[:, 0], 1 / np.sqrt(n), atol=1e-14)


def test_lag_rotation_values():
    lam = fourier.lag_rotation(4, np.array([0, 2, 4, 6]))
    np.testing.assert_allclose(lam, [1.0, -1.0, 1.0, -1.0], atol=1e-14)
    lam = fourier.lag_rotation(3, np.arange(7))
    np.testing.assert_allclose(np.abs(lam), 1.0, atol=1e-14)
    np.testing.assert_allclose(lam[np.array([0, 3, 6])], 1.0, atol=1e-14)

