"""Shared DFT conventions and oversampled-grid phase vectors.

Every module derives its phase vectors from the helpers here so that the
sign and scaling conventions cannot drift apart.  The convention is the
engineering one: the forward DFT matrix has entries

    F[m, k] = exp(-2j*pi*m*k / n) / sqrt(n)

so ``F @ F.conj().T == I`` and ``numpy.fft.fft(x) == sqrt(n) * F @ x``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dft_matrix",
    "band_dft_columns",
    "lag_rotation",
]


def dft_matrix(n: int) -> np.ndarray:
    """Unitary forward DFT matrix of size n."""
    m = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)


def band_dft_columns(n: int, l: int, lags: np.ndarray) -> np.ndarray:
    """In-band slice of the oversampled-grid DFT phase vectors.

    Returns the (n, len(lags)) matrix whose column for lag k has entries

        (1/sqrt(n)) * exp(-2j*pi*k*m / (l*n)),   m = 0..n-1.

    This is the single source of truth for the band phase vector used by the
    mean/squared ACF closed forms and by the pulse response at a given lag.
    The 1/sqrt(n) scaling makes the lag-0 column equal to ones/sqrt(n), which
    is what the mainlobe identity E|R_0|^2 = n^2 + (mu4-1)n requires.
    """
    lags = np.asarray(lags)
    m = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(m, lags) / (l * n)) / np.sqrt(n)


def lag_rotation(l: int, lags: np.ndarray) -> np.ndarray:
    """Per-lag rotation exp(-2j*pi*k/l) picked up by the folded band."""
    return np.exp(-2j * np.pi * np.asarray(lags) / l)
