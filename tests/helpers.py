"""Helpers the tests share: a CSV reader and the time-domain oracles."""

import csv

import numpy as np

from acfshape.modulation import ModulationBasis
from acfshape.pulse import NyquistPulse, assemble_full_spectrum


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Parse a table back as raw strings (header, rows)."""
    with open(path, newline="") as handle:
        parsed = list(csv.reader(handle))
    if not parsed:
        raise ValueError(f"{path}: empty file, expected at least a header")
    return parsed[0], parsed[1:]


def spectrum_to_time(pulse: NyquistPulse) -> np.ndarray:
    """Zero-phase time taps of length l*n with unit energy.

    The bin power gains integrate to n, so taking sqrt(l * gain) as the
    spectrum amplitude gives ||p||^2 = 1 by Parseval.  The taps are complex
    in general: the assembled profile sits half a bin off a Hermitian-
    symmetric layout, which shows up as a slow phase ramp across the taps.
    """
    amplitude = np.sqrt(pulse.l * assemble_full_spectrum(pulse))
    return np.fft.ifft(amplitude)


def modulate(basis: ModulationBasis, symbols: np.ndarray) -> np.ndarray:
    """Map symbol blocks (..., n) to time samples x = U s.

    SC and OFDM take O(n)/O(n log n) shortcuts; they agree with the dense
    product to working precision (covered by tests).
    """
    s = np.asarray(symbols, dtype=complex)
    if s.shape[-1] != basis.n:
        raise ValueError(f"symbol block length {s.shape[-1]} != basis size {basis.n}")
    if basis.kind == "sc":
        return s.copy()
    if basis.kind == "ofdm":
        # U = F^H, and F^H s = sqrt(n) * ifft(s) under numpy's scaling.
        return np.sqrt(basis.n) * np.fft.ifft(s, axis=-1)
    return s @ basis.u.T


def edge_lags(ln: int) -> np.ndarray:
    """Both ends of 0..ln-1 and both sides of its half, out of order and repeated."""
    half = ln // 2
    return np.array([ln - 1, half + 1, 0, half, 1, half, ln - 1, half + 1, 0])
