"""Helpers the tests share: a CSV reader and the time-domain pulse oracle."""

import csv

import numpy as np

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
