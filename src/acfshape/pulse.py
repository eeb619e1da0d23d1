"""Nyquist pulse shaping expressed through in-band spectral gains.

A pulse for block size n at oversampling l is described by n gains
g in [0, 1], listed from the outer band edge inward: DFT bin i of the
length l*n spectrum carries power gain g[n-1-i], so bin 0 (the carrier)
gets the last gain and the profile falls off with distance from it.
The alias bin (l-1)*n + i carries the complement 1 - g[n-1-i], which
fills in the band just below the carrier.  The occupied band is then
contiguous around bin 0, as a low-pass pulse requires, while the gain
vector itself stays a monotone roll-off table read edge-to-carrier.
Every such pulse has unit energy and a periodic autocorrelation that
vanishes at all nonzero multiples of l, because each gain pair sums
to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tableio import load_text

__all__ = [
    "NyquistPulse",
    "rolloff_bin_count",
    "from_segment",
    "rrc_spectrum",
    "from_text_file",
    "assemble_full_spectrum",
]

_GAIN_TOL = 1e-9


def _validate_gains(g: np.ndarray, n: int) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"gain vector has shape {g.shape}, expected ({n},)")
    if not np.all(np.isfinite(g)):
        bad = int(np.flatnonzero(~np.isfinite(g))[0])
        raise ValueError(f"gain g[{bad}] = {g[bad]} is not finite")
    low = g < -_GAIN_TOL
    high = g > 1.0 + _GAIN_TOL
    if low.any() or high.any():
        bad = int(np.flatnonzero(low | high)[0])
        raise ValueError(f"gain g[{bad}] = {g[bad]:.6g} outside [0, 1]")
    return np.clip(g, 0.0, 1.0)


@dataclass(frozen=True)
class NyquistPulse:
    """In-band gains g (length n) for a unit-energy pulse at oversampling l."""

    n: int
    l: int
    g: np.ndarray
    name: str = "custom"
    alpha: float | None = None

    def __post_init__(self):
        if self.l < 2:
            raise ValueError(f"oversampling factor must be >= 2, got {self.l}")
        if self.n < 2:
            raise ValueError(f"block size must be >= 2, got {self.n}")
        object.__setattr__(self, "g", _validate_gains(self.g, self.n))

    @cached_property
    def gain_tile(self) -> np.ndarray:
        """l * G as its l replicas of the n bins, shape (l, n), built once and read-only.

        Replica r, bin j carries l * G[r * n + j] (G from assemble_full_spectrum),
        so a slot's length-n bin power broadcast against this tile is its shaped
        power spectrum.
        """
        tile = (self.l * assemble_full_spectrum(self)).reshape(self.l, self.n)
        tile.flags.writeable = False
        return tile


def rolloff_bin_count(n: int, alpha: float) -> int:
    """Number of transition bins for roll-off alpha, kept the same parity as n.

    Matching parity makes the two flat segments equal length, so the
    transition sits symmetrically around the band midpoint.  Ties round up.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"roll-off must lie in [0, 1], got {alpha}")
    target = alpha * n
    k = int(np.floor(target))
    if (k - n) % 2 != 0:
        k += 1
    # k is now the largest same-parity integer <= target + 1; pick between
    # k and k - 2 by distance to the target, preferring the larger on ties.
    if k - target > target - (k - 2) and k - 2 >= 0:
        k -= 2
    return min(max(k, n % 2), n)


def from_segment(n: int, l: int, segment, name: str = "custom",
                 alpha: float | None = None) -> NyquistPulse:
    """The pulse whose gains are segment between equal runs of zeros and ones."""
    segment = np.asarray(segment, dtype=float)
    pad, odd = divmod(n - segment.size, 2)
    if pad < 0 or odd:
        raise ValueError(f"a segment of {segment.size} gains does not center in {n} bins")
    return NyquistPulse(n, l, np.concatenate([np.zeros(pad), segment, np.ones(pad)]),
                        name=name, alpha=alpha)


def rrc_spectrum(n: int, l: int, alpha: float) -> NyquistPulse:
    """Root-raised-cosine gains sampled at half-bin offsets.

    The transition follows the raised-cosine characteristic evaluated at
    frequencies (i + 1/2)/n, which makes the gains sum to exactly n/2 and
    satisfy g[i] + g[n-1-i] = 1.  Gains rise from 0 to 1 across the band;
    the effective roll-off is the bin count returned by rolloff_bin_count
    divided by n, recorded in the alpha field.
    """
    width = rolloff_bin_count(n, alpha)
    j = np.arange(1, width + 1)
    segment = 0.5 * (1.0 - np.cos(np.pi * (j - 0.5) / width))
    return from_segment(n, l, segment, name=f"rrc{alpha:g}", alpha=width / n)


def from_text_file(path, n: int, l: int) -> NyquistPulse:
    """Load gains from a text file holding one value per line.

    The file either lists all n gains, or just the transition segment; a
    shorter file is padded symmetrically with the flat zero and one runs
    (from_segment), so a design tool only needs to store the part it
    actually chose.  Reading stops at line n + 1, so a longer file is
    refused unread, and a line holding more than one value is refused.
    """
    rows = load_text(path, ndmin=2, max_rows=n + 1)
    if rows.shape[1] != 1:
        raise ValueError(f"{path} holds {rows.shape[1]} values on a line; "
                         "expected one gain per line")
    vals = rows[:, 0]
    if vals.size > n or (n - vals.size) % 2:
        count = f"more than {n}" if vals.size > n else vals.size
        raise ValueError(
            f"{path} holds {count} gains; expected {n} or a shorter "
            f"segment with the same parity"
        )
    return from_segment(n, l, vals, name="file")


def assemble_full_spectrum(pulse: NyquistPulse) -> np.ndarray:
    """Power gains over all l*n DFT bins, band centered on the carrier.

    The gain vector is read in reverse into bins 0..n-1 so the profile
    falls away from bin 0, and the complements fill bins (l-1)*n onward,
    rising back toward bin l*n - 1.  Together the two blocks occupy one
    contiguous band around the carrier.
    """
    profile = pulse.g[::-1]
    full = np.zeros(pulse.l * pulse.n)
    full[:pulse.n] = profile
    full[(pulse.l - 1) * pulse.n:] = 1.0 - profile
    return full
