"""Closed-form statistics of the periodic ACF of random modulated signals.

For n i.i.d. unit-power proper symbols mapped through a unitary basis,
upsampled by l and shaped by a Nyquist pulse, the expected squared ACF
magnitude at each lag splits into a deterministic part (the squared mean,
set entirely by the pulse) and a variance part (driven by symbol
randomness, shrinking as 1/m when m independent blocks are averaged).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modulation import ModulationBasis
from .pulse import NyquistPulse, assemble_full_spectrum

__all__ = [
    "AcfStats",
    "MAX_SLOTS",
    "check_slots",
    "fold_lags",
    "mean_acf",
    "expected_sq_acf",
    "fourth_moment_matrix",
    "to_db_of_peak",
]

DB_FLOOR = -400.0

# largest slot count m: the statistics divide by m as a float, which is
# exact up to here, and the class-count draws take counts below 2**63
MAX_SLOTS = 1 << 53

# Workspace budget in bytes of the blocked statistics: the dense spread rows
# here and a batch of Monte Carlo trials (montecarlo.run_trials).  Only
# memory depends on it; every result has the same bits at any budget.
_BATCH_BYTES = 1 << 21


@dataclass(frozen=True)
class AcfStats:
    """Expected squared-magnitude ACF split into mean and variance parts."""

    lags: np.ndarray
    squared_mean: np.ndarray
    variance: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.squared_mean + self.variance


def _as_lags(pulse: NyquistPulse, lags) -> np.ndarray:
    if lags is None:
        return np.arange(pulse.l * pulse.n)
    return np.atleast_1d(np.asarray(lags))


def check_slots(m: int) -> None:
    """Refuse a slot count m outside [1, MAX_SLOTS], as every statistic and draw does."""
    if not 1 <= m <= MAX_SLOTS:
        raise ValueError(f"integration count m must lie in [1, 2**53], got {m!r:.40}")


def fold_lags(ln: int, lags) -> tuple[np.ndarray, np.ndarray]:
    """Where each lag sits in the half-length ACF over lags 0..ln//2.

    The ACF of a real spectrum is Hermitian, r[ln - k] = conj(r[k]), so
    np.fft.ihfft gives every lag: lag k (taken modulo ln, so -1 is ln - 1)
    reads index min(k, ln - k), conjugated where the second array is True.
    A lag outside [-ln, ln) is refused, as indexing the full ACF would.
    """
    lags = np.asarray(lags)
    if lags.size and (lags.min() < -ln or lags.max() >= ln):
        raise ValueError(f"lags must lie in [{-ln}, {ln}), got {lags.min()}..{lags.max()}")
    k = lags % ln
    return np.minimum(k, ln - k), k > ln // 2


def _fold_rows(buffer: np.ndarray, count: int) -> None:
    """Add rows 1..count of a C-contiguous buffer into its row 0, one after another.

    A sum over axis 0 of a C-contiguous array adds its rows in order (over
    other layouts numpy may add them pairwise), so a running total kept in
    row 0 and fed rows in batches has the same bits as one sum over all the
    rows, whatever the batches.
    """
    buffer[0] = np.add.reduce(buffer[:count + 1], axis=0)


def mean_acf(pulse: NyquistPulse, lags=None) -> np.ndarray:
    """Expected ACF value per lag: (n * l * ifft(G))[lags].

    G is the assembled power spectrum (assemble_full_spectrum), so this is
    n times the periodic autocorrelation of the unit-energy pulse taps.
    """
    acf = pulse.n * pulse.l * np.fft.ifft(assemble_full_spectrum(pulse))
    return acf[_as_lags(pulse, lags)]


def expected_sq_acf(
    pulse: NyquistPulse,
    basis: ModulationBasis,
    kurt: float,
    m: int = 1,
    lags=None,
) -> AcfStats:
    """Exact E|R_k|^2 for any unitary basis, split as mean^2 + variance.

    With S = n * l * G the expected slot power spectrum and Vt the basis
    energy-spreading matrix, the variance at lag k is
        (n - 2 (1 - cos(2 pi k / l)) sum g (1 - g)
         + (kurt - 2) * sum_j |ifft(tile(Vt_j, l) * S)[k]|^2) / m.
    The first term is the energy of the lag-combined gains; with kurt = 2
    (Gaussian symbols) the basis term vanishes and every basis gives the
    same statistics.  The basis term, the spread, takes the structure of
    the two named bases:
      sc    Vt = 1/n everywhere, n equal rows: |ifft(S)[k]|^2 / n;
      ofdm  Vt = I, row j keeps bins j, n + j, ...: with T = ifft(S.reshape(l, n))
            along its l rows, sum_j |T[k mod l, j]|^2 / n^2;
      other kinds sum the n dense rows, a block of rows at a time, fitted
            to _BATCH_BYTES (per row, l n reals of spectrum, then on the
            l n / 2 + 1 lags the complex ACF, its magnitude, |ACF|^2 and its
            place in the sums), added in row order (_fold_rows) so that any
            block size gives the same bits.
    Each row tile(Vt_j, l) * S is a real spectrum, so its ACF is Hermitian:
    the spread is taken over lags 0..ln//2 with the half-length ihfft (or
    over the l residues for ofdm) and the requested lags are folded onto
    that half (fold_lags) at the end.
    """
    if basis.n != pulse.n:
        raise ValueError(f"basis size {basis.n} != pulse block size {pulse.n}")
    check_slots(m)
    lags = _as_lags(pulse, lags)
    n, l = pulse.n, pulse.l
    energy = n - 2.0 * (1.0 - np.cos(2.0 * np.pi * lags / l)) * np.sum(pulse.g * (1.0 - pulse.g))
    fold, _ = fold_lags(n * l, lags)
    s = (n * l * assemble_full_spectrum(pulse)).reshape(l, n)
    if basis.kind == "sc":
        spread = np.abs(np.fft.ihfft(s.reshape(-1))) ** 2 / n
    elif basis.kind == "ofdm":
        spread, fold = np.sum(np.abs(np.fft.ifft(s, axis=0)) ** 2, axis=1) / n**2, fold % l
    else:
        block = max(1, _BATCH_BYTES // (8 * l * n + 40 * (l * n // 2 + 1)))
        sums = np.zeros((min(block, n) + 1, l * n // 2 + 1))  # row 0: the running spread
        for start in range(0, n, block):
            rows = basis.v_tilde[start:start + block, None, :] * s
            rows = np.fft.ihfft(rows.reshape(-1, l * n), axis=-1)
            sums[1:len(rows) + 1] = np.abs(rows) ** 2
            _fold_rows(sums, len(rows))
        spread = sums[0]
    variance = (energy + (kurt - 2.0) * spread[fold]) / m
    return AcfStats(lags, np.abs(mean_acf(pulse, lags)) ** 2, variance)


def fourth_moment_matrix(n: int, kurt: float) -> np.ndarray:
    """Covariance-like matrix E[vec(s s^H) vec(s s^H)^H] for i.i.d. symbols.

    Proper unit-power symbols leave only three index pairings alive:
    identity everywhere, kurt on the n entries where all four indices
    coincide, and ones coupling distinct |s_i|^2 |s_k|^2 products.
    """
    s = np.eye(n * n)
    diag = np.arange(n) * (n + 1)
    s[np.ix_(diag, diag)] = 1.0
    s[diag, diag] = kurt
    return s


def to_db_of_peak(values: np.ndarray, n: int, floor_db: float = DB_FLOOR) -> np.ndarray:
    """10 log10(value / n^2), floored so exact zeros stay plottable.

    Cancellation in the variance formulas can leave residues a hair below
    zero where the true value is exactly zero, so negatives within 1e-9 of
    the peak count as zero; anything more negative is a numerical failure.
    """
    values = np.asarray(values, dtype=float)
    ref = float(n) ** 2
    if np.any(values < -1e-9 * ref):
        raise FloatingPointError("negative value cannot be expressed in dB")
    values = np.maximum(values, 0.0)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(values / ref)
    return np.maximum(db, floor_db)
