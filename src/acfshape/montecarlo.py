"""Empirical ACF statistics for validating the closed forms.

Each trial draws m independent symbol blocks and averages their m
periodic ACFs into one estimate.  A periodic ACF is the inverse DFT of
the power spectrum, so a trial never builds the shaped signal: it
averages the slots' power spectra (drawn_power), read straight from the
symbols through the basis spectral map W = sqrt(n) F U (an FFT for single
carrier, sqrt(n) times the symbols for OFDM, one product otherwise), and
takes one inverse transform.  The power is real, so its ACF is Hermitian,
r[ln - k] = conj(r[k]): the inverse transform is the half-length ihfft
over lags 0..ln//2, the statistics are reduced over trials there, and the
requested lags are folded onto that half at the end (fold_lags).

stream builds every seeded generator in the package.  Block b of _SE_BLOCK
trials draws from stream(seed, _TAG_SYMBOLS, b), its trials in turn, each
batch in one drawn_power call, which numpy makes bit for bit the calls in
turn it replaces: results do not depend on batching.  drawn_power draws
ranging runs too.  On OFDM the slot-summed power of subcarrier j is n
times the sum of the m symbols' |s|^2, which depends only on how many
fall in each power class of the alphabet; for a finite alphabet with more
slots than classes, drawn_power draws those class counts (multinomial, the
points being equiprobable) instead of the m * n symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constellation import ConstellationSpec, sample_symbols
from .acfstats import _BATCH_BYTES, _fold_rows, check_slots, fold_lags
from .modulation import ModulationBasis
from .pulse import NyquistPulse

__all__ = [
    "TrialConfig",
    "MonteCarloResult",
    "stream",
    "drawn_power",
    "run_trials",
]

# stream tags: Monte Carlo trials; sweep runs' phases, symbols and noise; range profiles
_TAG_SYMBOLS = 1
_TAG_RUNS = (2, 4, 5)
_TAG_PROFILE = 3

# slots drawn per chunk of a trial or run; memory only, not results
_SLOT_CHUNK = 512

# trials or sweep runs per block, each with its own streams (and se merge): results depend on it
_SE_BLOCK = 64


@dataclass(frozen=True)
class TrialConfig:
    """Everything needed to reproduce one Monte Carlo sweep."""

    constellation: ConstellationSpec
    basis: ModulationBasis
    pulse: NyquistPulse
    trials: int
    seed: int
    m: int = 1
    lags: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.basis.n != self.pulse.n:
            raise ValueError(
                f"basis size {self.basis.n} != pulse block size {self.pulse.n}"
            )
        if self.trials < 2:
            raise ValueError(f"need at least 2 trials, got {self.trials}")
        check_slots(self.m)


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-lag sample statistics across trials."""

    lags: np.ndarray
    mean_sq: np.ndarray
    se: np.ndarray
    mean: np.ndarray
    var: np.ndarray


def _bin_power(basis: ModulationBasis, s: np.ndarray) -> np.ndarray:
    """Slot-summed power of the basis spectrum, (..., n), before the pulse weights."""
    if basis.kind == "ofdm":
        return basis.n * np.sum(np.abs(s) ** 2, axis=-2)
    xf = np.fft.fft(s, axis=-1) if basis.kind == "sc" else s @ basis.spectral_map.T
    return np.sum(np.abs(xf) ** 2, axis=-2)


def _shaped(pulse: NyquistPulse, power: np.ndarray) -> np.ndarray:
    """Bin power (..., n) weighted by l * G over the l replicas, (..., l * n)."""
    return (power[..., None, :] * pulse.gain_tile).reshape(*power.shape[:-1], pulse.l * pulse.n)


def stream(seed: int, tag: int, index: int) -> np.random.Generator:
    """The generator of item index (a trial, run or profile) for one tag."""
    return np.random.default_rng(np.random.SeedSequence((seed, tag, index)))


def _class_law(constellation: ConstellationSpec, basis: ModulationBasis,
               m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The alphabet's power classes where drawn_power draws class counts, else None.

    That is OFDM, a finite alphabet and m above its class count; with fewer
    slots than classes the slot draw is the cheaper one.  Gaussian symbols
    keep the slot draw: their law would be a Gamma law taken from the very
    Gaussian statistics that the Monte Carlo columns are meant to check.
    """
    if basis.kind != "ofdm" or constellation.kind == "gaussian":
        return None
    classes = constellation.power_classes
    return classes if m > classes[0].size else None


def drawn_power(constellation: ConstellationSpec,
                shapes: list[tuple[ModulationBasis, NyquistPulse]], m: int,
                sources: list[tuple[np.random.Generator, int]],
                symbols: np.ndarray | None = None) -> list[np.ndarray]:
    """Slot-summed power spectra of m fresh slots per draw, one per (basis, pulse).

    sources lists (generator, count) pairs: each generator makes count
    draws of m slots in turn, and the draws follow sources order.  Every
    pair in shapes sees the same draws: entry k, shape (draws, l * n), is
    their power through shapes[k].  The pairs must share n and take the
    same draw path.  Where _class_law applies, each source makes one draw,
    rng.multinomial(m, probs, size=(count, n)), of the class counts N per
    subcarrier, and P_j = n * sum_c N_jc * level_c (a sum, so no BLAS
    call).  Otherwise each chunk of up to _SLOT_CHUNK slots takes one
    sample_symbols call per source, of shape (count, chunk, n), so a source
    of several draws must take its m slots in one chunk; its unshaped bin
    power is formed once per distinct basis and each pair adds that power,
    shaped by its pulse, to its own sum.  The draws go into the workspace
    symbols, a contiguous complex array of at least draws * min(m,
    _SLOT_CHUNK) * n entries (None allocates one), kept by a caller across
    calls to spare the heap a trim and refault on each.
    """
    n = shapes[0][1].n
    draws = sum(count for _, count in sources)
    laws = [_class_law(constellation, basis, m) for basis, _ in shapes]
    if any(pulse.n != n for _, pulse in shapes) or len({law is None for law in laws}) > 1:
        raise ValueError("the (basis, pulse) pairs of one draw must share n and the draw path")
    if laws[0] is not None:
        levels, probs = laws[0]
        counts = np.concatenate([rng.multinomial(m, probs, size=(count, n))
                                 for rng, count in sources])
        power = n * np.sum(counts * levels, axis=-1)
        return [_shaped(pulse, power) for _, pulse in shapes]
    if m > _SLOT_CHUNK and draws > len(sources):
        raise ValueError("a source of several draws must take its m slots in one chunk")
    # sc and ofdm maps are fixed by n; a dense map is its own
    keys = [basis.kind if basis.spectral_map is None else id(basis.spectral_map)
            for basis, _ in shapes]
    if symbols is None:
        symbols = np.empty(draws * min(m, _SLOT_CHUNK) * n, dtype=complex)
    powers = None
    for start in range(0, m, _SLOT_CHUNK):
        size = min(_SLOT_CHUNK, m - start)
        block = symbols.reshape(-1)[:draws * size * n].reshape(draws, size, n)
        row = 0
        for rng, count in sources:
            sample_symbols(constellation, (count, size, n), rng, out=block[row:row + count])
            row += count
        bins = {}
        for key, (basis, _) in zip(keys, shapes):
            if key not in bins:
                bins[key] = _bin_power(basis, block)
        del block  # the sums take only the bin powers
        shaped = [_shaped(pulse, bins[key]) for key, (_, pulse) in zip(keys, shapes)]
        # the first chunk's power is the sum so far; later chunks add theirs
        powers = shaped if powers is None else [p + q for p, q in zip(powers, shaped)]
    return powers


def _draw_entries(constellation: ConstellationSpec, basis: ModulationBasis, m: int) -> int | None:
    """Complex entries one draw of m slots allocates in drawn_power, None for several chunks.

    Symbols, int64 indices (half an entry each), spectrum, magnitude and power, or counts, levels.
    """
    law = _class_law(constellation, basis, m)
    if law is not None:
        return law[0].size * basis.n
    return 7 * m * basis.n // 2 if m <= _SLOT_CHUNK else None


def _batch_trials(config: TrialConfig) -> int:
    """Trials per batch, so that the arrays a batch allocates fit _BATCH_BYTES.

    Per trial, in complex entries: the draw (_draw_entries), the power
    spectrum, its shaped product and share of m (3 l n / 2, being real),
    and on the l n / 2 + 1 lags the ACF row, its place in the sums, |r|^2
    in the block and its deviation from the block mean.  A trial whose
    slots take several chunks is a batch of its own.
    """
    ln = config.pulse.l * config.pulse.n
    draw = _draw_entries(config.constellation, config.basis, config.m)
    if draw is None:
        return 1
    return max(1, _BATCH_BYTES // (16 * draw + 24 * ln + 48 * (ln // 2 + 1)))


def _merged(count: int, mean: np.ndarray, m2: np.ndarray,
            rows: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Merge rows into the count, mean and summed squared deviations of earlier rows.

    The rows' own mean and squared deviations take two passes over them;
    the merge is Chan, Golub & LeVeque's (1979): with d the difference of
    the two means, the count-weighted d moves the mean and d^2 times
    count * len(rows) / total adds to m2.
    """
    size = len(rows)
    total = count + size
    block_mean = np.add.reduce(rows, axis=0) / size
    deviation = rows - block_mean
    deviation **= 2
    delta = block_mean - mean
    return (total, mean + delta * (size / total),
            m2 + np.add.reduce(deviation, axis=0) + delta**2 * (count * size / total))


def run_trials(config: TrialConfig) -> MonteCarloResult:
    """Monte Carlo estimate of the ACF mean and squared magnitude per lag.

    Trials run in batches of _batch_trials within blocks of _SE_BLOCK, each
    block drawing from its own stream and each batch in one drawn_power
    call.  A batch takes each trial's ACF row r over lags 0..ln//2 (ihfft
    of its power spectrum) and adds the rows to their running sum in trial
    order (_fold_rows); a block keeps its rows' |r|^2 until its end, merges
    them into the standard error's statistics (_merged, Chan, Golub &
    LeVeque 1979) and adds them to their running sum.  Sums in trial order
    and merges by block have the same bits at any batch size.  mean_sq and
    mean are the sums over the trial count t, var is mean_sq - |mean|^2,
    and se = sqrt(sum (|r|^2 - mean_sq)^2 / (t (t - 1))), the standard
    error of mean_sq.  The workspace is one batch and one block, whatever
    the trial count.
    """
    pulse, basis, m, t = config.pulse, config.basis, config.m, config.trials
    ln = pulse.l * pulse.n
    lags = np.arange(ln) if config.lags is None else np.atleast_1d(config.lags)
    fold, mirrored = fold_lags(ln, lags)
    law = _class_law(config.constellation, basis, m) is not None
    block_size = min(t, _SE_BLOCK)
    chunk = min(block_size, _batch_trials(config))
    symbols = None if law else np.empty((chunk, min(m, _SLOT_CHUNK), pulse.n), dtype=complex)
    # row 0 of each holds the running sum over all trials so far
    rows = np.zeros((chunk + 1, ln // 2 + 1), dtype=complex)
    sq = np.zeros((block_size + 1, ln // 2 + 1))
    count, sq_mean, m2 = 0, 0.0, 0.0
    for first in range(0, t, block_size):
        size = min(block_size, t - first)
        rng = stream(config.seed, _TAG_SYMBOLS, first // _SE_BLOCK)
        for start in range(first, first + size, chunk):
            drawn = min(chunk, first + size - start)
            power = drawn_power(config.constellation, [(basis, pulse)], m, [(rng, drawn)],
                                symbols)[0] / m
            batch = rows[1:drawn + 1]
            batch[...] = np.fft.ihfft(power, axis=-1)
            place = np.abs(batch, out=sq[1 + start - first:][:drawn])
            place **= 2
            _fold_rows(rows, drawn)
        count, sq_mean, m2 = _merged(count, sq_mean, m2, sq[1:size + 1])
        _fold_rows(sq, size)
    mean_sq = sq[0] / t
    se = np.sqrt(m2 / (t * (t - 1)))
    mean = rows[0] / t
    var = mean_sq - np.abs(mean) ** 2
    mean = np.where(mirrored, np.conj(mean[fold]), mean[fold])
    return MonteCarloResult(lags, mean_sq[fold], se[fold], mean, var[fold])
