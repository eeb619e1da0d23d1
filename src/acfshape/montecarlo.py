"""Empirical ACF statistics for validating the closed forms.

Each trial draws m independent symbol blocks and averages their m
periodic ACFs into one estimate.  A periodic ACF is the inverse DFT of
the power spectrum, so a trial never builds the shaped signal: it
averages the slots' power spectra (drawn_power), read straight from the
symbols through the basis spectral map W = sqrt(n) F U (an FFT for single
carrier, sqrt(n) times the symbols for OFDM, one product otherwise), and
takes one inverse transform.  The power is real, so its ACF is Hermitian,
r[ln - k] = conj(r[k]): the inverse transform is the half-length ihfft
over lags 0..ln//2, the statistics are reduced over trials there, and
every lag is read off that half at the end (fold_lags).

stream builds every seeded generator in the package, _blocks hands them
to trials and ranging sweep runs, and drawn_power draws the slot power of
both: the slots' symbols, or on OFDM their power class counts (_class_law).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """The generator of item index (a block of trials or runs, or a profile) for one tag."""
    return np.random.default_rng(np.random.SeedSequence((seed, tag, index)))


def _blocks(seed: int, tags: tuple[int, ...] | list[int], total: int, batch: int):
    """Items 0..total-1 (trials or sweep runs) by block: its streams, then its batches.

    Block b, items _SE_BLOCK * b on, owns stream(seed, tag, b) per tag
    (substreams after L'Ecuyer, Simard, Chen & Kelton 2002).  Its items
    draw from them in item order, in batches (start, count) of at most
    batch items within the block, one call per kind of draw and batch,
    which numpy makes bit for bit the calls in turn it replaces: results
    depend on the blocks but on no batch size.
    """
    for first in range(0, total, _SE_BLOCK):
        end = min(first + _SE_BLOCK, total)
        yield ([stream(seed, tag, first // _SE_BLOCK) for tag in tags],
               [(start, min(batch, end - start)) for start in range(first, end, batch)])


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
                rng: np.random.Generator, draws: int,
                symbols: np.ndarray | None = None) -> list[np.ndarray]:
    """Slot-summed power spectra of m fresh slots per draw, one per (basis, pulse).

    rng makes the draws of m slots in turn.  Every pair in shapes
    sees the same draws: entry k, shape (draws, l * n), is their power
    through shapes[k].  The pairs must share n and take the same draw
    path.  Where _class_law applies, one draw, rng.multinomial(m, probs,
    size=(draws, n)), gives the class counts N per subcarrier, and P_j =
    n * sum_c N_jc * level_c (a sum, so no BLAS call).  Otherwise each
    chunk of up to _SLOT_CHUNK slots takes one sample_symbols call of
    shape (draws, chunk, n); draws whose m slots take several chunks are
    taken one draw per call, in turn.  The unshaped bin power is formed
    once per distinct basis and each pair adds that power, shaped by its
    pulse, to its own sum.  The draws go into the workspace symbols, a
    contiguous complex array of at least min(m, _SLOT_CHUNK) * n entries
    per draw of a call (None allocates one), kept by a caller across calls
    to spare the heap a trim and refault on each.
    """
    n = shapes[0][1].n
    laws = [_class_law(constellation, basis, m) for basis, _ in shapes]
    if any(pulse.n != n for _, pulse in shapes) or len({law is None for law in laws}) > 1:
        raise ValueError("the (basis, pulse) pairs of one draw must share n and the draw path")
    if laws[0] is not None:
        levels, probs = laws[0]
        power = n * np.sum(rng.multinomial(m, probs, size=(draws, n)) * levels, axis=-1)
        return [_shaped(pulse, power) for _, pulse in shapes]
    if m > _SLOT_CHUNK and draws > 1:
        runs = [drawn_power(constellation, shapes, m, rng, 1, symbols) for _ in range(draws)]
        return [np.concatenate(p) for p in zip(*runs)]
    # sc and ofdm maps are fixed by n; a dense map is its own
    keys = [basis.kind if basis.spectral_map is None else id(basis.spectral_map)
            for basis, _ in shapes]
    if symbols is None:
        symbols = np.empty(draws * min(m, _SLOT_CHUNK) * n, dtype=complex)
    powers = None
    for start in range(0, m, _SLOT_CHUNK):
        size = min(_SLOT_CHUNK, m - start)
        block = symbols.reshape(-1)[:draws * size * n].reshape(draws, size, n)
        sample_symbols(constellation, (draws, size, n), rng, out=block)
        bins = {}
        for key, (basis, _) in zip(keys, shapes):
            if key not in bins:
                bins[key] = _bin_power(basis, block)
        del block  # the sums take only the bin powers
        shaped = [_shaped(pulse, bins[key]) for key, (_, pulse) in zip(keys, shapes)]
        # the first chunk's power is the sum so far; later chunks add theirs
        powers = shaped if powers is None else [p + q for p, q in zip(powers, shaped)]
    return powers


def _draw_entries(constellation: ConstellationSpec, basis: ModulationBasis, m: int) -> int:
    """Complex entries one draw of m slots allocates in drawn_power: the workspace of one chunk.

    Symbols, int64 indices (half an entry each), spectrum, magnitude and power, or counts, levels.
    """
    law = _class_law(constellation, basis, m)
    if law is not None:
        return law[0].size * basis.n
    return 7 * min(m, _SLOT_CHUNK) * basis.n // 2


def _batch_trials(config: TrialConfig) -> int:
    """Trials per batch, at most _SE_BLOCK, so that the arrays a batch allocates fit _BATCH_BYTES.

    Per trial, in complex entries: the draw (_draw_entries), the power
    spectrum, its shaped product and share of m (3 l n / 2, being real),
    and on the l n / 2 + 1 lags the ACF row, its place in the sums, |r|^2
    in the block and its deviation from the block mean.
    """
    ln = config.pulse.l * config.pulse.n
    draw = _draw_entries(config.constellation, config.basis, config.m)
    return min(_SE_BLOCK, max(1, _BATCH_BYTES // (16 * draw + 24 * ln + 48 * (ln // 2 + 1))))


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

    Trials are drawn by _blocks in batches of _batch_trials.  A batch adds
    its trials' ACF rows r over lags 0..ln//2 (ihfft of the power) to their
    running sum in trial order (_fold_rows); a block keeps its rows' |r|^2
    until its end, merges them into the standard error's statistics
    (_merged) and adds them to their running sum, so no bit depends on the
    batch size.  mean_sq and mean are the sums over the trial count t, var
    is mean_sq - |mean|^2, and se = sqrt(sum (|r|^2 - mean_sq)^2 / (t (t - 1)))
    is the standard error of mean_sq.  The workspace is one batch and one
    block, whatever the trial count.
    """
    pulse, basis, m, t = config.pulse, config.basis, config.m, config.trials
    ln = pulse.l * pulse.n
    lags = np.arange(ln)
    fold, mirrored = fold_lags(ln, lags)
    chunk = min(t, _batch_trials(config))
    # drawn_power takes a draw of several slot chunks in a call of its own
    entries = (chunk if m <= _SLOT_CHUNK else 1) * min(m, _SLOT_CHUNK) * pulse.n
    law = _class_law(config.constellation, basis, m) is not None
    symbols = None if law else np.empty(entries, dtype=complex)
    # row 0 of each holds the running sum over all trials so far
    rows = np.zeros((chunk + 1, ln // 2 + 1), dtype=complex)
    sq = None  # then a block's |r|^2, sized by the first block, the largest
    count, sq_mean, m2 = 0, 0.0, 0.0
    for (rng,), batches in _blocks(config.seed, [_TAG_SYMBOLS], t, chunk):
        first, size = batches[0][0], sum(drawn for _, drawn in batches)
        sq = np.zeros((size + 1, ln // 2 + 1)) if sq is None else sq
        for start, drawn in batches:
            power = drawn_power(config.constellation, [(basis, pulse)], m, rng, drawn,
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
