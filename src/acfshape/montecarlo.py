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
to trials and ranging sweep runs, drawn_power draws the slot power of both
(the slots' symbols, or on OFDM their power class counts: _class_law), and
_batch sizes the batches of both to the one workspace they keep.
"""

from __future__ import annotations

import math
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

# slots drawn per chunk of a trial or run; memory only, not results, save that a one-slot
# chunk on a dense map is a BLAS matrix-vector product, whose last bit may differ
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


def _bin_power(basis: ModulationBasis, s: np.ndarray, work: _Workspace, out: np.ndarray,
               running: bool) -> np.ndarray:
    """|X|^2 of slots s, (draws, c, n), summed in slot order into out, (draws, n); running:
    after out's sum of earlier slots as in _fold_rows, so chunks give one sum's bits."""
    if basis.kind != "ofdm":
        spectrum = work("spectrum", *s.shape)
        s = (np.fft.fft(s, axis=-1, out=spectrum) if basis.kind == "sc"
             else np.matmul(s, basis.spectral_map.T, out=spectrum))
    rows = work("magnitude", len(s), s.shape[1] + running, s.shape[2])
    if running:
        rows[:, 0] = out
    power = np.abs(s, out=rows[:, running:])
    power **= 2
    return np.sum(rows, axis=-2, out=out)


def stream(seed: int, tag: int, index: int) -> np.random.Generator:
    """The generator of item index (a block of trials or runs, or a profile) for one tag."""
    return np.random.default_rng(np.random.SeedSequence((seed, tag, index)))


def _blocks(seed: int, tags: tuple[int, ...] | list[int], total: int, batch: int):
    """Items 0..total-1 (trials or sweep runs) by block: its streams, then its batches.

    Block b, items _SE_BLOCK * b on, owns stream(seed, tag, b) per tag
    (substreams after L'Ecuyer, Simard, Chen & Kelton 2002).  Its items draw
    from them in item order, in batches (start, count) of at most batch
    items within the block, one call per kind of draw and batch, which numpy
    makes bit for bit the calls in turn: no result depends on a batch size.
    """
    for first in range(0, total, _SE_BLOCK):
        end = min(first + _SE_BLOCK, total)
        yield ([stream(seed, tag, first // _SE_BLOCK) for tag in tags],
               [(start, min(batch, end - start)) for start in range(first, end, batch)])


def _class_law(constellation: ConstellationSpec, basis: ModulationBasis,
               m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The alphabet's power classes where drawn_power draws class counts, else None.

    That is OFDM, a finite alphabet and m above its class count; with fewer
    slots than classes the slot draw is cheaper.  Gaussian symbols keep the
    slot draw: their law would be a Gamma law taken from the very Gaussian
    statistics that the Monte Carlo columns are meant to check.
    """
    if basis.kind != "ofdm" or constellation.kind == "gaussian":
        return None
    classes = constellation.power_classes
    return classes if m > classes[0].size else None


class _Workspace:
    """One zeroed buffer per (name, dtype, entries per item, entries besides) of a layout,
    kept across a loop's batches, which work in leading views of them (name None:
    what numpy's Generator allocates itself, point indices or class counts)."""

    def __init__(self, layout: list, items: int):
        self.buffers = {name: np.zeros(per * items + fixed, dtype)
                        for name, dtype, per, fixed in layout if name is not None}

    def __call__(self, name: str, *shape: int) -> np.ndarray:
        return self.buffers[name][:math.prod(shape)].reshape(shape)


def _batch(layout: list, budget: int) -> int:
    """The cost model: items per batch (1 to _SE_BLOCK, even over a block) fitting budget bytes."""
    per, fixed = (sum(np.dtype(item[1]).itemsize * item[k] for item in layout) for k in (2, 3))
    fit = min(_SE_BLOCK, max(1, (budget - fixed) // per))
    return -(-_SE_BLOCK // -(-_SE_BLOCK // fit))


def _draw_layout(constellation: ConstellationSpec,
                 shapes: list[tuple[ModulationBasis, NyquistPulse]], m: int) -> list:
    """drawn_power's _Workspace layout per draw: class counts and their levels, or a chunk's
    symbols, point indices, spectrum and |X|^2 (one draw's, with a row for the sum so far,
    when a draw takes several chunks); then each pair's bin power and one shaped power."""
    n, ln = shapes[0][1].n, shapes[0][1].l * shapes[0][1].n
    law = _class_law(constellation, shapes[0][0], m)
    if law is not None:
        return [(None, float, 2 * law[0].size * n, 0), ("bins", float, n, 0),
                ("shaped", float, ln, 0)]
    c, several = min(m, _SLOT_CHUNK) * n, m > _SLOT_CHUNK
    chunk = [("symbols", complex, c), (None, int, c * (constellation.kind != "gaussian")),
             ("spectrum", complex, c * any(basis.kind != "ofdm" for basis, _ in shapes)),
             ("magnitude", float, c + n * several)]
    return ([(name, dtype, *((0, size) if several else (size, 0))) for name, dtype, size in chunk]
            + [("bins", float, len(shapes) * n, 0), ("shaped", float, ln, 0)])


def _shaped(pulse: NyquistPulse, power: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Bin power (draws, n) times l * G on each replica into out, (draws, l * n), by einsum,
    which unlike np.multiply takes no iterator buffers for the broadcast."""
    np.einsum("dk,jk->djk", power, pulse.gain_tile, out=out.reshape(len(power), pulse.l, -1))
    return out


def drawn_power(constellation: ConstellationSpec,
                shapes: list[tuple[ModulationBasis, NyquistPulse]], m: int,
                rng: np.random.Generator, draws: int, work: _Workspace | None = None):
    """Slot-summed power spectra of m fresh slots per draw, one per (basis, pulse).

    rng makes the draws of m slots in turn.  Every pair in shapes sees the
    same draws: entry k, shape (draws, l * n), is their power through
    shapes[k].  The pairs must share n and the draw path.  Where _class_law
    applies, one draw, rng.multinomial(m, probs, size=(draws, n)), gives
    the class counts N per subcarrier, and P_j = n * sum_c N_jc * level_c
    (a sum, so no BLAS call).  Otherwise each chunk of up to _SLOT_CHUNK
    slots takes one sample_symbols call of shape (draws, chunk, n), draws
    of several chunks one draw per call, in turn; each distinct basis adds
    a chunk's bin power to the sum over earlier slots (_bin_power), so the
    chunks shape memory only.  Then OFDM's bins take the factor n and each
    pair shapes the bins by its pulse.  The draws are made in the call into
    work, a _Workspace of _draw_layout for at least draws items, and the
    entries follow as an iterator, each valid until the next; work None
    returns fresh arrays.
    """
    n, ln = shapes[0][1].n, shapes[0][1].l * shapes[0][1].n
    laws = [_class_law(constellation, basis, m) for basis, _ in shapes]
    if any(pulse.n != n for _, pulse in shapes) or len({law is None for law in laws}) > 1:
        raise ValueError("the (basis, pulse) pairs of one draw must share n and the draw path")
    kept, work = work is not None, work or _Workspace(_draw_layout(constellation, shapes, m), draws)
    # sc and ofdm maps are fixed by n; a dense map is its own
    keys = [basis.kind if basis.spectral_map is None else id(basis.spectral_map)
            for basis, _ in shapes]
    distinct = dict(zip(keys, (basis for basis, _ in shapes)))
    bins = dict(zip(distinct, work("bins", len(distinct), draws, n)))
    several = m > _SLOT_CHUNK
    if laws[0] is not None:
        levels, probs = laws[0]
        np.sum(rng.multinomial(m, probs, size=(draws, n)) * levels, axis=-1, out=bins[keys[0]])
    for turn in range(0 if laws[0] is not None else draws if several else 1):
        for start in range(0, m, _SLOT_CHUNK):
            block = work("symbols", 1 if several else draws, min(_SLOT_CHUNK, m - start), n)
            sample_symbols(constellation, block.shape, rng, out=block)
            for key, basis in distinct.items():
                _bin_power(basis, block, work, bins[key][turn:turn + len(block)], start > 0)
    if "ofdm" in bins:
        bins["ofdm"] *= n
    powers = (_shaped(pulse, bins[key], work("shaped", draws, ln))
              for key, (_, pulse) in zip(keys, shapes))
    return powers if kept else [power.copy() for power in powers]


def _trial_layout(config: TrialConfig) -> list:
    """run_trials' layout: the draw, ACF rows and their sum, one block's |r|^2 and theirs."""
    half, block = config.pulse.l * config.pulse.n // 2 + 1, min(_SE_BLOCK, config.trials)
    return _draw_layout(config.constellation, [(config.basis, config.pulse)], config.m) + [
        ("rows", complex, half, half), ("sq", float, 0, (block + 1) * half)]


def _batch_trials(config: TrialConfig) -> int:
    """Trials per batch: _batch of _trial_layout under _BATCH_BYTES."""
    return _batch(_trial_layout(config), _BATCH_BYTES)


def _merged(count: int, mean: np.ndarray, m2: np.ndarray,
            rows: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Merge rows into the count, mean and summed squared deviations of earlier rows.

    The rows' mean and squared deviations (which overwrite them) take two
    passes; the merge is Chan, Golub & LeVeque's (1979): with d the
    difference of the means, the count-weighted d moves the mean and d^2
    times count * len(rows) / total adds to m2.
    """
    size = len(rows)
    total = count + size
    block_mean = np.add.reduce(rows, axis=0) / size
    for row in rows:  # no operand broadcast, so no iterator buffers
        row -= block_mean
    rows **= 2
    delta = block_mean - mean
    return (total, mean + delta * (size / total),
            m2 + np.add.reduce(rows, axis=0) + delta**2 * (count * size / total))


def run_trials(config: TrialConfig) -> MonteCarloResult:
    """Monte Carlo estimate of the ACF mean and squared magnitude per lag.

    Trials are drawn by _blocks in batches of _batch_trials, in one
    _Workspace of _trial_layout.  A batch adds its trials' ACF rows r over
    lags 0..ln//2 (ihfft of the power) to their running sum in trial order
    (_fold_rows); a block keeps its rows' |r|^2 until its end, adds them to
    their running sum and merges them into the standard error's statistics
    (_merged), so no bit depends on the batch size.  mean_sq and mean are
    the sums over the trial count t, var is mean_sq - |mean|^2, and
    se = sqrt(sum (|r|^2 - mean_sq)^2 / (t (t - 1))) is mean_sq's standard error.
    """
    pulse, basis, m, t = config.pulse, config.basis, config.m, config.trials
    ln = pulse.l * pulse.n
    lags = np.arange(ln)
    fold, mirrored = fold_lags(ln, lags)
    chunk = min(t, _batch_trials(config))
    work = _Workspace(_trial_layout(config), chunk)
    # row 0 of each holds the running sum over all trials so far
    rows = work("rows", chunk + 1, ln // 2 + 1)
    sq = work("sq", min(_SE_BLOCK, t) + 1, ln // 2 + 1)  # a block's |r|^2
    count, sq_mean, m2 = 0, 0.0, 0.0
    for (rng,), batches in _blocks(config.seed, [_TAG_SYMBOLS], t, chunk):
        first, size = batches[0][0], sum(drawn for _, drawn in batches)
        for start, drawn in batches:
            power = next(drawn_power(config.constellation, [(basis, pulse)], m, rng, drawn, work))
            np.divide(power, m, out=power)
            batch = np.fft.ihfft(power, axis=-1, out=rows[1:drawn + 1])
            place = np.abs(batch, out=sq[1 + start - first:][:drawn])
            place **= 2
            _fold_rows(rows, drawn)
        _fold_rows(sq, size)
        count, sq_mean, m2 = _merged(count, sq_mean, m2, sq[1:size + 1])
    mean_sq = sq[0] / t
    se = np.sqrt(m2 / (t * (t - 1)))
    mean = rows[0] / t
    var = mean_sq - np.abs(mean) ** 2
    mean = np.where(mirrored, np.conj(mean[fold]), mean[fold])
    return MonteCarloResult(lags, mean_sq[fold], se[fold], mean, var[fold])
