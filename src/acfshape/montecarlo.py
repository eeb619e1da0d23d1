"""Empirical ACF statistics for validating the closed forms.

Each trial draws m independent symbol blocks and averages their m
periodic ACFs into one estimate.  A periodic ACF is the inverse DFT of
the power spectrum, so a trial never builds the shaped signal: it
averages the slots' power spectra (slot_power) and takes one inverse
transform.  slot_power reads each block's spectrum straight from the
symbols through the basis spectral map W = sqrt(n) F U (an FFT for single
carrier, sqrt(n) times the symbols for OFDM, one product otherwise).  The
power is real, so its ACF is Hermitian, r[ln - k] = conj(r[k]): the inverse
transform is the half-length ihfft over lags 0..ln//2, the statistics are
reduced over trials there, and the requested lags are folded onto that half
at the end (fold_lags).

Trial t draws from its own generator, stream(seed, _TAG_SYMBOLS, t), so
results do not depend on batching or execution order.  stream builds every
seeded generator in the package, and drawn_power draws the slots of Monte
Carlo trials and ranging runs alike.  On OFDM the slot-summed power of
subcarrier j is n times the sum of the m symbols' |s|^2, which depends only
on how many of them fall in each power class of the alphabet; for a finite
alphabet with more slots than classes, drawn_power draws those class counts
(multinomial, the points being equiprobable) instead of the m * n symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constellation import ConstellationSpec, sample_symbols
from .acfstats import check_slots, fold_lags
from .modulation import ModulationBasis
from .pulse import NyquistPulse, assemble_full_spectrum

__all__ = [
    "TrialConfig",
    "MonteCarloResult",
    "slot_power",
    "stream",
    "drawn_power",
    "run_trials",
]

# stream tags: Monte Carlo trials, ranging sweep runs, illustrative range profiles
_TAG_SYMBOLS = 1
_TAG_RANGING = 2
_TAG_PROFILE = 3

# slots drawn per chunk of a trial or run; memory only, not results
_SLOT_CHUNK = 512

# Complex workspace per batch of trials.  Only memory layout depends on
# the batch size; the per-trial generators make the numbers identical
# for any batching.
_BATCH_BYTES = 1 << 25


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


def slot_power(
    pulse: NyquistPulse, basis: ModulationBasis, symbols: np.ndarray
) -> np.ndarray:
    """Slot-summed power spectrum P = sum_s |X_s|^2 over all l*n bins.

    symbols has shape (..., m, n); the slot axis -2 is summed out.  Block
    s has the length-n spectrum X = W s with W = sqrt(n) F U the basis
    spectral map: fft(s) for single carrier, sqrt(n) s for OFDM (so its
    power is n |s|^2 with no transform) and s @ W.T for the dense kinds.
    Zero-insertion upsampling replicates that spectrum l times and the
    pulse weights bin f by l * G[f] (G from assemble_full_spectrum), so the
    power is formed at length n and broadcast against the (l, n) view of
    l * G.  ifft(P) is the sum of the m periodic ACFs.
    """
    s = np.asarray(symbols, dtype=complex)
    if s.shape[-1] != basis.n:
        raise ValueError(f"symbol block length {s.shape[-1]} != basis size {basis.n}")
    if basis.kind == "ofdm":
        power = basis.n * np.sum(np.abs(s) ** 2, axis=-2)
    else:
        xf = np.fft.fft(s, axis=-1) if basis.kind == "sc" else s @ basis.spectral_map.T
        power = np.sum(np.abs(xf) ** 2, axis=-2)
    return _shaped(pulse, power)


def _shaped(pulse: NyquistPulse, power: np.ndarray) -> np.ndarray:
    """Bin power (..., n) weighted by l * G over the l replicas, (..., l * n)."""
    gain = (pulse.l * assemble_full_spectrum(pulse)).reshape(pulse.l, pulse.n)
    return (power[..., None, :] * gain).reshape(*power.shape[:-1], pulse.l * pulse.n)


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


def drawn_power(constellation: ConstellationSpec, basis: ModulationBasis, pulse: NyquistPulse,
                m: int, rngs: list[np.random.Generator],
                symbols: np.ndarray | None = None) -> np.ndarray:
    """Slot-summed power spectrum, (len(rngs), l * n), of m fresh slots per generator.

    Where _class_law applies, each generator in rngs order makes one draw,
    rng.multinomial(m, probs, size=n), of the class counts N per subcarrier,
    and P_j = n * sum_c N_jc * level_c (a sum, so no BLAS call).  Otherwise
    each chunk of up to _SLOT_CHUNK slots takes one sample_symbols call per
    generator, in rngs order, and adds the chunk's slot_power.  Several
    generators' draws are gathered into the workspace symbols, a contiguous
    complex array of at least len(rngs) * min(m, _SLOT_CHUNK) * n entries
    (None allocates one for this call); a caller that keeps it across calls
    spares the heap a trim and refault on each.  A single generator's draw
    is already one contiguous block and is used as it comes, with no copy
    and no workspace to refault.
    """
    n = pulse.n
    law = _class_law(constellation, basis, m)
    if law is not None:
        levels, probs = law
        counts = np.array([rng.multinomial(m, probs, size=n) for rng in rngs])
        return _shaped(pulse, n * np.sum(counts * levels, axis=-1))
    if symbols is None and len(rngs) > 1:
        symbols = np.empty(len(rngs) * min(m, _SLOT_CHUNK) * n, dtype=complex)
    power = np.zeros((len(rngs), pulse.l * n))
    for start in range(0, m, _SLOT_CHUNK):
        count = min(_SLOT_CHUNK, m - start)
        if len(rngs) == 1:
            block = sample_symbols(constellation, (count, n), rngs[0])[None]
        else:
            block = symbols.reshape(-1)[:len(rngs) * count * n].reshape(len(rngs), count, n)
            for rng, slots in zip(rngs, block):
                slots[...] = sample_symbols(constellation, (count, n), rng)
        power += slot_power(pulse, basis, block)
    return power


def run_trials(config: TrialConfig) -> MonteCarloResult:
    """Monte Carlo estimate of the ACF mean and squared magnitude per lag."""
    pulse, basis, m = config.pulse, config.basis, config.m
    ln = pulse.l * pulse.n
    lags = np.arange(ln) if config.lags is None else np.atleast_1d(config.lags)
    fold, mirrored = fold_lags(ln, lags)
    acf_rows = np.empty((config.trials, ln // 2 + 1), dtype=complex)
    law = _class_law(config.constellation, basis, m) is not None
    chunk = min(config.trials, max(1, _BATCH_BYTES // ((1 if law else m) * ln * 16)))
    symbols = None if law else np.empty((chunk, min(m, _SLOT_CHUNK), pulse.n), dtype=complex)
    for start in range(0, config.trials, chunk):
        rngs = [stream(config.seed, _TAG_SYMBOLS, t)
                for t in range(start, min(start + chunk, config.trials))]
        power = drawn_power(config.constellation, basis, pulse, m, rngs, symbols) / m
        acf_rows[start:start + len(rngs)] = np.fft.ihfft(power, axis=-1)
    sq = np.abs(acf_rows) ** 2
    mean_sq = sq.mean(axis=0)
    resid = sq - mean_sq
    t = config.trials
    se = np.sqrt(np.sum(resid**2, axis=0) / (t * (t - 1)))
    mean = acf_rows.mean(axis=0)
    var = mean_sq - np.abs(mean) ** 2
    mean = np.where(mirrored, np.conj(mean[fold]), mean[fold])
    return MonteCarloResult(lags, mean_sq[fold], se[fold], mean, var[fold])
