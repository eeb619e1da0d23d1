"""Matched-filter ranging over multi-target echoes of shaped random signals.

A scene is a handful of on-grid point targets at fixed delays.  Each
slot's echo is a sum of cyclically delayed copies of a fresh shaped
signal plus circular complex Gaussian noise, and the matched filter
correlates it against that slot's signal.  Coherent integration averages
the matched-filter output over data slots while the targets stay put,
which lowers both the noise floor and the data-induced sidelobe variance.
The averaged output depends on the symbols only through their
slot-summed power spectrum, so a run works on that spectrum and never
builds the signals or the echoes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constellation import ConstellationSpec, sample_symbols
from .modulation import ModulationBasis
from .montecarlo import slot_power
from .pulse import NyquistPulse

__all__ = [
    "SPEED_OF_LIGHT",
    "Target",
    "RangingScenario",
    "sample_period_s",
    "range_per_lag_m",
    "lag_for_range",
    "range_for_lag",
    "resolution_cell_m",
    "run_once",
    "estimate_range",
    "detection_success",
    "rmse_sweep",
]

SPEED_OF_LIGHT = 299_792_458.0

_TAG_RANGING = 2

# slots drawn per batch inside one run; memory only, not results
_SLOT_CHUNK = 512


@dataclass(frozen=True)
class Target:
    """Point scatterer at a fixed delay on the oversampled grid."""

    delay: int
    amplitude: complex = 1.0 + 0.0j
    label: str = ""


@dataclass(frozen=True)
class RangingScenario:
    """Scene plus waveform for one ranging experiment.

    The region of interest is an inclusive lag window (lo, hi) searched for
    the weak-target peak.  noise_var is the per-sample variance of the
    circular complex noise; m is the number of coherently averaged slots.
    """

    constellation: ConstellationSpec
    basis: ModulationBasis
    pulse: NyquistPulse
    targets: tuple[Target, ...]
    roi: tuple[int, int]
    noise_var: float = 0.0
    m: int = 1
    bandwidth_hz: float = 200e6

    def __post_init__(self):
        if self.basis.n != self.pulse.n:
            raise ValueError(
                f"basis size {self.basis.n} does not match pulse block {self.pulse.n}"
            )
        grid = self.pulse.n * self.pulse.l
        delays = [t.delay for t in self.targets]
        for d in delays:
            if not 0 <= d < grid:
                raise ValueError(f"target delay {d} outside the grid [0, {grid - 1}]")
        if len(set(delays)) != len(delays):
            raise ValueError("target delays must be distinct")
        lo, hi = self.roi
        if not (0 <= lo <= hi < grid):
            raise ValueError(f"roi {self.roi} outside the grid [0, {grid - 1}]")
        if self.noise_var < 0:
            raise ValueError(f"noise variance must be >= 0, got {self.noise_var}")
        if self.m < 1:
            raise ValueError(f"integration count must be >= 1, got {self.m}")

    @property
    def grid(self) -> int:
        return self.pulse.n * self.pulse.l


def sample_period_s(bandwidth_hz: float, l: int) -> float:
    """Sample spacing in seconds: the grid runs l times the signal band."""
    return 1.0 / (l * bandwidth_hz)


def range_per_lag_m(bandwidth_hz: float, l: int) -> float:
    """Two-way range covered by one lag step."""
    return SPEED_OF_LIGHT * sample_period_s(bandwidth_hz, l) / 2.0


def lag_for_range(range_m: float, bandwidth_hz: float, l: int) -> int:
    """Nearest on-grid lag for a range in meters."""
    return int(round(range_m / range_per_lag_m(bandwidth_hz, l)))


def range_for_lag(lag: int, bandwidth_hz: float, l: int) -> float:
    """Range in meters of an on-grid lag."""
    return lag * range_per_lag_m(bandwidth_hz, l)


def resolution_cell_m(bandwidth_hz: float, l: int) -> float:
    """Half the mainlobe extent in range: l lags, one symbol duration."""
    return range_per_lag_m(bandwidth_hz, l) * l


def run_once(scenario: RangingScenario, rng: np.random.Generator) -> np.ndarray:
    """One integrated range profile: |mean of m matched-filter outputs|^2.

    Each slot carries fresh symbols and fresh noise against the static
    targets.  Slot s's matched filter is ifft(conj(X_s) * Y_s) with
    Y_s = X_s * H + N_s, where H = fft(channel) and the channel holds each
    target's amplitude at its delay.  Summed over the slots this is
    ifft(P * H + W) with P the slot-summed power spectrum (slot_power).
    The DFT of white circular noise is white, so given the symbols W is
    circular Gaussian, independent per bin, with variance
    noise_var * l * n * P: one draw replaces the m per-slot noise records.
    """
    n, m, grid = scenario.pulse.n, scenario.m, scenario.grid
    power = np.zeros(grid)
    for start in range(0, m, _SLOT_CHUNK):
        count = min(_SLOT_CHUNK, m - start)
        symbols = sample_symbols(scenario.constellation, (count, n), rng)
        power += slot_power(scenario.pulse, scenario.basis, symbols)
    channel = np.zeros(grid, dtype=complex)
    for t in scenario.targets:
        channel[t.delay] = t.amplitude
    spectrum = power * np.fft.fft(channel)
    if scenario.noise_var > 0:
        scale = np.sqrt(scenario.noise_var * grid * power / 2.0)
        spectrum += scale * (rng.standard_normal(grid) + 1j * rng.standard_normal(grid))
    return np.abs(np.fft.ifft(spectrum) / m) ** 2


def estimate_range(
    profile: np.ndarray, roi: tuple[int, int], bandwidth_hz: float, l: int
) -> tuple[float, float]:
    """Peak pick inside the inclusive lag window, mapped to meters.

    Returns (range_m, peak_db) where peak_db is the peak level relative to
    the profile's global maximum.  Ties go to the smallest lag.
    """
    lo, hi = roi
    if not 0 <= lo <= hi < len(profile):
        raise ValueError(f"roi {roi} outside the profile of length {len(profile)}")
    window = profile[lo:hi + 1]
    lag = lo + int(np.argmax(window))
    top = float(np.max(profile))
    peak_db = 10.0 * np.log10(window.max() / top) if top > 0 else 0.0
    return range_for_lag(lag, bandwidth_hz, l), peak_db


def detection_success(
    estimate_m: float, true_m: float, bandwidth_hz: float, l: int
) -> bool:
    """Hit when the estimate lands within half a resolution cell."""
    return abs(estimate_m - true_m) <= resolution_cell_m(bandwidth_hz, l) / 2.0


def _run_generator(seed: int, run: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, _TAG_RANGING, run)))


def _with_phases(
    scenario: RangingScenario, rng: np.random.Generator
) -> RangingScenario:
    """Redraw every target phase uniformly, keeping magnitudes."""
    targets = tuple(
        replace(t, amplitude=abs(t.amplitude) * np.exp(2j * np.pi * rng.random()))
        for t in scenario.targets
    )
    return replace(scenario, targets=targets)


def rmse_sweep(
    scenario: RangingScenario,
    true_range_m: float,
    snr_grid_db,
    runs: int,
    seed: int,
    amplitude_ref: float = 1.0,
) -> list[dict[str, float]]:
    """Range error statistics of the roi peak across an SNR grid.

    SNR is the strong-path per-sample received power over the noise
    variance: each sample carries amplitude_ref^2 / l of signal power, so
    noise_var = amplitude_ref^2 / (l * 10^(snr/10)).  Every run redraws
    target phases, symbols, and noise from its own substream, making rows
    independent of execution order.  Returns one dict per SNR with keys
    snr_db, rmse_m, rmse_hits_m, success_rate (rmse_hits_m is NaN when no
    run succeeds; callers serialize it as an empty field).
    """
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    bw, l = scenario.bandwidth_hz, scenario.pulse.l
    rows = []
    for snr_db in snr_grid_db:
        noise_var = amplitude_ref**2 / (l * 10.0 ** (snr_db / 10.0))
        base = replace(scenario, noise_var=noise_var)
        errors = np.empty(runs)
        hits = np.zeros(runs, dtype=bool)
        for run in range(runs):
            rng = _run_generator(seed, run)
            scene = _with_phases(base, rng)
            profile = run_once(scene, rng)
            est_m, _ = estimate_range(profile, scene.roi, bw, l)
            errors[run] = est_m - true_range_m
            hits[run] = detection_success(est_m, true_range_m, bw, l)
        rate = float(np.mean(hits))
        rmse_all = float(np.sqrt(np.mean(errors**2)))
        rmse_hits = float(np.sqrt(np.mean(errors[hits] ** 2))) if hits.any() else float("nan")
        rows.append(
            {
                "snr_db": float(snr_db),
                "rmse_m": rmse_all,
                "rmse_hits_m": rmse_hits,
                "success_rate": rate,
            }
        )
    return rows
