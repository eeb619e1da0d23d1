"""Matched-filter ranging over multi-target echoes of shaped random signals.

A scene is a handful of on-grid point targets at fixed delays.  Each
slot's echo is a sum of cyclically delayed copies of a fresh shaped
signal plus circular complex Gaussian noise, and the matched filter
correlates it against that slot's signal.  Coherent integration averages
the matched-filter output over data slots while the targets stay put,
which lowers both the noise floor and the data-induced sidelobe variance.
The averaged output depends on the symbols only through their
slot-summed power spectrum (montecarlo.drawn_power), so a run never
builds the signals or the echoes, and the inverse FFT is linear, so it
takes two inverse FFTs, of the target echo and of its unit noise record
(drawn on the pulse's 2n band bins only), and scores every SNR point by
adding the scaled noise term on the lags it searches.  Each run draws
from its own generator, the same in every scenario, so scenarios whose
runs make identical draws (one draw group) are swept together, runs
outer and scenarios inner, each batch of runs drawn once for the group:
the common-random-numbers arrangement.  The SNR rule (noise_variance)
serves the sweep and the profiles in dB of their own peak (profile_db).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acfstats import DB_FLOOR, _fold_rows, check_slots
from .constellation import ConstellationSpec
from .modulation import ModulationBasis
from .montecarlo import (_SLOT_CHUNK, _TAG_PROFILE, _TAG_RANGING, _class_law, drawn_power,
                         stream)
from .pulse import NyquistPulse

__all__ = [
    "SPEED_OF_LIGHT",
    "Target",
    "RangingScenario",
    "range_per_lag_m",
    "lag_for_range",
    "range_for_lag",
    "resolution_cell_m",
    "noise_variance",
    "run_once",
    "profile_db",
    "rmse_sweep",
    "rmse_sweeps",
]

SPEED_OF_LIGHT = 299_792_458.0

# SNR points scored per draw in a sweep; memory only, not results
_SNR_BLOCK = 64
# workspace per batch of sweep runs; memory only, not results
_BATCH_BYTES = 1 << 20


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
    the weak-target peak; m is the number of coherently averaged slots.
    """

    constellation: ConstellationSpec
    basis: ModulationBasis
    pulse: NyquistPulse
    targets: tuple[Target, ...]
    roi: tuple[int, int]
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
        check_slots(self.m)

    @property
    def grid(self) -> int:
        return self.pulse.n * self.pulse.l


def range_per_lag_m(bandwidth_hz: float, l: int) -> float:
    """Two-way range covered by one lag step; the grid runs l times the band."""
    sample_period_s = 1.0 / (l * bandwidth_hz)
    return SPEED_OF_LIGHT * sample_period_s / 2.0


def lag_for_range(range_m: float, bandwidth_hz: float, l: int) -> int:
    """Nearest on-grid lag for a range in meters."""
    return int(round(range_m / range_per_lag_m(bandwidth_hz, l)))


def range_for_lag(lag: int, bandwidth_hz: float, l: int) -> float:
    """Range in meters of an on-grid lag."""
    return lag * range_per_lag_m(bandwidth_hz, l)


def resolution_cell_m(bandwidth_hz: float, l: int) -> float:
    """Half the mainlobe extent in range: l lags, one symbol duration."""
    return range_per_lag_m(bandwidth_hz, l) * l


def noise_variance(snr_db: float, l: int, amplitude_ref: float = 1.0) -> float:
    """Noise variance at snr_db, the strong path's per-sample power over that variance.

    Each sample carries amplitude_ref^2 / l of signal power, so
    noise_var = amplitude_ref^2 / (l * 10^(snr/10)).
    """
    return amplitude_ref**2 / (l * 10.0 ** (snr_db / 10.0))


def run_once(scenario: RangingScenario, rng: np.random.Generator, noise_var=0.0) -> np.ndarray:
    """Integrated range profiles |mean of m matched-filter outputs|^2.

    Each slot carries fresh symbols and fresh noise against the static
    targets.  Slot s's matched filter is ifft(conj(X_s) * Y_s) with
    Y_s = X_s * H + N_s, where H = fft(channel) and the channel holds each
    target's amplitude at its delay.  Summed over the slots this is
    ifft(P * H + W) with P the slot-summed power spectrum (drawn_power).
    The DFT of white circular noise is white, so given the symbols W is
    circular Gaussian, independent per bin, with variance
    noise_var * l * n * P: one draw replaces the m per-slot noise records.
    P is zero outside the pulse's band, so W is drawn on its 2n bins only.
    A 1-D noise_var gives one row per variance, all from the same draw.
    The generator gives the symbols, then the unit noise record of 4n
    normals, always drawn, even at zero variance.
    """
    variances = np.asarray(noise_var, dtype=float)
    if variances.ndim > 1 or not np.all(variances >= 0):
        raise ValueError(f"noise variance must be a scalar or 1-D, each >= 0, got {noise_var}")
    amplitudes = np.array([[t.amplitude for t in scenario.targets]], dtype=complex)
    grid = scenario.grid
    (power,), noise, spectrum = _drawn([scenario], [rng], amplitudes)
    profiles = _profiles(scenario, power, noise, spectrum, variances.reshape(-1), (0, grid - 1))
    return profiles[0].reshape(variances.shape + (grid,))


def profile_db(scenario: RangingScenario, snr_db: float, seed: int, index: int,
               amplitude_ref: float = 1.0) -> np.ndarray:
    """Illustrative range profile in dB of its own peak, floored at DB_FLOOR.

    One run_once at the SNR's noise_variance, drawn from
    stream(seed, _TAG_PROFILE, index), apart from every sweep run.
    """
    noise_var = noise_variance(snr_db, scenario.pulse.l, amplitude_ref)
    profile = run_once(scenario, stream(seed, _TAG_PROFILE, index), noise_var)
    top = float(np.max(profile))
    with np.errstate(divide="ignore"):  # an all-zero profile sits on the floor
        db = 10.0 * np.log10(np.zeros_like(profile) if top == 0.0 else profile / top)
    return np.maximum(db, DB_FLOOR)


def _drawn(
    group: list[RangingScenario],
    rngs: list[np.random.Generator],
    amplitudes: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The draws of a batch of runs, shared by every scenario of one draw group.

    Run b draws from rngs[b], its symbols (or class counts) through
    drawn_power, one power spectrum per scenario, then its unit noise record
    of 4n normals; its targets carry amplitudes[b].  Returns the powers,
    the records, shape (runs, 2, 2, n), and the channel spectrum H =
    fft(channel), where the channel holds each target's amplitude at its
    delay.
    """
    first = group[0]
    n, grid = first.pulse.n, first.grid
    shapes = [(s.basis, s.pulse) for s in group]
    powers = drawn_power(first.constellation, shapes, first.m, [(rng, 1) for rng in rngs])
    noise = np.empty((len(rngs), 2, 2, n))
    for rng, record in zip(rngs, noise):
        rng.standard_normal(out=record)
    channel = np.zeros((len(rngs), grid), dtype=complex)
    channel[:, [t.delay for t in first.targets]] = amplitudes
    return powers, noise, np.fft.fft(channel, axis=-1)


def _profiles(
    scenario: RangingScenario,
    power: np.ndarray,
    noise: np.ndarray,
    spectrum: np.ndarray,
    variances: np.ndarray,
    window: tuple[int, int],
) -> np.ndarray:
    """run_once for a batch of drawn runs (_drawn), on the inclusive lag window only.

    The pulse puts P on the band's 2n bins, 0..n-1 and (l-1)*n..l*n-1, and
    nowhere else, so the unit record V is 2n real parts, then 2n imaginary
    parts, on those bins in that order, and zero elsewhere; at l = 2 the
    band is the whole grid.  With S = sqrt(l * n * P / 2),
    ifft(P * H + sqrt(v) * S * V) = ifft(P * H) + sqrt(v) * ifft(S * V),
    so two inverse FFTs serve every variance.  Returns shape
    (runs, variances, hi - lo + 1).
    """
    m, grid, l, n = scenario.m, scenario.grid, scenario.pulse.l, scenario.pulse.n
    lo, hi = window
    echo = np.fft.ifft(power * spectrum, axis=-1)[:, None, lo:hi + 1]
    # the band is blocks 0 and l - 1 of the (l, n) view; P is zero on the rest
    band = np.zeros((len(power), l, n), dtype=complex)
    occupied = band[:, ::l - 1]
    occupied.real, occupied.imag = noise[:, 0], noise[:, 1]
    occupied *= np.sqrt(grid * power.reshape(-1, l, n)[:, ::l - 1] / 2.0)
    spread = np.fft.ifft(band.reshape(-1, grid), axis=-1)[:, None, lo:hi + 1]
    return np.abs((echo + np.sqrt(variances)[:, None] * spread) / m) ** 2


def _drawn_amplitudes(scenario: RangingScenario, rng: np.random.Generator) -> np.ndarray:
    """Target amplitudes with every phase redrawn uniformly, magnitudes kept."""
    magnitudes = np.array([abs(t.amplitude) for t in scenario.targets])
    return magnitudes * np.exp(2j * np.pi * rng.random(magnitudes.size))


def rmse_sweep(
    scenario: RangingScenario,
    true_range_m: float,
    snr_grid_db,
    runs: int,
    seed: int,
    amplitude_ref: float = 1.0,
) -> list[dict[str, float]]:
    """Range error statistics of the roi peak across an SNR grid: rmse_sweeps of one scenario."""
    return rmse_sweeps([scenario], true_range_m, snr_grid_db, runs, seed, amplitude_ref)[0]


def rmse_sweeps(
    scenarios: list[RangingScenario],
    true_range_m: float,
    snr_grid_db,
    runs: int,
    seed: int,
    amplitude_ref: float = 1.0,
) -> list[list[dict[str, float]]]:
    """Range error statistics of the roi peak across an SNR grid, per scenario.

    Each SNR point sets its noise_variance.  Run r draws target phases,
    symbols and noise from its own stream, stream(seed, _TAG_RANGING, r),
    and every SNR point scores that one draw, so rows are independent of
    execution order.  A draw group (_draw_groups) draws each batch of runs
    once and scores its scenarios on it one after another.  Each block of
    _SNR_BLOCK points redraws run r from scratch.  Runs are scored in
    batches sized by _BATCH_BYTES.  The estimate is the range of the roi
    peak, ties going to the lowest lag, and a run hits when it lands
    within half a resolution cell of the truth.
    Returns, in scenario order, one list per scenario of one dict per SNR
    with keys snr_db, rmse_m, rmse_hits_m, success_rate (rmse_hits_m is NaN
    when no run succeeds; callers serialize it as an empty field).
    """
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    snr_grid_db = list(snr_grid_db)
    rows: list = [None] * len(scenarios)
    for members in _draw_groups(scenarios):
        group = [scenarios[k] for k in members]
        for k, group_rows in zip(members, _group_sweep(group, true_range_m, snr_grid_db, runs,
                                                       seed, amplitude_ref)):
            rows[k] = group_rows
    return rows


def _draw_groups(scenarios: list[RangingScenario]) -> list[list[int]]:
    """Indices of the scenarios whose runs make identical draws, in first-seen order.

    Those share the target delays and magnitudes, the roi, n and l, the
    constellation, m and the draw path (slots, or OFDM class counts);
    bases, pulses and bandwidths may differ.
    """
    groups: dict[tuple, list[int]] = {}
    for k, s in enumerate(scenarios):
        key = (tuple((t.delay, abs(t.amplitude)) for t in s.targets), s.roi, s.pulse.n,
               s.pulse.l, s.constellation.kind, s.constellation.points.tobytes(), s.m,
               _class_law(s.constellation, s.basis, s.m) is None)
        groups.setdefault(key, []).append(k)
    return list(groups.values())


def _group_sweep(group: list[RangingScenario], true_range_m: float, snr_grid_db: list,
                 runs: int, seed: int, amplitude_ref: float) -> list[list[dict[str, float]]]:
    """rmse_sweeps over one draw group, one row list per scenario, from sums kept in run order."""
    first = group[0]
    l = first.pulse.l
    lo, hi = first.roi
    steps = np.array([range_per_lag_m(s.bandwidth_hz, l) for s in group])[:, None]
    half_cells = np.array([resolution_cell_m(s.bandwidth_hz, l) / 2 for s in group])[:, None]
    rows: list[list] = [[] for _ in group]
    for start in range(0, len(snr_grid_db), _SNR_BLOCK):
        block = snr_grid_db[start:start + _SNR_BLOCK]
        variances = np.array([noise_variance(snr_db, l, amplitude_ref) for snr_db in block])
        batch = _batch_runs(group, len(block) * (hi - lo + 1))
        # row 0: the running sums, then one row per run of the batch (_fold_rows)
        terms = np.zeros((batch + 1, 3, len(group), len(block)))
        for begin in range(0, runs, batch):
            rngs = [stream(seed, _TAG_RANGING, r) for r in range(begin, min(begin + batch, runs))]
            errors = _peak_lags(group, rngs, variances) * steps - true_range_m
            squared, hit, hit_squared = terms[1:len(rngs) + 1].transpose(1, 0, 2, 3)
            np.square(errors, out=squared)
            np.less_equal(np.abs(errors), half_cells, out=hit)
            np.multiply(squared, hit, out=hit_squared)
            _fold_rows(terms, len(rngs))
            del rngs, errors  # not held through the next batch's draw
        for scored, *sums in zip(rows, *terms[0]):
            for snr_db, squared, hits, hit_squared in zip(block, *sums):
                rmse_hits = float(np.sqrt(hit_squared / hits)) if hits else float("nan")
                scored.append({"snr_db": float(snr_db), "rmse_m": float(np.sqrt(squared / runs)),
                               "rmse_hits_m": rmse_hits, "success_rate": float(hits / runs)})
    return rows


def _peak_lags(group: list[RangingScenario], rngs: list[np.random.Generator],
               variances: np.ndarray) -> np.ndarray:
    """Roi peak lag per run, scenario and variance of one batch, (runs, scenarios, variances).

    The batch is drawn once (_drawn) and its scenarios are scored on it
    one after another, so one scenario's workspace is alive at a time.
    """
    first = group[0]
    lo, hi = first.roi
    amplitudes = np.array([_drawn_amplitudes(first, rng) for rng in rngs])
    powers, noise, spectrum = _drawn(group, rngs, amplitudes)
    lags = np.empty((len(rngs), len(group), len(variances)), dtype=int)
    for k, (scenario, power) in enumerate(zip(group, powers)):
        profiles = _profiles(scenario, power, noise, spectrum, variances, (lo, hi))
        lags[:, k] = lo + np.argmax(profiles, axis=-1)
    return lags


def _batch_runs(group: list[RangingScenario], scored: int) -> int:
    """Runs per batch of a draw group, so that the arrays a batch allocates fit _BATCH_BYTES.

    Per run, in complex entries: the group's draw, once (a slot chunk's
    symbols, spectrum, magnitude and power, or the class counts and their
    weighted levels); each scenario's power spectrum and one shaped product
    added to it (half a grid each, being real); the channel and its FFT;
    then one scenario's workspace at a time: the echo spectrum and its
    inverse, the band noise spectrum and its inverse, the noise record and
    the band scale (4n together), and its scored roi points, sum, squares.
    Then, in reals per scenario and SNR point: the three running-sum terms,
    the int peak lag and the error made from it.
    """
    first = group[0]
    n, grid = first.pulse.n, first.grid
    lo, hi = first.roi
    law = _class_law(first.constellation, first.basis, first.m)
    draw = law[0].size * n if law is not None else 3 * min(first.m, _SLOT_CHUNK) * n
    per_run = 16 * (draw + (len(group) + 1) * grid // 2 + 6 * grid + 4 * n + 3 * scored)
    per_run += 8 * 5 * len(group) * (scored // (hi - lo + 1))
    return max(1, _BATCH_BYTES // per_run)
