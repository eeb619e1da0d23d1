"""Matched-filter ranging over multi-target echoes of shaped random signals.

A scene is a handful of on-grid point targets at fixed delays.  Each
slot's echo is a sum of cyclically delayed copies of a fresh shaped
signal plus circular complex Gaussian noise, and the matched filter
correlates it against that slot's signal.  Coherent integration averages
the matched-filter output over data slots while the targets stay put,
which lowers both the noise floor and the data-induced sidelobe variance.
The averaged output depends on the symbols only through their
slot-summed power spectrum P (montecarlo.drawn_power), so a run never
builds the signals or the echoes: the echo is the ACF row ifft(P) read at
each target's delay, and the noise term, whose record is drawn on the
pulse's 2n band bins only, takes one inverse FFT for every SNR point.
A sweep draws its runs by montecarlo._blocks, one stream per kind of
draw, so scenarios whose runs make identical draws (a draw group) are
swept together, each batch drawn once: common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acfstats import _BATCH_BYTES, DB_FLOOR, _fold_rows, check_slots, fold_lags
from .constellation import ConstellationSpec
from .modulation import ModulationBasis
from .montecarlo import (_TAG_PROFILE, _TAG_RUNS, _Workspace, _batch, _blocks, _class_law,
                         _draw_layout, drawn_power, stream)
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
    targets.  Slot s's matched filter is ifft(conj(X_s) * Y_s) with Y_s =
    X_s * H + N_s, H the spectrum of the targets' amplitudes at their
    delays.  Summed over the slots this is ifft(P * H + W) with P the
    slot-summed power spectrum (drawn_power), so the echo term is the ACF
    row ifft(P) delayed to each target and weighted by its amplitude.  The
    DFT of white circular noise is white, so given the symbols W is circular
    Gaussian, independent per bin, of variance noise_var * l * n * P, zero
    off the pulse's band: one draw on its 2n bins replaces the m per-slot
    records.  A 1-D noise_var gives one row per variance from one draw: the
    symbols, then 4n normals, even at 0.
    """
    variances = np.asarray(noise_var, dtype=float)
    if variances.ndim > 1 or not np.all(variances >= 0):
        raise ValueError(f"noise variance must be a scalar or 1-D, each >= 0, got {noise_var}")
    amplitudes = np.array([[t.amplitude for t in scenario.targets]], dtype=complex)
    window = (0, scenario.grid - 1)
    work = _workspace([scenario], 1, window, variances.size * scenario.grid)
    (power,), noise = _drawn([scenario], rng, rng, 1, work)
    profiles = _profiles(scenario, power, noise, amplitudes, variances.reshape(-1), window, work)
    return profiles[:, 0].reshape(variances.shape + (scenario.grid,))


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
    symbols: np.random.Generator,
    noise: np.random.Generator,
    count: int,
    work: _Workspace,
) -> tuple:
    """count runs' power spectra, one per scenario of a draw group in turn (drawn_power
    into work), and noise records, each run's 4n unit normals from noise, (count, 2, 2, n)."""
    first = group[0]
    powers = drawn_power(first.constellation, [(s.basis, s.pulse) for s in group], first.m,
                         symbols, count, work)
    return powers, noise.standard_normal(out=work("noise", count, 2, 2, first.pulse.n))


def _run_layout(group: list[RangingScenario], window: tuple[int, int], scored: int) -> list:
    """A run's _Workspace layout for a draw group scored at scored points of the window: the draw,
    the noise record, _profiles' arrays and five reals per scenario and SNR point (the sums)."""
    first, width = group[0], window[1] - window[0] + 1
    n, grid = first.pulse.n, first.grid
    return _draw_layout(first.constellation, [(s.basis, s.pulse) for s in group], first.m) + [
        ("noise", float, 4 * n, 0), ("acf", complex, grid // 2 + 1, 0),
        ("gathered", complex, len(first.targets) * width, 0), ("echo", complex, width, 0),
        ("scale", complex, 2 * n, 0), ("record", complex, 2 * n, 0), ("band", complex, grid, 0),
        ("spread", complex, grid, 0), ("window", complex, width, 0),
        ("scored", complex, scored, 0), ("profiles", float, scored, 0),
        (None, float, 5 * len(group) * (scored // width), 0)]


def _workspace(group: list[RangingScenario], runs: int, window: tuple[int, int],
               scored: int) -> _Workspace:
    """_Workspace of _run_layout for runs runs; fold, mirrored: fold_lags of echo lags t - d_j."""
    work = _Workspace(_run_layout(group, window, scored), runs)
    delays = np.array([t.delay for t in group[0].targets], dtype=int)
    lags = np.arange(window[0], window[1] + 1) - delays[:, None]
    work.fold, work.mirrored = fold_lags(group[0].grid, lags)
    return work


def _profiles(
    scenario: RangingScenario,
    power: np.ndarray,
    noise: np.ndarray,
    amplitudes: np.ndarray,
    variances: np.ndarray,
    window: tuple[int, int],
    work: _Workspace,
) -> np.ndarray:
    """run_once for a batch of drawn runs (_drawn), on the inclusive lag window only.

    The echo is sum_j a_j R[t - d_j] with R the ACF row ihfft(P), folded
    as work gives (_workspace).  P lives on the band's 2n bins, 0..n-1 and
    (l-1)*n..l*n-1, so the unit record V is 2n real, then 2n imaginary parts
    on those bins (at l = 2 the whole grid), in work's zeroed band.  With
    S = sqrt(l * n * P / 2) one inverse FFT of S * V serves every variance
    v: the profile is |echo + sqrt(v) * ifft(S * V)|^2 / m^2, shape
    (variances, runs, lags).  Arrays are views of work; no ufunc operand is
    broadcast or cast (scales are complex, imaginary parts 0), so numpy
    takes no iterator buffers.
    """
    m, grid, l, n = scenario.m, scenario.grid, scenario.pulse.l, scenario.pulse.n
    lo, hi = window
    runs, width = len(power), hi - lo + 1
    acf = np.fft.ihfft(power, axis=-1, out=work("acf", runs, grid // 2 + 1))
    echo = np.take(acf, work.fold, axis=1, out=work("gathered", runs, *work.fold.shape),
                   mode="clip")  # the gathered rows, then their sum
    np.conjugate(echo, out=echo, where=work.mirrored)
    echo = np.einsum("rt,rtw->rw", amplitudes, echo, out=work("echo", runs, width))
    scale = work("scale", runs, 2, n)  # S on the band, complex with imaginary parts 0
    np.copyto(scale.real, power.reshape(-1, l, n)[:, ::l - 1])
    scale.real *= grid / 2.0
    np.sqrt(scale.real, out=scale.real)
    record = work("record", runs, 2, n)
    record.real, record.imag = noise[:, 0], noise[:, 1]
    record *= scale
    band = work("band", runs, l, n)
    band[:, ::l - 1] = record  # blocks 0 and l - 1 of the (l, n) view
    whole = np.fft.ifft(band.reshape(runs, grid), axis=-1, out=work("spread", runs, grid))
    spread = work("window", runs, width)  # contiguous: a strided operand takes iterator buffers
    np.copyto(spread, whole[:, lo:hi + 1])
    profile = work("scored", len(variances), runs, width)
    for scored, sigma in zip(profile, np.sqrt(variances).astype(complex)):
        np.multiply(sigma, spread, out=scored)
        scored += echo
    parts = profile.view(float)
    parts *= parts
    profiles = np.add(parts[..., ::2], parts[..., 1::2], out=work("profiles", *profile.shape))
    return np.divide(profiles, float(m) ** 2, out=profiles)


def _drawn_amplitudes(scenario: RangingScenario, rng: np.random.Generator,
                      shape: tuple = ()) -> np.ndarray:
    """Target amplitudes with every phase redrawn uniformly, magnitudes kept, shape + (targets,)."""
    magnitudes = np.array([abs(t.amplitude) for t in scenario.targets])
    return magnitudes * np.exp(2j * np.pi * rng.random(shape + magnitudes.shape))


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

    Each SNR point sets its noise_variance.  Runs are drawn by _blocks from
    the _TAG_RUNS streams, rebuilt for each _SNR_BLOCK block of points, and
    a draw group (_draw_groups) draws each batch once: rows depend on no
    batch, SNR block or scenario beside them.  The estimate is the range of
    the roi peak, ties going low; a run hits within half a resolution cell
    of the truth.  Returns, per scenario in order, one dict per SNR with keys
    snr_db, rmse_m, rmse_hits_m (NaN when no run hits) and success_rate.
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

    Those share the target delays and magnitudes, the roi, n and l, the constellation,
    m and the draw path (slots, or OFDM class counts); bases, pulses and bandwidths may differ.
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
    """rmse_sweeps over one draw group, one row list per scenario, from sums kept in run order.

    Each batch of runs is drawn once from its block's (phases, symbols, noise)
    streams and the scenarios are scored on it in turn, in one _workspace.
    """
    first = group[0]
    l = first.pulse.l
    lo, hi = first.roi
    steps = np.array([range_per_lag_m(s.bandwidth_hz, l) for s in group])[:, None]
    half_cells = np.array([resolution_cell_m(s.bandwidth_hz, l) / 2 for s in group])[:, None]
    rows: list[list] = [[] for _ in group]
    # sized for the largest SNR block; a shorter last block scores fewer points per run
    scored = min(len(snr_grid_db), _SNR_BLOCK) * (hi - lo + 1)
    batch = min(runs, _batch_runs(group, scored))
    work = _workspace(group, batch, first.roi, scored)
    for start in range(0, len(snr_grid_db), _SNR_BLOCK):
        block = snr_grid_db[start:start + _SNR_BLOCK]
        variances = np.array([noise_variance(snr_db, l, amplitude_ref) for snr_db in block])
        # row 0: the running sums, then one row per run of the batch (_fold_rows)
        terms = np.zeros((batch + 1, 3, len(group), len(block)))
        for streams, batches in _blocks(seed, _TAG_RUNS, runs, batch):
            for _, count in batches:
                amps = _drawn_amplitudes(first, streams[0], (count,))
                powers, noise = _drawn(group, streams[1], streams[2], count, work)
                errors, hit, hit_squared = terms[1:count + 1].transpose(1, 0, 2, 3)
                for k, (scenario, power) in enumerate(zip(group, powers)):
                    profiles = _profiles(scenario, power, noise, amps, variances, first.roi, work)
                    errors[:, k] = (lo + np.argmax(profiles, axis=-1).T) * steps[k] - true_range_m
                np.less_equal(np.abs(errors), half_cells, out=hit)
                np.square(errors, out=errors)  # now the squared errors
                np.multiply(errors, hit, out=hit_squared)
                _fold_rows(terms, count)
        for scored, *sums in zip(rows, *terms[0]):
            for snr_db, squared, hits, hit_squared in zip(block, *sums):
                rmse_hits = float(np.sqrt(hit_squared / hits)) if hits else float("nan")
                scored.append({"snr_db": float(snr_db), "rmse_m": float(np.sqrt(squared / runs)),
                               "rmse_hits_m": rmse_hits, "success_rate": float(hits / runs)})
    return rows


def _batch_runs(group: list[RangingScenario], scored: int) -> int:
    """Runs per batch of a draw group scored at scored roi points: _batch under _BATCH_BYTES."""
    return _batch(_run_layout(group, group[0].roi, scored), _BATCH_BYTES)
