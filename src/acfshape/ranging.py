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
A sweep draws by blocks of runs, one stream per kind of draw, the same
in every scenario, so scenarios whose runs make identical draws (a draw
group) are swept together, each batch of runs drawn once for the group:
the common-random-numbers arrangement.  noise_variance sets the SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acfstats import DB_FLOOR, _fold_rows, check_slots, fold_lags
from .constellation import ConstellationSpec
from .modulation import ModulationBasis
from .montecarlo import (_SE_BLOCK, _TAG_PROFILE, _TAG_RUNS, _class_law, _draw_entries,
                         drawn_power, stream)
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
    Y_s = X_s * H + N_s, H being the spectrum of the targets' amplitudes at
    their delays.  Summed over the slots this is ifft(P * H + W) with P the
    slot-summed power spectrum (drawn_power), so the echo term is the ACF
    row ifft(P) delayed to each target and weighted by its amplitude.  The
    DFT of white circular noise is white, so given the symbols W is
    circular Gaussian, independent per bin, with variance noise_var * l * n
    * P, zero outside the pulse's band: one draw on its 2n bins replaces
    the m per-slot noise records.  A 1-D noise_var gives one row per
    variance from one draw: the symbols, then 4n normals, even at 0.
    """
    variances = np.asarray(noise_var, dtype=float)
    if variances.ndim > 1 or not np.all(variances >= 0):
        raise ValueError(f"noise variance must be a scalar or 1-D, each >= 0, got {noise_var}")
    amplitudes = np.array([[t.amplitude for t in scenario.targets]], dtype=complex)
    window = (0, scenario.grid - 1)
    (power,), noise = _drawn([scenario], rng, rng, 1)
    profiles = _profiles(scenario, power, noise, amplitudes, variances.reshape(-1), window,
                         _workspace(scenario, 1, window))
    return profiles[0].reshape(variances.shape + (scenario.grid,))


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
) -> tuple[list[np.ndarray], np.ndarray]:
    """count runs' power spectra, one array per scenario of a draw group, and noise records.

    The runs draw their symbols (or class counts) from symbols in turn, in
    one drawn_power call, and their 4n unit normals from noise, shape
    (count, 2, 2, n).  drawn_power refuses a source of several draws whose
    slots take several chunks, so such runs, which _batch_runs puts in
    batches of one, take a call each when a larger batch is forced.
    """
    first = group[0]
    c, m, shapes = first.constellation, first.m, [(s.basis, s.pulse) for s in group]
    if _draw_entries(c, first.basis, m) is None:
        runs = [drawn_power(c, shapes, m, [(symbols, 1)]) for _ in range(count)]
        powers = [np.concatenate(p) for p in zip(*runs)]
    else:
        powers = drawn_power(c, shapes, m, [(symbols, count)])
    return powers, noise.standard_normal((count, 2, 2, first.pulse.n))


def _workspace(scenario: RangingScenario, runs: int, window: tuple[int, int]) -> tuple:
    """_profiles' zeroed band (runs, l, n), kept across batches, and its echo lags.

    fold_lags gives where the ACF row holds lag t - d_j for target j and window lag t.
    """
    l, n = scenario.pulse.l, scenario.pulse.n
    delays = np.array([t.delay for t in scenario.targets], dtype=int)
    lags = np.arange(window[0], window[1] + 1) - delays[:, None]
    return np.zeros((runs, l, n), dtype=complex), *fold_lags(scenario.grid, lags)


def _profiles(
    scenario: RangingScenario,
    power: np.ndarray,
    noise: np.ndarray,
    amplitudes: np.ndarray,
    variances: np.ndarray,
    window: tuple[int, int],
    work: tuple,
) -> np.ndarray:
    """run_once for a batch of drawn runs (_drawn), on the inclusive lag window only.

    The echo is sum_j a_j R[t - d_j] with R the ACF row ihfft(P), folded
    as work gives (_workspace).  P lives on the band's 2n bins, 0..n-1 and
    (l-1)*n..l*n-1, so the unit record V is 2n real parts, then 2n
    imaginary parts, on those bins (at l = 2 the band is the whole grid),
    written into work's zeroed band.  With S = sqrt(l * n * P / 2) one
    inverse FFT of S * V serves every variance v: the profile is
    |echo + sqrt(v) * ifft(S * V)|^2 / m^2, shape (runs, variances, lags).
    """
    m, grid, l, n = scenario.m, scenario.grid, scenario.pulse.l, scenario.pulse.n
    lo, hi = window
    band, fold, mirrored = work[0][:len(power)], *work[1:]
    echo = np.fft.ihfft(power, axis=-1)[:, fold]  # the gathered rows, then their sum
    np.conjugate(echo, out=echo, where=mirrored)
    echo = np.einsum("rt,rtw->rw", amplitudes, echo)
    occupied = band[:, ::l - 1]  # blocks 0 and l - 1 of the (l, n) view
    occupied.real, occupied.imag = noise[:, 0], noise[:, 1]
    occupied *= np.sqrt(power.reshape(-1, l, n)[:, ::l - 1] * (grid / 2.0))
    spread = np.fft.ifft(band.reshape(-1, grid), axis=-1)[:, None, lo:hi + 1]
    scored = np.sqrt(variances)[:, None] * spread
    scored += echo[:, None]
    parts = scored.view(float)
    parts *= parts
    profiles = parts[..., ::2] + parts[..., 1::2]
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

    Each SNR point sets its noise_variance.  Block b of _SE_BLOCK runs owns
    stream(seed, tag, b) per tag of _TAG_RUNS, whose draws (target phases,
    symbols, noise) its runs take in run order, one call per kind and batch
    of runs, which numpy makes the calls in turn it replaces: rows depend
    on neither batch sizes, the scenarios beside them nor the _SNR_BLOCK
    blocks, each of which rebuilds the streams.  A draw group
    (_draw_groups) draws each batch once and scores its scenarios on it in
    turn.  The estimate is the range of the roi peak, ties going low; a run
    hits within half a resolution cell of the truth.  Returns, per scenario
    in order, one dict per SNR with keys snr_db, rmse_m, rmse_hits_m (NaN
    when no run succeeds, written as an empty field) and success_rate.
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
    # sized for the largest SNR block; a shorter last block scores fewer points per run
    batch = _batch_runs(group, min(len(snr_grid_db), _SNR_BLOCK) * (hi - lo + 1))
    work = _workspace(first, batch, first.roi)
    for start in range(0, len(snr_grid_db), _SNR_BLOCK):
        block = snr_grid_db[start:start + _SNR_BLOCK]
        variances = np.array([noise_variance(snr_db, l, amplitude_ref) for snr_db in block])
        # row 0: the running sums, then one row per run of the batch (_fold_rows)
        terms = np.zeros((batch + 1, 3, len(group), len(block)))
        for begin in range(0, runs, _SE_BLOCK):
            streams = [stream(seed, tag, begin // _SE_BLOCK) for tag in _TAG_RUNS]
            end = min(begin + _SE_BLOCK, runs)
            for run in range(begin, end, batch):
                count = min(batch, end - run)
                errors = _peak_lags(group, streams, count, variances, work) * steps - true_range_m
                squared, hit, hit_squared = terms[1:count + 1].transpose(1, 0, 2, 3)
                np.square(errors, out=squared)
                np.less_equal(np.abs(errors), half_cells, out=hit)
                np.multiply(squared, hit, out=hit_squared)
                _fold_rows(terms, count)
                del errors  # not held through the next batch's draw
        for scored, *sums in zip(rows, *terms[0]):
            for snr_db, squared, hits, hit_squared in zip(block, *sums):
                rmse_hits = float(np.sqrt(hit_squared / hits)) if hits else float("nan")
                scored.append({"snr_db": float(snr_db), "rmse_m": float(np.sqrt(squared / runs)),
                               "rmse_hits_m": rmse_hits, "success_rate": float(hits / runs)})
    return rows


def _peak_lags(group: list[RangingScenario], streams: list[np.random.Generator], count: int,
               variances: np.ndarray, work: tuple) -> np.ndarray:
    """Roi peak lag per run, scenario and variance of count runs, (runs, scenarios, variances).

    The runs are drawn once from the (phases, symbols, noise) streams and
    the scenarios scored on them one after another, in one workspace.
    """
    first = group[0]
    amplitudes = _drawn_amplitudes(first, streams[0], (count,))
    powers, records = _drawn(group, streams[1], streams[2], count)
    lags = np.empty((count, len(group), len(variances)), dtype=int)
    for k, (scenario, power) in enumerate(zip(group, powers)):
        profiles = _profiles(scenario, power, records, amplitudes, variances, first.roi, work)
        lags[:, k] = first.roi[0] + np.argmax(profiles, axis=-1)
    return lags


def _batch_runs(group: list[RangingScenario], scored: int) -> int:
    """Runs per batch of a draw group, at most _SE_BLOCK, so that its arrays fit _BATCH_BYTES.

    Per run, in complex entries: the group's draw (_draw_entries), each scenario's
    power (half a grid, being real), the noise record (2n), the kept band, the ACF
    row and noise spread (2.5 grids) and one scenario's band scale (n), echo per target
    and summed, and scored roi points and squares (1.5 each); per scenario and SNR point,
    five reals (three running sums, the peak lag, its error).  A run of several slot
    chunks is a batch of one.
    """
    first = group[0]
    window = first.roi[1] - first.roi[0] + 1
    draw = _draw_entries(first.constellation, first.basis, first.m)
    if draw is None:
        return 1
    per_run = 16 * (draw + (len(group) + 5) * first.grid // 2 + 3 * first.pulse.n
                    + (len(first.targets) + 1) * window + 3 * scored // 2)
    per_run += 8 * 5 * len(group) * (scored // window)
    return min(_SE_BLOCK, max(1, _BATCH_BYTES // per_run))
