"""Output checks per workload, plus digests and quality figures.

The checks hold for any random stream: they compare against recomputed
closed forms, solver invariants and the scene's geometry, never against
stored bytes.  Each check is one operation of the benchmark; a check
that raises (a missing or malformed file) fails.  SHA-256 digests of the
outputs are recorded for information only.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import inspect
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import workloads

N, L, ALPHA = 128, 10, 0.35
GRID = N * L

# Theory curves of the correlation recipes: label -> (constellation, basis, m)
STATS_CURVES = {
    "fig1": {"m1": ("qam16", "sc", 1), "m100": ("qam16", "sc", 100)},
    "fig2": {"sc": ("qam16", "sc", 1), "cdma": ("qam16", "cdma", 1),
             "ofdm": ("qam16", "ofdm", 1)},
    "fig3": {"psk16": ("psk16", "ofdm", 1), "qam16": ("qam16", "ofdm", 1),
             "qam1024": ("qam1024", "ofdm", 1), "gaussian": ("gaussian", "ofdm", 1)},
    "fig5": {"sc": ("qam16", "sc", 100), "ofdm": ("qam16", "ofdm", 100)},
}
THEORY_ATOL = 1e-9  # linear, relative to the n^2 peak
EMPIRICAL_TOL_DB = 1.0
EMPIRICAL_SHARE = 0.95  # share of lags that must sit within the tolerance
EMPIRICAL_FLOOR_DB = -150.0  # lags below this in theory are float residue
MIN_GAIN_DB = 20.0
GAIN_ATOL = 1e-9
OBJECTIVE_RTOL = 1e-6
QUALITY_UNITS = {"design_gain_db": "dB", "hit_rate": "ratio"}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def read_table(path) -> dict[str, list[str]]:
    """CSV as columns of raw strings, in header order."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names")
    if any(len(row) != len(header) for row in body):
        raise ValueError(f"{path}: ragged rows")
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def numbers(cells: list[str]) -> np.ndarray:
    """Cells as floats; empty cells become NaN."""
    return np.array([float(c) if c != "" else math.nan for c in cells])


def read_manifest(path) -> dict:
    with open(path + ".manifest.json") as handle:
        return json.load(handle)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def _finite_table(table: dict, rows: int, required: list[str]) -> None:
    missing = [c for c in required if c not in table]
    _require(not missing, f"missing columns {missing}")
    for name, cells in table.items():
        _require(len(cells) == rows, f"{len(cells)} rows, expected {rows}")
        filled = numbers([c for c in cells if c != ""])
        _require(bool(np.all(np.isfinite(filled))), f"non-finite cell in {name}")


# ---------------------------------------------------------------------------
# stats


def _theory_db(curve) -> np.ndarray:
    from acfshape import acfstats, constellation, modulation, pulse

    const_name, basis_name, m = curve
    pul = pulse.rrc_spectrum(N, L, ALPHA)
    kurt = constellation.kurtosis(constellation.from_name(const_name))
    stats = acfstats.expected_sq_acf(pul, modulation.make_basis(basis_name, N), kurt, m=m)
    return acfstats.to_db_of_peak(stats.total, N)


def _pulse_db() -> np.ndarray:
    from acfshape import acfstats, pulse

    pul = pulse.rrc_spectrum(N, L, ALPHA)
    return acfstats.to_db_of_peak(np.abs(acfstats.mean_acf(pul)) ** 2, N)


def _linear_gap(a_db: np.ndarray, b_db: np.ndarray) -> float:
    return float(np.max(np.abs(10.0 ** (a_db / 10.0) - 10.0 ** (b_db / 10.0))))


def _stats_checks(out: str):
    for fig, curves in STATS_CURVES.items():
        path = os.path.join(out, f"{fig}.csv")
        theory_cols = [f"theory_{label}_db" for label in curves]
        empirical_cols = [f"empirical_{label}_db" for label in curves]

        def table(path=path, cols=theory_cols + empirical_cols):
            t = read_table(path)
            _finite_table(t, GRID, ["lag"] + cols)
            _require(t["lag"] == [str(k) for k in range(GRID)], "lag column is not 0..nl-1")
            return f"{GRID} rows, {len(t)} columns"

        def theory(path=path, curves=curves, fig=fig):
            t = read_table(path)
            gaps = {
                label: _linear_gap(numbers(t[f"theory_{label}_db"]), _theory_db(curve))
                for label, curve in curves.items()
            }
            if fig == "fig1":
                gaps["pulse"] = _linear_gap(numbers(t["pulse_db"]), _pulse_db())
            worst = max(gaps, key=gaps.get)
            _require(gaps[worst] <= THEORY_ATOL,
                     f"{worst} differs from the closed form by {gaps[worst]:.2e}")
            return f"worst gap {gaps[worst]:.1e} ({worst})"

        def empirical(path=path, curves=curves):
            t = read_table(path)
            shares = {}
            for label in curves:
                th = numbers(t[f"theory_{label}_db"])
                emp = numbers(t[f"empirical_{label}_db"])
                bulk = th > EMPIRICAL_FLOOR_DB
                shares[label] = float(np.mean(np.abs(emp - th)[bulk] <= EMPIRICAL_TOL_DB))
            worst = min(shares, key=shares.get)
            _require(shares[worst] >= EMPIRICAL_SHARE,
                     f"{worst}: {shares[worst]:.3f} of lags within {EMPIRICAL_TOL_DB} dB")
            return f"worst share within {EMPIRICAL_TOL_DB} dB: {shares[worst]:.3f} ({worst})"

        yield f"{fig}.table", table
        yield f"{fig}.theory", theory
        yield f"{fig}.empirical", empirical


# ---------------------------------------------------------------------------
# design


def solver_cap(objective: str) -> int:
    from acfshape import qpsolver

    solver = qpsolver.solve_minimax if objective == "psl" else qpsolver.solve_box_qp
    return inspect.signature(solver).parameters["max_iter"].default


def design_gain_db(params: dict) -> float:
    return 10.0 * math.log10(params["baseline_value"] / params["objective_value"])


def _design_checks(path: str, gains_of, stem: str):
    """Checks shared by the psl recipe and the isl shape designs."""

    def converged():
        params = read_manifest(path)["parameters"]
        _require(params.get("converged", True) is True, "manifest says not converged")
        cap = solver_cap(params["objective"])
        iterations = params.get("iterations")
        _require(iterations is None or iterations < cap,
                 f"{iterations} iterations reached the cap {cap}")
        return f"{iterations} iterations" if iterations is not None else "exit 0"

    def gain():
        value = design_gain_db(read_manifest(path)["parameters"])
        _require(value >= MIN_GAIN_DB, f"gain {value:.2f} dB below {MIN_GAIN_DB} dB")
        return f"{value:.2f} dB"

    def monotone():
        g = gains_of()
        _require(g.size == N, f"{g.size} gains, expected {N}")
        _require(bool(np.all(np.diff(g) >= -GAIN_ATOL)), "gains decrease somewhere")
        _require(bool(np.all((g >= -GAIN_ATOL) & (g <= 1.0 + GAIN_ATOL))), "gain outside [0, 1]")
        return f"{np.unique(np.round(g, 6)).size} levels"

    def consistent():
        from acfshape import shaping

        params = read_manifest(path)["parameters"]
        lo, hi = params["region_lags"]
        a_mat, c = shaping.sidelobe_maps(N, L, np.arange(lo, hi + 1))
        floor = np.abs(a_mat @ gains_of() + c) ** 2
        value = float(np.max(floor) if params["objective"] == "psl" else np.sum(floor))
        reported = params["objective_value"]
        _require(abs(value - reported) <= OBJECTIVE_RTOL * abs(reported),
                 f"gains give {value:.6e}, manifest says {reported:.6e}")
        return f"{params['objective']} {value:.6e}"

    yield f"{stem}.converged", converged
    yield f"{stem}.gain", gain
    yield f"{stem}.monotone", monotone
    yield f"{stem}.consistent", consistent


def _read_gains(path: str) -> np.ndarray:
    with open(path) as handle:
        return np.array([float(line) for line in handle if line.strip()])


def _design_all(out: str):
    acf = os.path.join(out, "fig4_acf.csv")
    spectrum = os.path.join(out, "fig4_spectrum.csv")

    def tables():
        _finite_table(read_table(acf), GRID, ["lag", "rrc_db", "designed_db"])
        _finite_table(read_table(spectrum), N, ["bin", "rrc", "designed"])
        return "fig4 acf and spectrum tables"

    yield "fig4.tables", tables
    yield from _design_checks(acf, lambda: numbers(read_table(spectrum)["designed"]), "fig4")
    for window in workloads.ISL_WINDOWS:
        stem = os.path.join(out, "isl_" + window.replace(":", "_"))

        def table(path=stem + ".csv"):
            _finite_table(read_table(path), GRID, ["lag", "rrc_db", "designed_db"])
            return f"{GRID} rows"

        yield f"isl_{window}.table", table
        yield from _design_checks(stem + ".txt", lambda p=stem + ".txt": _read_gains(p),
                                  f"isl_{window}")


# ---------------------------------------------------------------------------
# ranging


def _ranging_checks(prefix: str, methods: list[str], basis_order: bool):
    rmse_path, profile_path = prefix + "_rmse.csv", prefix + "_profile.csv"

    def rmse():
        t = read_table(rmse_path)
        cols = ["snr_db"] + [f"{m}_{s}" for m in methods
                             for s in ("rmse_m", "rmse_hits_m", "success_rate")]
        _require(list(t) == cols, f"header {list(t)}")
        _finite_table(t, len(workloads.FIG_SNR_DB), cols)
        _require(numbers(t["snr_db"]).tolist() == workloads.FIG_SNR_DB, "snr grid")
        for m in methods:
            rate = numbers(t[f"{m}_success_rate"])
            _require(bool(np.all((rate >= 0) & (rate <= 1))), f"{m} rate outside [0, 1]")
            _require(bool(np.all(numbers(t[f"{m}_rmse_m"]) >= 0)), f"{m} negative rmse")
            hits = numbers(t[f"{m}_rmse_hits_m"])
            _require(bool(np.all(np.isnan(hits) == (rate == 0))),
                     f"{m} hit rmse filled where no run hit, or empty where one did")
        return f"{len(methods)} methods x {len(workloads.FIG_SNR_DB)} snr"

    def profile():
        t = read_table(profile_path)
        cols = ["range_m"] + [f"{m}_db" for m in methods]
        _require(list(t) == cols, f"header {list(t)}")
        _finite_table(t, GRID, cols)
        return f"{GRID} rows"

    def peak():
        t = read_table(profile_path)
        strong = int(np.argmin(np.abs(numbers(t["range_m"]) - workloads.STRONG_RANGE_M)))
        off = []
        for m in methods:
            db = numbers(t[f"{m}_db"])
            if int(np.argmax(db)) != strong or db[strong] != 0.0:
                off.append(f"{m} peaks at row {int(np.argmax(db))}")
        _require(not off, f"strong target at row {strong}: " + "; ".join(off))
        return f"every 0 dB peak at row {strong}"

    yield "rmse.table", rmse
    yield "profile.table", profile
    yield "profile.peak", peak

    if basis_order:
        def order():
            t = read_table(rmse_path)
            ofdm = numbers(t["ofdm_designed_rmse_m"])[-1]
            sc = numbers(t["sc_designed_rmse_m"])[-1]
            _require(ofdm <= sc, f"ofdm {ofdm:.3f} m above sc {sc:.3f} m")
            return f"ofdm {ofdm:.3f} m <= sc {sc:.3f} m at {workloads.FIG_SNR_DB[-1]} dB"

        yield "rmse.basis_order", order


def _ranging_prefix(workload: str, out: str) -> str:
    if workload == "ranging-avg":
        return os.path.join(out, "ranging_avg")
    return os.path.join(out, "fig6")


def _ranging_methods(workload: str) -> list[str]:
    if workload == "ranging-avg":
        return [m["name"] for m in workloads.RANGING_AVG_METHODS]
    return workloads.RANGING_SINGLE_METHODS


# ---------------------------------------------------------------------------
# entry points


def checks_for(workload: str, out: str):
    """(name, callable) pairs; each callable returns a detail or raises."""
    if workload == "stats":
        return list(_stats_checks(out))
    if workload == "design":
        return list(_design_all(out))
    return list(_ranging_checks(
        _ranging_prefix(workload, out), _ranging_methods(workload),
        basis_order=workload == "ranging-single",
    ))


def run_checks(workload: str, out: str) -> list[Check]:
    results = []
    for name, fn in checks_for(workload, out):
        try:
            results.append(Check(name, True, fn()))
        except Exception as exc:  # a failed check, whatever the cause
            results.append(Check(name, False, f"{type(exc).__name__}: {exc}"))
    return results


def quality(workload: str, out: str) -> dict[str, float]:
    """design_gain_db and hit_rate where the workload has them."""
    if workload == "design":
        params = read_manifest(os.path.join(out, "fig4_acf.csv"))["parameters"]
        return {"design_gain_db": design_gain_db(params)}
    if workload.startswith("ranging"):
        t = read_table(_ranging_prefix(workload, out) + "_rmse.csv")
        rates = [numbers(t[f"{m}_success_rate"]) for m in _ranging_methods(workload)]
        return {"hit_rate": float(np.mean(rates))}
    return {}


def masked_manifest(path: str) -> bytes:
    """Manifest bytes without the fields that differ by design between runs."""
    with open(path) as handle:
        payload = json.load(handle)
    payload.pop("wall_time_s", None)
    payload.get("parameters", {}).pop("out", None)
    return json.dumps(payload, sort_keys=True).encode()


def digests(out: str) -> dict[str, str]:
    """SHA-256 of every table and gain file, and of every masked manifest."""
    found = {}
    for path in sorted(glob.glob(os.path.join(out, "*"))):
        name = os.path.basename(path)
        if name.endswith(".manifest.json"):
            data = masked_manifest(path)
        elif name.endswith((".csv", ".txt")):
            with open(path, "rb") as handle:
                data = handle.read()
        else:
            continue
        found[name] = hashlib.sha256(data).hexdigest()
    return found
