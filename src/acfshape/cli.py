"""Command-line front end tying the compute modules together.

Subcommands: acf-theory (closed-form tables), acf-mc (empirical sweeps),
shape (gain design), range-sim (configurable ranging experiments), and
reproduce (one or more canned recipes fig1..fig7, each timed on stderr).
Each one validates its whole configuration up front: a range-sim config
is parsed once into its scene (constellations, bases, pulse files,
targets on distinct lags, unique labels, no unknown keys) before any
design runs.  A handler only computes: it returns its tables, and run
writes every table and its JSON manifest in one tableio.commit, which
checks every destination first, so any failure writes no file.  The
resolved configuration is then echoed as a single JSON line on stdout.

Exit codes: 0 success, 1 usage error, 2 invalid configuration or
destination, 3 numerical failure (a solver that did not converge or
broke down, a non-finite or negative value reaching an output table, or
any other unexpected error).  A fixed seed at a fixed BLAS thread count gives
byte-identical output files, and the closed forms, Monte Carlo, RRC
ranging and both design objectives give the same bytes at one and two
threads (tested).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import acfstats, constellation, modulation, pulse, ranging, shaping, tableio
from .montecarlo import TrialConfig, run_trials

__all__ = ["run", "main", "NumericalFailure"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_METHOD_NAME_RE = re.compile(r"[A-Za-z0-9_-]+")


class NumericalFailure(RuntimeError):
    """Computation produced no usable result (divergence or non-finite)."""


def _floor_db(pul: pulse.NyquistPulse) -> np.ndarray:
    """Deterministic squared ACF of a pulse per lag, in dB of the peak."""
    return acfstats.to_db_of_peak(np.abs(acfstats.mean_acf(pul)) ** 2, pul.n)


def _acf_table(rrc, designed) -> dict:
    """Per-lag floors of the baseline and the designed pulse."""
    return {"lag": range(rrc.l * rrc.n), "rrc_db": _floor_db(rrc),
            "designed_db": _floor_db(designed)}


# ---------------------------------------------------------------------------
# acf-theory / acf-mc


def _waveform_from_args(args):
    """(pulse, basis, constellation) named by the shared waveform flags."""
    if args.n < 2 or args.l < 2:
        raise ValueError(f"--n and --l must be >= 2, got {args.n} and {args.l}")
    if args.pulse == "file":
        if not args.pulse_file:
            raise ValueError("--pulse file needs --pulse-file")
        pul = pulse.from_text_file(args.pulse_file, args.n, args.l)
    else:
        pul = pulse.rrc_spectrum(args.n, args.l, args.alpha)
    if args.basis == "custom":
        if not args.basis_file:
            raise ValueError("--basis custom needs --basis-file")
        basis = modulation.from_text_file(args.basis_file, args.n)
    else:
        basis = modulation.make_basis(args.basis, args.n)
    if args.constellation == "custom":
        if not args.constellation_file:
            raise ValueError("--constellation custom needs --constellation-file")
        const = constellation.from_text_file(args.constellation_file)
    else:
        const = constellation.from_name(args.constellation)
    return pul, basis, const


def _waveform_params(args, pul: pulse.NyquistPulse) -> dict:
    return {
        "constellation": args.constellation,
        "basis": args.basis,
        "pulse": pul.name,
        "n": args.n,
        "l": args.l,
        "alpha": pul.alpha,
        "m": args.m,
    }


def _cmd_acf_theory(args):
    pul, basis, const = _waveform_from_args(args)
    kurt = constellation.kurtosis(const)
    stats = acfstats.expected_sq_acf(pul, basis, kurt, m=args.m)
    table = {
        "lag": range(args.l * args.n),
        "iceberg_db": acfstats.to_db_of_peak(stats.squared_mean, args.n),
        "sea_db": acfstats.to_db_of_peak(stats.variance, args.n),
        "total_db": acfstats.to_db_of_peak(stats.total, args.n),
    }
    params = _waveform_params(args, pul) | {"kurtosis": kurt, "out": str(args.out)}
    return [(args.out, table, params, None)], params, ()


def _theory_and_trials(const, basis, pul, m: int, trials: int, seed: int):
    """Closed-form statistics and a seeded Monte Carlo run of one waveform."""
    theory = acfstats.expected_sq_acf(pul, basis, constellation.kurtosis(const), m=m)
    result = run_trials(TrialConfig(const, basis, pul, trials=trials, seed=seed, m=m))
    return theory, result


def _cmd_acf_mc(args):
    pul, basis, const = _waveform_from_args(args)
    theory, result = _theory_and_trials(const, basis, pul, args.m, args.trials, args.seed)
    table = {
        "lag": range(args.l * args.n),
        "empirical_db": acfstats.to_db_of_peak(result.mean_sq, args.n),
        "theory_db": acfstats.to_db_of_peak(theory.total, args.n),
        "stderr": result.se / float(args.n) ** 2,
    }
    params = _waveform_params(args, pul) | {
        "kurtosis": constellation.kurtosis(const),
        "trials": args.trials,
        "out": str(args.out),
    }
    return [(args.out, table, params, args.seed)], params | {"seed": args.seed}, ()


# ---------------------------------------------------------------------------
# shape


def _parse_region(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"region must look like lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"region endpoints must be numbers, got {text!r}") from None
    return lo, hi


def _region_lags(n: int, l: int, lo: float, hi: float, units: str) -> np.ndarray:
    if units == "symbol":
        return shaping.sidelobe_lags(n, l, lo, hi)
    if not (float(lo).is_integer() and float(hi).is_integer()):
        raise ValueError(f"lag-unit region needs integer endpoints, got {lo}:{hi}")
    if not 1 <= lo <= hi <= l * n - 1:
        raise ValueError(f"lag region [{lo:.15g}, {hi:.15g}] lies outside [1, {l * n - 1}]")
    return np.arange(int(lo), int(hi) + 1)


def _design_or_fail(spec: shaping.ShapingSpec, tol: float | None = None,
                    max_iter: int | None = None) -> shaping.ShapingResult:
    result = shaping.design_pulse(spec, tol=tol, max_iter=max_iter)
    if not result.converged:
        raise NumericalFailure(
            f"{spec.objective} design stopped after {result.iterations} iterations "
            f"with certified gap {result.gap:.3e}"
        )
    if result.constraint_violation > 1e-8:
        raise NumericalFailure(
            f"designed gains violate constraints by {result.constraint_violation:.3e}"
        )
    return result


def _design(n: int, l: int, alpha: float, lags: np.ndarray, objective: str,
            tol: float | None = None, max_iter: int | None = None):
    """Designed result, RRC baseline and the manifest keys every design shares."""
    result = _design_or_fail(shaping.ShapingSpec(n, l, alpha, lags, objective), tol, max_iter)
    rrc = pulse.rrc_spectrum(n, l, alpha)
    return result, rrc, {
        "objective": objective,
        "region_lags": [int(lags[0]), int(lags[-1])],
        "n": n,
        "l": l,
        "alpha": alpha,
        "objective_value": result.value,
        "baseline_value": shaping.region_metrics(rrc, lags)[objective],
        "iterations": result.iterations,
        "gap": result.gap,
    }


def _cmd_shape(args):
    lags = _region_lags(args.n, args.l, *_parse_region(args.region), args.region_units)
    result, rrc, params = _design(args.n, args.l, args.alpha, lags, args.objective,
                                  args.tol, args.max_iter)
    params |= {"region": args.region, "region_units": args.region_units}
    outputs = []
    if args.out_spectrum:
        outputs.append((args.out_spectrum, result.pulse.g, params, None))
    if args.out_acf:
        outputs.append((args.out_acf, _acf_table(rrc, result.pulse), params, None))
    return outputs, params, ()


# ---------------------------------------------------------------------------
# range-sim config: one (key, default, accepts, requirement) row per field

_REQUIRED = object()


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _int_from(lo: int):
    return lambda v: _is_num(v) and isinstance(v, int) and v >= lo


def _is_slot_count(v) -> bool:
    return _int_from(1)(v) and v <= acfstats.MAX_SLOTS


def _one_of(*choices):
    return lambda v: isinstance(v, str) and v in choices


def _is_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_is_num, v))


def _is_list(v) -> bool:
    return isinstance(v, list) and len(v) > 0


def _is_db(v) -> bool:
    # 10 ** (v / 10) and 10 ** (v / 20) must stay finite and nonzero
    return _is_num(v) and -300 <= v <= 300


def _is_str(v) -> bool:
    return isinstance(v, str)


_CONFIG_FIELDS = (
    ("n", _REQUIRED, _int_from(2), "integer >= 2 required"),
    ("l", _REQUIRED, _int_from(2), "integer >= 2 required"),
    ("alpha", _REQUIRED, lambda v: _is_num(v) and 0 <= v <= 1, "number in [0, 1] required"),
    ("bandwidth_hz", 200e6, lambda v: _is_num(v) and v > 0, "positive number required"),
    ("m", 1, _is_slot_count, "positive integer required, at most 2**53"),
    ("targets", _REQUIRED, _is_list, "nonempty list of targets required"),
    ("estimate", None, _is_str, "target label string required"),  # absent: the weakest
    ("roi_m", _REQUIRED, lambda v: _is_pair(v) and v[0] <= v[1],
     "ordered [lo, hi] in meters required"),
    ("methods", _REQUIRED, _is_list, "nonempty list of methods required"),
    ("sweep", _REQUIRED, lambda v: isinstance(v, dict), "object required"),
    ("seed", 0, _int_from(0), "nonnegative integer required"),
    ("profile_snr_db", None, _is_db, "number in [-300, 300] dB required"),
)
_SWEEP_FIELDS = (
    ("snr_db", _REQUIRED, lambda v: _is_list(v) and all(map(_is_db, v)),
     "nonempty list of numbers in [-300, 300] dB required"),
    ("runs", _REQUIRED, _int_from(1), "positive integer required"),
)
_TARGET_FIELDS = (
    ("range_m", _REQUIRED, lambda v: _is_num(v) and v >= 0, "nonnegative number required"),
    ("gain_db", 0.0, _is_db, "number in [-300, 300] dB required"),
    ("label", None, _is_str, "string required"),  # absent: target<index>
)
_METHOD_FIELDS = (
    ("name", _REQUIRED, lambda v: _is_str(v) and _METHOD_NAME_RE.fullmatch(v),
     "letters, digits, - and _ only"),
    ("constellation", _REQUIRED, _is_str, "name string required"),
    ("basis", _REQUIRED, _is_str, "name string required"),
    # absent: the top-level m
    ("m", None, _is_slot_count, "positive integer required, at most 2**53"),
    ("pulse", "rrc", _one_of("rrc", "designed", "file"), "'rrc', 'designed', or 'file' required"),
)
_PULSE_FIELDS = {
    "designed": (
        ("region", _REQUIRED, _is_pair, "[lo, hi] required for a designed pulse"),
        ("region_units", "symbol", _one_of("symbol", "lag"), "'symbol' or 'lag' required"),
        ("objective", "isl", _one_of("isl", "psl"), "'isl' or 'psl' required"),
    ),
    "file": (
        ("pulse_file", _REQUIRED, lambda v: _is_str(v) and v != "", "path required"),
    ),
}


def _fields(obj: dict, rows, path: str, issues: list) -> dict:
    """Each row's value in obj, or its default; violations go to issues.

    A key that no row names, a missing required key and a present value
    that its row does not accept each add one message naming the key's
    path; the last two come back as None.
    """
    names = [row[0] for row in rows]
    issues += [f"{path}{key!s:.80}: unknown key" for key in obj if key not in names]
    values = {}
    for key, default, accepts, requirement in rows:
        value = obj.get(key, default)
        if value is _REQUIRED:
            issues.append(f"{path}{key}: missing")
            value = None
        elif key in obj and not accepts(value):
            issues.append(f"{path}{key}: {requirement}, got {value!r:.80}")
            value = None
        values[key] = value
    return values


def _objects(items, path: str, issues: list):
    """Yield (index, item) for the objects in a list; others are violations."""
    for i, item in enumerate(items or ()):
        if isinstance(item, dict):
            yield i, item
        else:
            issues.append(f"{path}[{i}]: object required")


def _built(issues: list, key: str, make, *fields):
    """make(*fields); None if a field failed its row, or if make raised (key's issue)."""
    if any(field is None for field in fields):
        return None
    try:
        return make(*fields)
    except (ValueError, OSError) as exc:
        issues.append(f"{key}: {exc}")
        return None


def _resolve_range_config(cfg: dict, runs: int | None = None, seed: int | None = None,
                          profile_snr_db: float | None = None) -> tuple[dict, dict]:
    """Validate a range-sim config after overrides and parse it into a scene.

    Returns the echo of the resolved values and the scene that the sweep
    runs: targets snapped to lags, the roi, the tracked target and per
    method (name, constellation, basis, m, pulse), the pulse ready or a
    ShapingSpec still to design.  Every violation is collected, a
    constellation, basis or pulse that fails to build included; an
    object is built only from fields that passed their rows.
    """
    overrides = {"seed": seed, "profile_snr_db": profile_snr_db}
    cfg = cfg | {key: v for key, v in overrides.items() if v is not None}
    if runs is not None and isinstance(cfg.get("sweep"), dict):
        cfg["sweep"] = cfg["sweep"] | {"runs": runs}
    issues: list[str] = []
    top = _fields(cfg, _CONFIG_FIELDS, "", issues)
    sweep = {} if top["sweep"] is None else _fields(top["sweep"], _SWEEP_FIELDS, "sweep.", issues)
    n, l = top["n"], top["l"]
    alpha, bw = (None if top[k] is None else float(top[k]) for k in ("alpha", "bandwidth_hz"))
    step = None if None in (n, l, bw) else ranging.range_per_lag_m(bw, l)
    if step is not None and not 0 < step < math.inf:
        issues.append(f"bandwidth_hz: lag step {step!r} m must be finite and positive")
        step = None

    def lag_of(key: str, value) -> int | None:
        # checked as a float, before int, so a huge range cannot overflow
        if step is None or value is None:
            return None
        if 0 <= (lag := float(np.round(value / step))) < n * l:
            return int(lag)
        issues.append(f"{key}: {value} m maps to lag {lag:.15g}, outside [0, {n * l - 1}]")
        return None

    roi = [lag_of("roi_m", v) for v in top["roi_m"] or ()]
    targets, labels, lags = [], {}, {}
    for i, target in _objects(top["targets"], "targets", issues):
        path = f"targets[{i}]."
        spec = _fields(target, _TARGET_FIELDS, path, issues)
        label = f"target{i}" if spec["label"] is None else spec["label"]
        if (first := labels.setdefault(label, i)) != i:
            issues.append(f"{path}label: {label!r:.80} already used by targets[{first}]")
        delay = lag_of(f"{path}range_m", spec["range_m"])
        if delay is not None and (first := lags.setdefault(delay, i)) != i:
            issues.append(f"{path}range_m: maps to lag {delay}, same as targets[{first}]")
        if None not in (delay, spec["gain_db"]):
            targets.append(ranging.Target(delay, 10.0 ** (spec["gain_db"] / 20.0), label))
    if top["estimate"] is not None and top["estimate"] not in labels:
        issues.append(f"estimate: no target labeled {top['estimate']!r:.80}")

    methods, names = [], {}
    for i, method in _objects(top["methods"], "methods", issues):
        path = f"methods[{i}]."
        kind = method.get("pulse", "rrc")
        rows = _METHOD_FIELDS + (_PULSE_FIELDS.get(kind, ()) if _is_str(kind) else ())
        spec = _fields(method, rows, path, issues)
        if spec["name"] is not None and (first := names.setdefault(spec["name"], i)) != i:
            issues.append(f"{path}name: {spec['name']!r} already used by methods[{first}]")
        const = _built(issues, f"{path}constellation", constellation.from_name,
                       spec["constellation"])
        basis = _built(issues, f"{path}basis", modulation.make_basis, spec["basis"], n)
        pul = None
        if spec["pulse"] == "rrc":
            pul = _built(issues, f"{path}pulse", pulse.rrc_spectrum, n, l, alpha)
        elif spec["pulse"] == "file":
            pul = _built(issues, f"{path}pulse_file", pulse.from_text_file,
                         spec["pulse_file"], n, l)
        elif spec["pulse"] == "designed":  # endpoints against the grid, before any design
            region_lags = _built(issues, f"{path}region", _region_lags, n, l,
                                 *(spec["region"] or (None, None)), spec["region_units"])
            pul = _built(issues, f"{path}region", shaping.ShapingSpec, n, l, alpha,
                         region_lags, spec["objective"])
        m = top["m"] if spec["m"] is None else spec["m"]
        methods.append((spec["name"], const, basis, m, pul))
    if issues:
        raise ValueError("config invalid: " + "; ".join(issues))

    snr_grid = [float(v) for v in sweep["snr_db"]]
    profile_snr = float(max(snr_grid) if top["profile_snr_db"] is None else top["profile_snr_db"])
    echo = {key: v for key, v in top.items() if key != "sweep"} | {
        "alpha": alpha,
        "bandwidth_hz": bw,
        "roi_m": [float(v) for v in top["roi_m"]],
        "snr_db": snr_grid,
        "runs": sweep["runs"],
        "profile_snr_db": profile_snr,
    }
    if top["estimate"] is None:
        tracked = min(targets, key=lambda t: abs(t.amplitude))
    else:
        tracked = next(t for t in targets if t.label == top["estimate"])
    return echo, {
        "targets": tuple(targets),
        "roi": tuple(roi),
        "tracked": tracked,
        "amplitude_ref": max(abs(t.amplitude) for t in targets),
        "methods": methods,
        "geometry": {  # the snapped scene, as the manifests record it
            "true_range_m": ranging.range_for_lag(tracked.delay, bw, l),
            "roi_lags": roi,
            "roi_snapped_m": [ranging.range_for_lag(lag, bw, l) for lag in roi],
            "target_lags": [t.delay for t in targets],
            "range_per_lag_m": step,
        },
    }


# ---------------------------------------------------------------------------
# range-sim pipeline, shared with the ranging recipes


def _build_scenarios(echo: dict, scene: dict) -> tuple[list, dict]:
    """One scenario per method, designing each distinct pending pulse once, in method order.

    Also returns the solver statistics of each designed method, by name.
    """
    designed: dict[tuple, shaping.ShapingResult] = {}
    stats = {}
    scenarios = []
    for name, const, basis, m, pul in scene["methods"]:
        if isinstance(pul, shaping.ShapingSpec):
            # ShapingSpec holds an array and is unhashable; key on its values
            key = (pul.n, pul.l, pul.alpha, pul.region.tobytes(), pul.objective)
            if key not in designed:
                designed[key] = _design_or_fail(pul)
            result = designed[key]
            stats[name] = {"iterations": result.iterations, "value": result.value,
                           "gap": result.gap}
            pul = result.pulse
        scenarios.append((name, ranging.RangingScenario(
            const, basis, pul, scene["targets"], scene["roi"], m=m,
            bandwidth_hz=echo["bandwidth_hz"],
        )))
    return scenarios, stats


def _ranging_tables(echo: dict, scene: dict, prefix: str) -> list:
    """The scene's sweep and profiles at the echo's settings: <prefix>_rmse.csv, _profile.csv."""
    scenarios, designs = _build_scenarios(echo, scene)
    n, l, bw, seed = echo["n"], echo["l"], echo["bandwidth_hz"], echo["seed"]
    geometry, ref = scene["geometry"], scene["amplitude_ref"]
    rmse = {"snr_db": echo["snr_db"]}
    sweeps = ranging.rmse_sweeps([scenario for _, scenario in scenarios],
                                 geometry["true_range_m"], echo["snr_db"], echo["runs"], seed, ref)
    for (name, _), rows in zip(scenarios, sweeps):
        hits = (row["rmse_hits_m"] for row in rows)  # NaN when no run hits: an empty cell
        rmse[f"{name}_rmse_m"] = [row["rmse_m"] for row in rows]
        rmse[f"{name}_rmse_hits_m"] = [None if math.isnan(v) else v for v in hits]
        rmse[f"{name}_success_rate"] = [row["success_rate"] for row in rows]
    params = echo | geometry | {
        "snr_definition": "strong-path per-sample received power over noise variance",
        "designs": designs,
    }
    profiles = {  # drawn first, so that the range column is not held through the draws
        f"{name}_db": ranging.profile_db(scenario, echo["profile_snr_db"], seed, index, ref)
        for index, (name, scenario) in enumerate(scenarios)
    }
    table = {"range_m": [ranging.range_for_lag(lag, bw, l) for lag in range(l * n)]} | profiles
    return [(f"{prefix}_rmse.csv", rmse, params, seed),
            (f"{prefix}_profile.csv", table, params, seed)]


def _cmd_range_sim(args):
    try:
        with open(args.config) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config {args.config} must hold a JSON object")
    echo, scene = _resolve_range_config(cfg, args.runs, args.seed, args.profile_snr_db)
    outputs = _ranging_tables(echo, scene, args.out_prefix)
    geometry = scene["geometry"]
    return outputs, echo | {"true_range_m": geometry["true_range_m"],
                            "roi_lags": geometry["roi_lags"],
                            "outputs": [path for path, *_ in outputs]}, ()


# ---------------------------------------------------------------------------
# reproduce: canned experiments at the headline parameter set, as data.
# Kinds: "mc" compares Monte Carlo curves (label, constellation, basis, m)
# with the closed form; "psl" designs worst-lag gains over a symbol
# window; "range" is a range-sim config.

_FIG_N, _FIG_L, _FIG_ALPHA = 128, 10, 0.35
_SCENE = {
    "n": _FIG_N,
    "l": _FIG_L,
    "alpha": _FIG_ALPHA,
    "bandwidth_hz": 200e6,
    "targets": [
        {"range_m": 20.0, "gain_db": 0.0, "label": "strong"},
        {"range_m": 30.0, "gain_db": -45.0, "label": "weak"},
    ],
    "roi_m": [23.74, 31.24],
    "estimate": "weak",
    "sweep": {"snr_db": [15.0, 20.0, 25.0, 30.0, 35.0]},
}
_DESIGNED = {"pulse": "designed", "objective": "isl", "region": [5, 15]}

_RECIPES = {
    # single-carrier 16-QAM with and without slot averaging
    "fig1": {"kind": "mc", "pulse_db": True, "curves": [
        ("m1", "qam16", "sc", 1), ("m100", "qam16", "sc", 100),
    ]},
    # 16-QAM across the three standard bases
    "fig2": {"kind": "mc", "curves": [
        ("sc", "qam16", "sc", 1), ("cdma", "qam16", "cdma", 1), ("ofdm", "qam16", "ofdm", 1),
    ]},
    # subcarrier basis across constellation families
    "fig3": {"kind": "mc", "curves": [
        ("psk16", "psk16", "ofdm", 1), ("qam16", "qam16", "ofdm", 1),
        ("qam1024", "qam1024", "ofdm", 1), ("gaussian", "gaussian", "ofdm", 1),
    ]},
    # worst-lag gain design against the RRC baseline
    "fig4": {"kind": "psl", "window": [5, 15]},
    # SC against OFDM after 100-slot averaging
    "fig5": {"kind": "mc", "curves": [
        ("sc", "qam16", "sc", 100), ("ofdm", "qam16", "ofdm", 100),
    ]},
    # 16-PSK ranging: both bases, baseline and designed gains
    "fig6": {"kind": "range", "config": _SCENE | {"methods": [
        {"name": "sc_rrc", "constellation": "psk16", "basis": "sc", "pulse": "rrc"},
        {"name": "sc_designed", "constellation": "psk16", "basis": "sc", **_DESIGNED},
        {"name": "ofdm_rrc", "constellation": "psk16", "basis": "ofdm", "pulse": "rrc"},
        {"name": "ofdm_designed", "constellation": "psk16", "basis": "ofdm", **_DESIGNED},
    ]}},
    # 16-QAM OFDM ranging with and without 1000-slot averaging
    "fig7": {"kind": "range", "config": _SCENE | {"methods": [
        {"name": f"{label}_m{m}", "constellation": "qam16", "basis": "ofdm", **kind, "m": m}
        for m in (1, 1000)
        for label, kind in (("rrc", {"pulse": "rrc"}), ("designed", _DESIGNED))
    ]}},
}


def _mc_recipe(name: str, recipe: dict, args) -> list:
    pul = pulse.rrc_spectrum(_FIG_N, _FIG_L, _FIG_ALPHA)
    table = {"lag": range(_FIG_N * _FIG_L)}
    if recipe.get("pulse_db"):
        table["pulse_db"] = _floor_db(pul)
    for label, const_name, basis_name, m in recipe["curves"]:
        theory, result = _theory_and_trials(
            constellation.from_name(const_name),
            modulation.make_basis(basis_name, _FIG_N),
            pul, m, args.trials, args.seed,
        )
        table[f"theory_{label}_db"] = acfstats.to_db_of_peak(theory.total, _FIG_N)
        table[f"empirical_{label}_db"] = acfstats.to_db_of_peak(result.mean_sq, _FIG_N)
    params = {
        "recipe": name,
        "curves": [list(curve) for curve in recipe["curves"]],
        "n": _FIG_N,
        "l": _FIG_L,
        "alpha": _FIG_ALPHA,
        "trials": args.trials,
    }
    return [(f"{args.out_dir}/{name}.csv", table, params, args.seed)]


def _psl_recipe(name: str, recipe: dict, args) -> list:
    lags = shaping.sidelobe_lags(_FIG_N, _FIG_L, *recipe["window"])
    result, rrc, params = _design(_FIG_N, _FIG_L, _FIG_ALPHA, lags, "psl")
    params |= {"recipe": name, "region_symbols": recipe["window"]}
    spectrum = {"bin": range(_FIG_N), "rrc": rrc.g, "designed": result.pulse.g}
    return [(f"{args.out_dir}/{name}_acf.csv", _acf_table(rrc, result.pulse), params, args.seed),
            (f"{args.out_dir}/{name}_spectrum.csv", spectrum, params, args.seed)]


def _range_recipe(name: str, recipe: dict, args) -> list:
    echo, scene = _resolve_range_config(recipe["config"], args.runs, args.seed)
    return _ranging_tables(echo | {"recipe": name}, scene, f"{args.out_dir}/{name}")


_RECIPE_KINDS = {"mc": _mc_recipe, "psl": _psl_recipe, "range": _range_recipe}


def _cmd_reproduce(args):
    for flag, lo in (("trials", 2), ("runs", 1), ("seed", 0)):  # before any recipe runs
        if getattr(args, flag) < lo:
            raise ValueError(f"--{flag} must be >= {lo}, got {getattr(args, flag)}")
    names = list(_RECIPES) if "all" in args.recipes else list(dict.fromkeys(args.recipes))
    outputs, timings = [], []
    for name in names:
        started = time.perf_counter()
        recipe = _RECIPES[name]
        made = _RECIPE_KINDS[recipe["kind"]](name, recipe, args)
        seconds = time.perf_counter() - started
        outputs += [output + (seconds,) for output in made]
        timings.append(f"{name}: {seconds:.2f}s")
    return outputs, {
        "figures": names,
        "out_dir": str(args.out_dir),
        "seed": args.seed,
        "trials": args.trials,
        "runs": args.runs,
        "files": [path for path, *_ in outputs],
    }, timings


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    grid = argparse.ArgumentParser(add_help=False)  # shared by shape and the waveform flags
    grid.add_argument("--n", type=int, default=_FIG_N, help="symbols per block")
    grid.add_argument("--l", type=int, default=_FIG_L, help="oversampling factor")
    grid.add_argument("--alpha", type=float, default=_FIG_ALPHA, help="roll-off factor")
    inputs = argparse.ArgumentParser(add_help=False)  # listed ahead of the grid in --help
    inputs.add_argument("--constellation", default="qam16",
                        help="pskM, qamM, gaussian, or custom (with --constellation-file)")
    inputs.add_argument("--constellation-file", help="two-column re/im alphabet file")
    inputs.add_argument("--basis", default="sc", choices=["sc", "ofdm", "cdma", "custom"])
    inputs.add_argument("--basis-file", help="row-major re/im unitary matrix file")
    inputs.add_argument("--pulse", default="rrc", choices=["rrc", "file"])
    inputs.add_argument("--pulse-file", help="gain file, one value per line")
    wave = argparse.ArgumentParser(add_help=False, parents=[inputs, grid])
    wave.add_argument("--m", type=int, default=1, help="slots averaged coherently")

    parser = argparse.ArgumentParser(
        prog="acfshape",
        description="Correlation statistics, gain design, and ranging experiments "
                    "for randomly modulated pulse-shaped signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("acf-theory", parents=[wave],
                        help="closed-form expected squared correlation per lag")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(handler=_cmd_acf_theory)

    sp = sub.add_parser("acf-mc", parents=[wave],
                        help="empirical squared correlation against the closed form")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(handler=_cmd_acf_mc)

    sp = sub.add_parser("shape", parents=[grid], help="design in-band gains against a lag window")
    sp.add_argument("--objective", default="psl", choices=["isl", "psl"])
    sp.add_argument("--region", required=True, help="window as lo:hi")
    sp.add_argument("--region-units", default="symbol", choices=["symbol", "lag"])
    sp.add_argument("--tol", type=float, default=None, help="psl relative duality gap")
    sp.add_argument("--max-iter", type=int, default=None, help="Lawson step or active-set cap")
    sp.add_argument("--out-spectrum", help="designed gains, one per line (loadable)")
    sp.add_argument("--out-acf", help="CSV of baseline and designed correlation floors")
    sp.set_defaults(handler=_cmd_shape)

    sp = sub.add_parser("range-sim", help="matched-filter ranging experiment from a config")
    sp.add_argument("--config", required=True, help="JSON experiment description")
    sp.add_argument("--runs", type=int, default=None, help="override sweep.runs")
    sp.add_argument("--seed", type=int, default=None, help="override config seed")
    sp.add_argument("--profile-snr-db", type=float, default=None,
                    help="SNR for the emitted range profiles")
    sp.add_argument("--out-prefix", default="range-sim",
                    help="prefix for <prefix>_rmse.csv and <prefix>_profile.csv")
    sp.set_defaults(handler=_cmd_range_sim)

    sp = sub.add_parser("reproduce", help="canned experiment recipes")
    sp.add_argument("recipes", nargs="+", choices=[*_RECIPES, "all"], metavar="recipe",
                    help=f"one or more of {', '.join(_RECIPES)}, or all")
    sp.add_argument("--out-dir", default=".")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1000,
                    help="Monte Carlo trials for correlation recipes")
    sp.add_argument("--runs", type=int, default=100,
                    help="Monte Carlo runs per SNR for ranging recipes")
    sp.set_defaults(handler=_cmd_reproduce)
    return parser


def _files(command: str, seconds: float, path, table, params: dict, seed,
           recipe_seconds: float | None = None) -> list[tuple[str, str]]:
    """A table's text and its manifest's, as (path, text) pairs for tableio.commit.

    The manifest's wall time is the recipe's under reproduce, else the
    command's.  A table that cannot be written (a short or non-finite
    column) is a NumericalFailure naming path.
    """
    try:
        text = tableio.csv_text(table)
    except ValueError as exc:
        raise NumericalFailure(f"{path}: {exc}") from exc
    manifest = tableio.manifest_text(command, params | {"out": str(path)}, seed,
                                     seconds if recipe_seconds is None else recipe_seconds)
    return [(path, text), (tableio.manifest_path(path), manifest)]


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code.

    A handler computes and returns (outputs, summary, timings): each output
    is (path, table, manifest params, seed), plus the recipe's seconds
    under reproduce.  Every table and manifest is then written in one
    tableio.commit, and only after it are the timing lines printed on
    stderr and the summary on stdout.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        started = time.perf_counter()
        outputs, resolved, timings = args.handler(args)
        seconds = time.perf_counter() - started
        tableio.commit([file for output in outputs
                        for file in _files(args.command, seconds, *output)])
    except np.linalg.LinAlgError as exc:  # a ValueError, but a solver breakdown
        failure = exc
    except (ValueError, OSError) as exc:
        return _fail(EXIT_VALIDATION, f"invalid configuration: {exc}")
    except Exception as exc:  # NumericalFailure and anything unforeseen
        failure = exc
    else:
        for line in timings:
            print(line, file=sys.stderr)
        try:
            print(json.dumps(resolved, sort_keys=True))
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe or a full device; the outputs stay
            _discard_stdout()
            return _fail(EXIT_VALIDATION, f"cannot write the summary to stdout: {exc}")
        return EXIT_OK
    return _fail(EXIT_NUMERICAL, f"numerical failure: {type(failure).__name__}: {failure}")


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that its exit flush cannot fail."""
    fd = sys.stdout.fileno()
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _fail(code: int, message: str) -> int:
    """Print message as one stderr line; return the exit code."""
    print(message.replace("\n", " "), file=sys.stderr)
    return code


def main() -> None:
    raise SystemExit(run())
