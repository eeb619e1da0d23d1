"""The four benchmark workloads as lists of acfshape command lines.

Each workload stresses a different layer, so that a change to one layer
shows on one workload and leaves the others where they were:

  stats           reproduce fig1 fig2 fig3 fig5: Monte Carlo, closed forms
                  and table output, with no solver and no ranging
  design          reproduce fig4 (psl minimax ADMM) and two isl designs
                  (box-QP ADMM): the solvers only
  ranging-avg     range-sim from a config with fig7's scene: 16-QAM OFDM,
                  rrc and isl-designed pulses at m=1 and m=1000, so the
                  m=1000 echo synthesis and matched filter dominate
  ranging-single  reproduce fig6 at 500 runs: 10,000 single-slot runs,
                  where per-run overhead and peak picking dominate

``build`` writes whatever input files a workload needs and returns its
command lines; the seed reaches every command that takes one.
"""

from __future__ import annotations

import json
import os

STATS_TRIALS = 200
STATS_FIGURES = ("fig1", "fig2", "fig3", "fig5")
RANGING_AVG_RUNS = 1
RANGING_SINGLE_RUNS = 500
ISL_WINDOWS = ("5:15", "10:30")

FIG_SNR_DB = [15.0, 20.0, 25.0, 30.0, 35.0]
STRONG_RANGE_M = 20.0

_DESIGNED = {"pulse": "designed", "objective": "isl", "region": [5, 15]}

# fig7's scene and methods, run through the range-sim config parser
RANGING_AVG_METHODS = [
    {"name": "rrc_m1", "pulse": "rrc", "m": 1},
    {"name": "designed_m1", **_DESIGNED, "m": 1},
    {"name": "rrc_m1000", "pulse": "rrc", "m": 1000},
    {"name": "designed_m1000", **_DESIGNED, "m": 1000},
]
RANGING_SINGLE_METHODS = ["sc_rrc", "sc_designed", "ofdm_rrc", "ofdm_designed"]


def ranging_avg_config(seed: int) -> dict:
    return {
        "n": 128,
        "l": 10,
        "alpha": 0.35,
        "bandwidth_hz": 200e6,
        "targets": [
            {"range_m": STRONG_RANGE_M, "gain_db": 0.0, "label": "strong"},
            {"range_m": 30.0, "gain_db": -45.0, "label": "weak"},
        ],
        "roi_m": [23.74, 31.24],
        "estimate": "weak",
        "methods": [
            {"constellation": "qam16", "basis": "ofdm", **method}
            for method in RANGING_AVG_METHODS
        ],
        "sweep": {"snr_db": FIG_SNR_DB, "runs": RANGING_AVG_RUNS},
        "seed": seed,
    }


def _stats(seed: int, out: str) -> list[list[str]]:
    return [
        ["reproduce", fig, "--trials", str(STATS_TRIALS), "--seed", str(seed),
         "--out-dir", out]
        for fig in STATS_FIGURES
    ]


def _design(seed: int, out: str) -> list[list[str]]:
    calls = [["reproduce", "fig4", "--seed", str(seed), "--out-dir", out]]
    for window in ISL_WINDOWS:
        stem = os.path.join(out, "isl_" + window.replace(":", "_"))
        calls.append(
            ["shape", "--objective", "isl", "--region", window,
             "--out-spectrum", stem + ".txt", "--out-acf", stem + ".csv"]
        )
    return calls


def _ranging_avg(seed: int, out: str) -> list[list[str]]:
    config = os.path.join(out, "scene.json")
    with open(config, "w") as handle:
        json.dump(ranging_avg_config(seed), handle, indent=1)
    return [["range-sim", "--config", config,
             "--out-prefix", os.path.join(out, "ranging_avg")]]


def _ranging_single(seed: int, out: str) -> list[list[str]]:
    return [["reproduce", "fig6", "--runs", str(RANGING_SINGLE_RUNS),
             "--seed", str(seed), "--out-dir", out]]


WORKLOADS = {
    "stats": _stats,
    "design": _design,
    "ranging-avg": _ranging_avg,
    "ranging-single": _ranging_single,
}


def build(name: str, seed: int, out: str) -> list[list[str]]:
    """Create the output directory and inputs; return the command lines."""
    os.makedirs(out, exist_ok=True)
    return WORKLOADS[name](seed, out)
