"""Show that every output check rejects a corrupted output.

    python3 perfbench/selftest.py [--seed 2] [--workload NAME ...]

For each workload the self-test runs one pass into a scratch directory
under perfbench/work/selftest, requires every check to pass on the clean
outputs, then applies each corruption below to a copy and requires the
named check to fail.  Exits 0 only if all of that holds.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
import time

import checks
import run
import workloads


def _edit_column(path, column, edit) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    i = rows[0].index(column)
    for r, row in enumerate(rows[1:]):
        row[i] = edit(r, row[i])
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _edit_manifest(path, edit) -> None:
    path = path + ".manifest.json"
    with open(path) as handle:
        payload = json.load(handle)
    edit(payload["parameters"])
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _shift_db(delta):
    return lambda r, cell: repr(float(cell) + delta)


def _at_row(row, value):
    return lambda r, cell: value if r == row else cell


def _move_peak(column):
    """Put the profile's 0 dB peak ten lags past the strong target."""
    def corrupt(out, prefix):
        table = checks.read_table(prefix + "_profile.csv")
        ranges = checks.numbers(table["range_m"])
        strong = int(abs(ranges - workloads.STRONG_RANGE_M).argmin())
        _edit_column(prefix + "_profile.csv", column,
                     lambda r, cell: "0.0" if r == strong + 10 else
                     ("-3.0" if r == strong else cell))
    return corrupt


def _swap_gains(path):
    with open(path) as handle:
        g = [float(line) for line in handle]
    i = next(k for k in range(len(g) - 1) if g[k] < g[k + 1])
    g[i], g[i + 1] = g[i + 1], g[i]
    with open(path, "w") as handle:
        handle.write("".join(f"{v!r}\n" for v in g))


def _top_snr_order(out, prefix):
    table = checks.read_table(prefix + "_rmse.csv")
    worse = float(table["sc_designed_rmse_m"][-1]) + 1.0
    last = len(table["snr_db"]) - 1
    _edit_column(prefix + "_rmse.csv", "ofdm_designed_rmse_m", _at_row(last, repr(worse)))


def _ranging(name):
    prefix = "ranging_avg" if name == "ranging-avg" else "fig6"
    first = (workloads.RANGING_AVG_METHODS[0]["name"] if name == "ranging-avg"
             else workloads.RANGING_SINGLE_METHODS[0])
    cases = [
        ("profile peak off the strong target's lag", "profile.peak",
         lambda out: _move_peak(f"{first}_db")(out, f"{out}/{prefix}")),
        ("success rate above 1", "rmse.table",
         lambda out: _edit_column(f"{out}/{prefix}_rmse.csv", f"{first}_success_rate",
                                  _at_row(0, "1.5"))),
        ("non-finite profile cell", "profile.table",
         lambda out: _edit_column(f"{out}/{prefix}_profile.csv", f"{first}_db",
                                  _at_row(5, "nan"))),
    ]
    if name == "ranging-single":
        cases.append(("OFDM-designed rmse above SC-designed at the top snr",
                      "rmse.basis_order", lambda out: _top_snr_order(out, f"{out}/{prefix}")))
    return cases


CORRUPTIONS = {
    "stats": [
        ("empirical column shifted by 3 dB", "fig1.empirical",
         lambda out: _edit_column(f"{out}/fig1.csv", "empirical_m1_db", _shift_db(3.0))),
        ("one theory value off the closed form", "fig2.theory",
         lambda out: _edit_column(f"{out}/fig2.csv", "theory_cdma_db",
                                  lambda r, c: repr(float(c) + 0.1) if r == 0 else c)),
        ("non-finite cell", "fig3.table",
         lambda out: _edit_column(f"{out}/fig3.csv", "empirical_gaussian_db",
                                  _at_row(7, "inf"))),
    ],
    "design": [
        ("manifest with converged false", "isl_5:15.converged",
         lambda out: _edit_manifest(f"{out}/isl_5_15.txt",
                                    lambda p: p.update(converged=False))),
        ("iterations at the solver cap", "isl_10:30.converged",
         lambda out: _edit_manifest(f"{out}/isl_10_30.txt",
                                    lambda p: p.update(iterations=checks.solver_cap("isl")))),
        ("design gain of 17 dB", "fig4.gain",
         lambda out: _edit_manifest(f"{out}/fig4_acf.csv",
                                    lambda p: p.update(objective_value=p["baseline_value"] / 50))),
        ("gains out of order", "isl_5:15.monotone",
         lambda out: _swap_gains(f"{out}/isl_5_15.txt")),
        ("gains that do not give the reported floor", "fig4.consistent",
         lambda out: _edit_column(f"{out}/fig4_spectrum.csv", "designed",
                                  lambda r, c: repr(min(1.0, float(c) * 1.01)))),
    ],
    "ranging-avg": _ranging("ranging-avg"),
    "ranging-single": _ranging("ranging-single"),
}


def selftest(workload: str, seed: int) -> bool:
    base = run.WORK / "selftest" / workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0, trace=0)
    clean = base / "clean"
    run.start_worker(args, clean, base / "record.json", time.monotonic() + 600)
    failing = [c for c in checks.run_checks(workload, str(clean)) if not c.ok]
    for c in failing:
        print(f"FAIL {workload}: clean output rejected by {c.name}: {c.detail}")
    ok = not failing
    for i, (label, target, corrupt) in enumerate(CORRUPTIONS[workload]):
        copy = base / f"corrupt{i}"
        shutil.copytree(clean, copy)
        corrupt(str(copy))
        verdict = {c.name: c for c in checks.run_checks(workload, str(copy))}[target]
        caught = not verdict.ok
        ok &= caught
        print(f"{'ok' if caught else 'FAIL'} {workload}: {label} -> {target} "
              f"{'rejected' if caught else 'accepted'} ({verdict.detail})")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--workload", nargs="*", default=list(CORRUPTIONS),
                        choices=list(CORRUPTIONS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    results = [selftest(name, args.seed) for name in args.workload]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
