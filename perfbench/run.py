"""acfshape benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload stats --seed 1 --seconds 20 --trace 0

Run from the repository root; acfshape is imported from ``src/``, not
installed.  The workloads are defined in ``workloads.py`` and the metrics
in ``BENCHMARK.json`` at the root.

A run first starts a few fresh processes that only set up (import acfshape
and build the workload's inputs) and takes the median of their set-up
times.  It then starts one worker process (``worker.py``) that runs the
workload's command lines in-process through ``acfshape.cli.run``, as
passes, for about --seconds.  With --trace 1 the worker alternates
untraced and traced passes and the run reports the per-layer metrics
instead of the end-to-end ones.  Afterwards every output is checked
(``checks.py``); one operation is one CLI call or one check.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  If acfshape cannot be found or the
worker dies, the run exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_PROBES = 4  # fresh set-up-only processes, besides the worker's own set-up
RUN_LIMIT_S = 170.0  # the whole run, probes and worker, ends within this

# Thread variables recorded as found.  The worker gets one BLAS thread and
# the program's own default for ACFSHAPE_THREADS.
THREAD_VARS = [
    "ACFSHAPE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
]
WORKER_THREADS = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result at all."""


def _parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("ACFSHAPE_THREADS", None)
    env.update(WORKER_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def start_worker(args, out: Path, record: Path, deadline: float, *extra) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", os.path.relpath(out, ROOT), "--record", str(record), *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before the worker started")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker did not finish in {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(record) as handle:
        return json.load(handle)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads_found": {var: os.environ.get(var) for var in THREAD_VARS},
        "threads_set": WORKER_THREADS,
    }


def _metric_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def measure(args) -> tuple[dict, list, Path]:
    """Set-up probes plus the worker; returns (record, set-up times, out dir)."""
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    for i in range(SETUP_PROBES):
        probe = start_worker(args, work / f"setup{i}", work / f"setup{i}.json",
                             deadline, "--setup-only")
        setups.append(probe["setup_s"])
    out = work / "out"
    record = start_worker(args, out, work / "record.json", deadline)
    setups.append(record["setup_s"])
    return record, setups, out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "acfshape" / "__init__.py").is_file():
        print(f"acfshape sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        record, setups, out = measure(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    sys.path.insert(0, str(SRC))
    import checks

    results = checks.run_checks(args.workload, str(out))
    try:
        quality = checks.quality(args.workload, str(out))
    except (OSError, KeyError, ValueError, ZeroDivisionError):
        quality = {}  # the output checks already count what is missing
    digests = checks.digests(str(out))
    env = environment()

    untraced = [p for p in record["passes"] if not p["traced"]]
    traced = [p for p in record["passes"] if p["traced"]]
    wall_s = statistics.median(p["wall_s"] for p in untraced)
    computed = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": record["peak_rss_mib"],
    }
    if traced:
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        computed.update(record["layers"])
        computed.update({
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "traced_wall_s": traced_wall,
            "trace_overhead_s": traced_wall - wall_s,
            "design_gain_db": quality.get("design_gain_db", 0.0),
            "hit_rate": quality.get("hit_rate", 0.0),
        })

    attempted = record["calls"] + len(results)
    failed = len(record["failures"]) + sum(not c.ok for c in results)
    spec = _metric_spec()
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes, "
          f"pass walls {[round(p['wall_s'], 3) for p in record['passes']]}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"set-up times {[round(s, 4) for s in setups]}")
    for failure in record["failures"]:
        print("call FAILED " + json.dumps(failure))
    for check in results:
        print(f"check {'PASS' if check.ok else 'FAIL'} {check.name}: {check.detail}")
    for name, digest in digests.items():
        print(f"sha256 {digest} {name}")
    for name, value in metrics.items():
        print(f"metric {name} = {value['value']:.6g} {value['unit']}")
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for name, value in ({} if traced else quality).items():
        print(f"metric {name} = {value:.6g} {checks.QUALITY_UNITS[name]}")
    if traced and record["absent"]:
        print("absent, reported as 0: " + ", ".join(record["absent"]))

    with open(WORK / args.workload / "result.json", "w") as handle:
        json.dump({"env": env, "digests": digests, "setups_s": setups,
                   "checks": [c.__dict__ for c in results], "record": record}, handle)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
