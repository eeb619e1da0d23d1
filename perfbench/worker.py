"""One workload in one fresh process, driven in-process through acfshape.cli.run.

    python3 perfbench/worker.py --workload stats --seed 1 --seconds 20 \
        --trace 0 --out DIR --record FILE [--setup-only]

Set-up is importing acfshape and building the workload's inputs; it is
timed from before the import.  The worker then repeats the workload's
command lines as passes while the next pass still fits in --seconds (at
least one pass; with --trace 1 at least two, alternating untraced and
traced).  It writes a JSON record with the per-pass wall and CPU times,
its own peak RSS, every failed call, and with tracing the per-layer
metrics.  acfshape must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import time
import traceback

import workloads


def _parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for the workload's tables")
    parser.add_argument("--record", required=True, help="JSON record to write")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _call(cli, argv, failures) -> None:
    """One CLI call; a non-zero exit or an exception is a failure."""
    sink, errors = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
            code = cli.run(argv)
    except Exception:  # the benchmark counts it and carries on
        failures.append({"argv": argv, "error": traceback.format_exc(limit=3)})
        return
    if code != 0:
        failures.append({"argv": argv, "exit": code, "stderr": errors.getvalue()[-2000:]})


def main(argv=None) -> None:
    args = _parse(argv)
    started = time.perf_counter()
    from acfshape import cli

    calls = workloads.build(args.workload, args.seed, args.out)
    setup_s = time.perf_counter() - started
    record: dict = {"setup_s": setup_s}
    if args.setup_only:
        with open(args.record, "w") as handle:
            json.dump(record, handle)
        return

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes, failures = [], []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        scope = tracer.traced_pass() if traced else contextlib.nullcontext()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with scope:
            for call in calls:
                if traced:
                    with tracer.span(tracing.ROOT_SPAN):
                        _call(cli, call, failures)
                else:
                    _call(cli, call, failures)
        passes.append({
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
            "traced": traced,
        })
        done = time.perf_counter() - begin
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= (2 if tracer else 1) and done + typical > args.seconds:
            break

    record.update({
        "passes": passes,
        "calls": len(calls) * len(passes),
        "failures": failures,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
        record["absent"] = tracer.absent
        tracer.write_spans(os.path.join(os.path.dirname(args.record), "spans.csv"))
    with open(args.record, "w") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main()
