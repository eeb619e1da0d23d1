"""Spans and counters around acfshape's public functions.

The tracer replaces each traced function in every ``acfshape.*`` module
that binds it (``cli`` binds ``run_trials`` and ``ranging`` binds
``synthesize`` through ``from ... import``), and wraps ``numpy.fft.fft``
and ``numpy.fft.ifft`` to count transforms.  Nothing under ``src/`` is
edited: the wrappers are installed for a traced pass and removed after.

A span is (name, start, end, parent index, pass index).  Spans stay in
memory until the run ends; ``layer_metrics`` turns them into per-pass
calls, busy time and self time, where self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _symbols(args, kwargs, result):
    count = args[1] if len(args) > 1 else kwargs["count"]
    yield "constellation.sample_symbols.symbols", int(np.prod(count))


def _trial_slots(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    yield "montecarlo.slots", config.trials * config.m


def _ranging_slots(args, kwargs, result):
    scenario = args[0] if args else kwargs["scenario"]
    yield "ranging.slots", scenario.m


def _solver(prefix):
    def count(args, kwargs, result):
        yield f"{prefix}.iterations", result.iterations
        yield f"{prefix}.converged", int(bool(result.converged))
    return count


def _detections(args, kwargs, result):
    yield "ranging.runs", 1
    yield "ranging.hits", int(bool(result))


def _table(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    yield "tableio.emit_csv.rows", len(rows)
    yield "tableio.emit_csv.bytes", os.path.getsize(path)


# (module, function, counter hook) for every traced public function
TARGETS = [
    ("acfstats", "expected_sq_acf", None),
    ("acfstats", "mean_acf", None),
    ("montecarlo", "run_trials", _trial_slots),
    ("montecarlo", "synthesize", None),
    ("constellation", "sample_symbols", _symbols),
    ("modulation", "modulate", None),
    ("shaping", "design_pulse", None),
    ("qpsolver", "solve_minimax", _solver("qpsolver.solve_minimax")),
    ("qpsolver", "solve_box_qp", _solver("qpsolver.solve_box_qp")),
    ("ranging", "rmse_sweep", None),
    ("ranging", "run_once", _ranging_slots),
    ("ranging", "synthesize_echo", None),
    ("ranging", "matched_filter", None),
    ("ranging", "estimate_range", None),
    ("ranging", "detection_success", _detections),
    ("tableio", "emit_csv", _table),
    ("tableio", "write_manifest", None),
]

ROOT_SPAN = "cli.run"

# every counter the hooks and the fft wrapper can raise, reported as 0 when idle
COUNTERS = [
    "constellation.sample_symbols.symbols",
    "montecarlo.slots",
    "ranging.slots",
    "qpsolver.solve_minimax.iterations",
    "qpsolver.solve_minimax.converged",
    "qpsolver.solve_box_qp.iterations",
    "qpsolver.solve_box_qp.converged",
    "ranging.runs",
    "ranging.hits",
    "tableio.emit_csv.rows",
    "tableio.emit_csv.bytes",
    "fft.calls",
    "fft.points",
    "fft.flops_computed",
    "fft.bytes_computed",
]


class Tracer:
    """Records spans and counters while installed; one per traced run."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.passes = 0
        self._stack: list[int] = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.passes)

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                for key, inc in hook(args, kwargs, result):
                    tracer.counters[key] += inc
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_fft(self, fn):
        counters = self.counters

        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
            length = out.shape[axis]
            counters["fft.calls"] += 1
            counters["fft.points"] += out.size
            counters["fft.flops_computed"] += 5.0 * out.size * math.log2(length)
            counters["fft.bytes_computed"] += np.asarray(a).nbytes + out.nbytes
            return out

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Swap in the wrappers; names that no longer exist go to absent."""
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "acfshape" or name.startswith("acfshape."))
        ]
        absent = []
        for module_name, func_name, hook in TARGETS:
            try:
                module = importlib.import_module(f"acfshape.{module_name}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, func_name, None)
            if original is None:
                absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(original, f"{module_name}.{func_name}", hook)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
        for func_name in ("fft", "ifft"):
            original = getattr(np.fft, func_name)
            self._patches.append((np.fft, func_name, original))
            setattr(np.fft, func_name, self._count_fft(original))
        self.absent = absent

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    @contextmanager
    def traced_pass(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.passes += 1

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, pass_index in self.spans:
                handle.write(f"{pass_index},{parent},{name},{start:.9f},{end:.9f}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-pass averages of calls, busy, self time and counters."""
    passes = max(tracer.passes, 1)
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    child: defaultdict = defaultdict(float)
    for name, start, end, parent, _ in tracer.spans:
        calls[name] += 1
        busy[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    own: defaultdict = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(tracer.spans):
        own[name] += (end - start) - child[index]

    out: dict[str, float] = {}
    for module_name, func_name, _ in TARGETS:
        name = f"{module_name}.{func_name}"
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.busy_s"] = busy[name] / passes
        out[f"{name}.self_s"] = own[name] / passes
    out["cli.self_s"] = own[ROOT_SPAN] / passes
    for key in COUNTERS:
        out[key] = tracer.counters[key] / passes
    for prefix in ("qpsolver.solve_minimax", "qpsolver.solve_box_qp"):
        iterations = out.get(f"{prefix}.iterations", 0.0)
        out[f"{prefix}.s_per_iter"] = (
            out[f"{prefix}.busy_s"] / iterations if iterations else 0.0
        )
    return out
