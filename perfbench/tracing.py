"""Span tracing of the ddsmetrics layers, installed from outside.

Each traced function is replaced, in the module namespace where its
caller looks it up at call time, by a wrapper that records a span: name,
start, end, parent span, row id and thread. Rows come from the sweep's
task runner (``sweeps._run_ordered``), whose worker is wrapped so every
row gets a span whose id is its position in the sweep; spans started
inside a row inherit its id. Spans stay in memory and are written out
once the workload is done.

Counts (samples, probes, elements, bytes) are taken outside the timed
spans. Byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
import time

import numpy as np

# (module, attribute, span name) for every wrapped function.
_TARGETS = [
    ("sweeps", "evaluate", "metrics.evaluate"),
    ("metrics", "max_abs_error", "metrics.max_abs_error"),
    ("metrics", "spectrum_dft", "metrics.spectrum_dft"),
    ("metrics", "thd", "metrics.thd"),
    ("metrics", "staircase_values", "metrics.staircase_values"),
    ("metrics", "sin_turns_array", "signals.sin_turns_array"),
    ("sweeps", "snap_multiplier", "sweeps.snap_multiplier"),
    ("cli", "sweep_bits", "cli.sweep"),
    ("cli", "sweep_multiplier", "cli.sweep"),
    ("cli", "sweep_grid", "cli.sweep"),
    ("reporting", "sweep_to_csv", "reporting.sweep_to_csv"),
    ("charts", "render_line_chart", "charts.render"),
    ("charts", "render_heatmap", "charts.render"),
]

_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _dft_bytes(n: int) -> int:
    """Bytes of the arrays one ``spectrum_dft`` call of n samples
    allocates: samples and their squares (8n each), the rfft output
    (16*(n/2+1)), three amplitude temporaries and the bin indices
    (8*(n/2-1) each)."""
    half = n // 2
    return 16 * n + 16 * (half + 1) + 32 * (half - 1)


class Tracer:
    """Records spans and layer counts for one process."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []  # (id, name, start, end, parent, row, thread)
        self.command = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.dft_samples: list[int] = []
        self.max_error_calls: list[tuple] = []
        self.sin_elements = 0
        self.csv_bytes = 0
        self.svg_bytes = 0

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    def call(self, name, fn, args, kwargs, parent=None, row=None):
        stack = self._stack()
        if parent is None:
            parent = self.current()
        if row is None:
            row = parent[1]
        with self._lock:
            span_id = next(self._ids)
        stack.append((span_id, row))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, name, start, end, parent[0], row, threading.get_ident())
                )

    # -- installation ------------------------------------------------------

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            self._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result) -> None:
        if name == "metrics.spectrum_dft":
            self.dft_samples.append(2 * (len(result.bins) + 1))
        elif name == "metrics.max_abs_error":
            self.max_error_calls.append(args)
        elif name == "signals.sin_turns_array":
            self.sin_elements += int(np.size(args[0]))
        elif name == "reporting.sweep_to_csv":
            self.csv_bytes += len(result.encode("utf-8"))
        elif name == "charts.render":
            self.svg_bytes += len(result.encode("utf-8"))

    def install(self) -> None:
        m = self.modules
        for module, attr, name in _TARGETS:
            if hasattr(m[module], attr):
                setattr(m[module], attr, self._wrapper(name, getattr(m[module], attr)))
        bounds = m["bounds"]
        for attr in getattr(bounds, "__all__", ()):
            if attr.endswith("_bound"):
                setattr(bounds, attr, self._wrapper("bounds." + attr, getattr(bounds, attr)))
        sweeps = m["sweeps"]
        if hasattr(sweeps, "_run_ordered"):
            sweeps._run_ordered = self._row_runner(sweeps._run_ordered)

    def _row_runner(self, run_ordered):
        def traced(tasks, worker, workers):
            parent = self.current()
            command = self.command

            def row(item):
                index, task = item
                return self.call(
                    "sweeps.row", worker, (task,), {}, parent=parent,
                    row=f"{command}:{index}",
                )

            return run_ordered(list(enumerate(tasks)), row, workers)

        return traced

    def run_main(self, main, argv, command: int):
        self.command = command
        return self.call("cli.main", main, (argv,), {}, parent=(None, None))

    # -- aggregation ---------------------------------------------------------

    def write(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "row", "thread")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)
            handle.write("\n")

    def layers(self, workers: list[int]) -> dict:
        """Per-layer metrics of everything traced so far.

        ``<layer>.s`` is inclusive busy time summed over the layer's
        outermost spans, across threads. Self time is a span's duration
        minus the union of its children's intervals; with a thread pool
        the children overlap, so the union is taken, not the sum.
        ``workers`` holds the pool size of each command, in command order.
        """
        by_id = {s[0]: s for s in self.spans}
        children: dict = {}
        for s in self.spans:
            children.setdefault(s[4], []).append(s)

        def group(span_name: str) -> str:
            return "bounds" if span_name.startswith("bounds.") else span_name

        def busy(name: str) -> float:
            total = 0.0
            for s in self.spans:
                parent = by_id.get(s[4])
                if group(s[1]) == name and (parent is None or group(parent[1]) != name):
                    total += s[3] - s[2]
            return total

        def self_time(span) -> float:
            covered, reach = 0.0, span[2]
            for c in sorted(children.get(span[0], ()), key=lambda c: c[2]):
                lo, hi = max(c[2], reach), min(c[3], span[3])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            return (span[3] - span[2]) - covered

        latencies = sorted(
            1e3 * (s[3] - s[2]) for s in self.spans if s[1] == "metrics.evaluate"
        )
        # Without the row runner, a row is its evaluate call.
        rows = [s[3] - s[2] for s in self.spans if s[1] == "sweeps.row"] or [
            ms / 1e3 for ms in latencies
        ]
        row_s = sum(rows)
        n = len(latencies)
        tail_pct = next((p for p in _TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 50.0)
        tail = latencies[max(0, math.ceil(tail_pct / 100 * n) - 1)] if n else 0.0
        probe_times = getattr(self.modules["metrics"], "probe_times", None)
        probes = sum(len(probe_times(*args)) for args in self.max_error_calls) if probe_times else 0
        dft_s, mae_s = busy("metrics.spectrum_dft"), busy("metrics.max_abs_error")
        sweep_spans = sorted((s for s in self.spans if s[1] == "cli.sweep"), key=lambda s: s[2])
        capacity = sum(w * (s[3] - s[2]) for w, s in zip(workers, sweep_spans))
        return {
            "metrics.spectrum_dft.s": dft_s,
            "metrics.spectrum_dft.samples": sum(self.dft_samples),
            "metrics.spectrum_dft.max_samples": max(self.dft_samples, default=0),
            "metrics.spectrum_dft.bytes": sum(_dft_bytes(n) for n in self.dft_samples),
            "metrics.spectrum_dft.row_share": dft_s / row_s if row_s else 0.0,
            "metrics.max_abs_error.s": mae_s,
            "metrics.max_abs_error.probes": probes,
            "metrics.max_abs_error.row_share": mae_s / row_s if row_s else 0.0,
            "signals.sin_turns_array.s": busy("signals.sin_turns_array"),
            "signals.sin_turns_array.elements": self.sin_elements,
            "metrics.evaluate.p50_ms": statistics.median(latencies) if n else 0.0,
            "metrics.evaluate.tail_ms": tail,
            "metrics.evaluate.tail_pct": tail_pct,
            "metrics.evaluate.max_ms": latencies[-1] if n else 0.0,
            "sweeps.rows": len(rows),
            "sweeps.row_s": row_s,
            "sweeps.parallel_efficiency": row_s / capacity if capacity else 0.0,
            "metrics.staircase_values.s": busy("metrics.staircase_values"),
            "metrics.thd.s": busy("metrics.thd"),
            "sweeps.snap_multiplier.s": busy("sweeps.snap_multiplier"),
            "bounds.s": busy("bounds"),
            "reporting.sweep_to_csv.s": busy("reporting.sweep_to_csv"),
            "reporting.csv_bytes": self.csv_bytes,
            "charts.render.s": busy("charts.render"),
            "charts.svg_bytes": self.svg_bytes,
            "cli.self_s": sum(self_time(s) for s in self.spans if s[1] == "cli.main"),
        }
