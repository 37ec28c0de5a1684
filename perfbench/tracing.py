"""Spans around calls into svshrink's public functions, and the per-layer
metrics derived from them.

Spans are kept in memory as (name, start, end, parent, op, count) and written
out when the run ends.  They are timed with the process CPU clock, as ops are.  A span's self time is its duration minus the time its
child spans cover.  `count` carries a per-call measurement taken after the
span closes: grid candidates, ridge fallbacks, or file bytes.
"""

from __future__ import annotations

import csv
import functools
import os
import statistics
from contextlib import contextmanager
from time import process_time
from types import SimpleNamespace

from svshrink import cli, rmt

from workloads import library_calls

ROOT = "bench.op"


def _file_bytes(result, args) -> int:
    return os.path.getsize(args[0])


# Span name -> the count taken from (result, args) when the span closes.
SPANNED = {
    "spectral.svd": None,
    "spectral.reconstruct": None,
    "spectral.read_matrix": _file_bytes,
    "spectral.write_matrix": _file_bytes,
    "shrinkage.apply": None,
    "sure.solve_svlet": lambda result, args: int(result.ridge_used > 0),
    "sure.tune_grid": lambda result, args: len(result.trace),
    "rmt.asymptotic_denoise": None,
    "cli.main": None,
}

# The benchmark's own calls (attributes of workloads.library_calls()) and
# the names svshrink.cli and svshrink.rmt look up, each with its span name.
OP_CALLS = {
    "svd": "spectral.svd",
    "reconstruct": "spectral.reconstruct",
    "apply": "shrinkage.apply",
    "solve_svlet": "sure.solve_svlet",
    "tune_grid": "sure.tune_grid",
    "asymptotic_denoise": "rmt.asymptotic_denoise",
    "cli_main": "cli.main",
}
LOOKUPS = [
    (cli, attr, name)
    for attr, name in (
        ("read_matrix", "spectral.read_matrix"),
        ("write_matrix", "spectral.write_matrix"),
        ("svd", "spectral.svd"),
        ("solve_svlet", "sure.solve_svlet"),
        ("tune_grid", "sure.tune_grid"),
        ("asymptotic_denoise", "rmt.asymptotic_denoise"),
        ("apply", "shrinkage.apply"),
    )
] + [(rmt, "apply", "shrinkage.apply"), (rmt, "reconstruct", "spectral.reconstruct")]


class Tracer:
    """Records nested spans; `op` tags every span with the running op."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._stack: list = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = process_time()
                stack.pop()
            if count is not None:
                record[5] = count(result, args)
            return result

        return traced

    def library_calls(self) -> SimpleNamespace:
        """The op's calls, each wrapped in its span."""
        plain = vars(library_calls())
        return SimpleNamespace(**{
            attr: self.wrap(name, plain[attr], SPANNED[name]) for attr, name in OP_CALLS.items()
        })

    @contextmanager
    def patched(self):
        """Wrap the names svshrink.cli and svshrink.rmt call, then restore them."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in LOOKUPS]
        try:
            for (module, attr, name), (_, _, fn) in zip(LOOKUPS, saved):
                setattr(module, attr, self.wrap(name, fn, SPANNED[name]))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def self_times(self) -> list:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _, _) in enumerate(self.spans)]

    def write(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as stream:
            writer = csv.writer(stream)
            writer.writerow(["name", "start_s", "end_s", "parent", "op", "count"])
            for name, start, end, parent, op, count in self.spans:
                writer.writerow([name, f"{start - origin:.9f}", f"{end - origin:.9f}", parent, op, count])


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics over the traced ops.

    For each spanned function: `.calls` per op, `.self_ms` as the median over
    the ops that call it, and `.share` of all op wall time.  Extras: grid
    candidates, ridge fallbacks, computed file throughput, and the share of
    op wall time outside every library span (cli.unaccounted_share).
    """
    selfs = tracer.self_times()
    wall = 0.0
    ops = 0
    calls = {name: 0 for name in SPANNED}
    counts = {name: 0 for name in SPANNED}
    durations = {name: 0.0 for name in SPANNED}
    self_total = {name: 0.0 for name in SPANNED}
    per_op = {name: {} for name in SPANNED}
    unaccounted = 0.0
    for (name, start, end, _, op, count), own in zip(tracer.spans, selfs):
        if name == ROOT:
            wall += end - start
            ops += 1
            unaccounted += own
            continue
        calls[name] += 1
        counts[name] += count
        durations[name] += end - start
        self_total[name] += own
        per_op[name][op] = per_op[name].get(op, 0.0) + own
        if name == "cli.main":
            unaccounted += own

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0.0 else 0.0

    metrics = {}
    for name in SPANNED:
        metrics[f"{name}.calls"] = (calls[name] / ops if ops else 0.0, "1/op")
        median = statistics.median(per_op[name].values()) if per_op[name] else 0.0
        metrics[f"{name}.self_ms"] = (1e3 * median, "ms")
        metrics[f"{name}.share"] = (rate(self_total[name], wall), "ratio")
    grid_calls = calls["sure.tune_grid"]
    metrics["sure.tune_grid.candidates"] = (
        counts["sure.tune_grid"] / grid_calls if grid_calls else 0.0, "count/call")
    metrics["sure.tune_grid.candidates_per_s"] = (
        rate(counts["sure.tune_grid"], durations["sure.tune_grid"]), "1/s")
    metrics["sure.solve_svlet.ridge_fallbacks"] = (counts["sure.solve_svlet"], "count")
    for name in ("spectral.read_matrix", "spectral.write_matrix"):
        metrics[f"{name}.mb_per_s"] = (1e-6 * rate(counts[name], durations[name]), "MB/s")
    metrics["cli.unaccounted_share"] = (rate(unaccounted, wall), "ratio")
    return metrics
