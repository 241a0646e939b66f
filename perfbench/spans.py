"""Spans around the package's module boundaries, installed from outside.

Each wrapped function is replaced at the module (or class) attribute its
caller looks up, so no file of the package changes.  A span records
(name, start, end, parent span, request id); counts are taken from the
arguments and return values at the same boundary.  Everything stays in
memory until :meth:`Tracer.write` at the end of the run.

A function that no longer exists is reported as absent, and one whose
arguments or results no longer fit its counter as uncounted, rather than
failing the run, so the traced run keeps working across refactors of the
package.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

_STEPS = "latency_tail_s, throughput_per_s, fail_share"
_MINKOWSKI = "throughput_per_s on set-stress; latency_p50_s on sparse-sweep"

#: Per-layer metrics: (name, unit, better, end-to-end metric it should move,
#: workloads where it should move).  BENCHMARK.json lists the same names.
LAYER_METRICS = [
    ("linalg.kernel_s", "s", "lower", "throughput_per_s, latency_p50_s", "iru-large"),
    ("linalg.kernel_matrices", "count", "lower", "throughput_per_s, latency_p50_s", "iru-large"),
    ("linalg.kernel_bytes", "bytes", "lower", "throughput_per_s, latency_p50_s", "iru-large"),
    ("linalg.power_steps", "count", "lower", _STEPS, "sparse-sweep"),
    ("linalg.power_steps_max", "count", "lower", _STEPS, "sparse-sweep"),
    ("linalg.unconverged", "count", "lower", _STEPS, "sparse-sweep"),
    ("linalg.converged_ratio", "ratio", "higher", _STEPS, "sparse-sweep"),
    ("sets.parse_s", "s", "lower", "latency_p50_s", "sparse-sweep"),
    ("sets.enumerate_s", "s", "lower", "throughput_per_s", "set-stress"),
    ("sets.enumerate_calls", "count", "lower", "throughput_per_s", "set-stress"),
    ("sets.members_enumerated", "count", "lower", "throughput_per_s", "set-stress"),
    ("sets.hull_sample_s", "s", "lower", "throughput_per_s", "set-stress"),
    ("sets.hull_samples", "count", "lower", "throughput_per_s", "set-stress"),
    ("sets.minkowski_s", "s", "lower", _MINKOWSKI, "both"),
    ("sets.minkowski_pairs", "count", "lower", _MINKOWSKI, "both"),
    ("sets.minkowski_kept_ratio", "ratio", "higher", _MINKOWSKI, "both"),
    ("saddle.table_s", "s", "lower", "peak_rss_mb, throughput_per_s", "iru-large"),
    ("saddle.products_formed", "count", "lower", "peak_rss_mb, throughput_per_s", "iru-large"),
    ("saddle.table_bytes", "bytes", "lower", "peak_rss_mb, throughput_per_s", "iru-large"),
    ("saddle.solve_s", "s", "lower", "throughput_per_s", "iru-large, set-stress"),
    ("saddle.certify_s", "s", "lower", "throughput_per_s", "iru-large, set-stress"),
    ("saddle.hull_check_s", "s", "lower", "throughput_per_s", "iru-large, set-stress"),
    ("alternative.hset_check_s", "s", "lower", "throughput_per_s", "set-stress"),
    ("alternative.probe_pairs", "count", "lower", "throughput_per_s", "set-stress"),
    ("alternative.images", "count", "lower", "throughput_per_s", "set-stress"),
    ("alternative.failures", "count", "lower", "throughput_per_s", "set-stress"),
    ("cli.self_s", "s", "lower", "latency_p50_s", "sparse-sweep"),
    ("cli.report_bytes", "bytes", "lower", "latency_p50_s", "sparse-sweep"),
    ("trace.overhead_share", "share", "lower", "-", "all"),
]

#: Self time of these spans makes up each per-layer time metric.
SELF_TIMES = {
    "linalg.kernel_s": ("linalg._power_many",),
    "sets.parse_s": ("sets.set_from_json",),
    "sets.enumerate_s": ("sets.MatrixSet._array",),
    "sets.hull_sample_s": ("sets.convex_hull_sample",),
    "sets.minkowski_s": ("sets.minkowski_sum", "sets.minkowski_product"),
    "saddle.table_s": ("saddle._table_data",),
    "saddle.solve_s": ("saddle.solve_saddle",),
    "saddle.certify_s": ("saddle.certify_saddle",),
    "saddle.hull_check_s": ("saddle.check_saddle_hull_samples",),
    "alternative.hset_check_s": ("alternative.check_hset_sampled",),
    "cli.self_s": ("cli.main",),
}


def _cardinality(mset) -> int:
    card = getattr(mset, "cardinality", None)
    if isinstance(card, int):
        return card
    try:
        return len(mset)
    except TypeError:
        return 0


def _count_kernel(counts, args, kwargs, out):
    _, vectors, iterations, converged = out
    count, n = vectors.shape
    counts["linalg.kernel_matrices"] += count
    counts["linalg.kernel_bytes"] += count * n * n * 8
    counts["linalg.power_steps"] += int(iterations.sum())
    if count:
        counts["linalg.power_steps_max"] = max(
            counts["linalg.power_steps_max"], int(iterations.max())
        )
    counts["linalg.unconverged"] += int((~converged).sum())
    counts["_converged"] += int(converged.sum())


def _count_enumerate(counts, args, kwargs, out):
    counts["sets.enumerate_calls"] += 1
    counts["sets.members_enumerated"] += len(out)


def _count_hull_sample(counts, args, kwargs, out):
    counts["sets.hull_samples"] += 1


def _count_minkowski(counts, args, kwargs, out):
    counts["sets.minkowski_pairs"] += _cardinality(args[0]) * _cardinality(args[1])
    counts["_minkowski_kept"] += _cardinality(out)


def _count_table(counts, args, kwargs, out):
    table, _, arr_a, _ = out
    counts["saddle.products_formed"] += table.size
    counts["saddle.table_bytes"] += table.size * arr_a.shape[1] ** 2 * 8


def _count_hset(counts, args, kwargs, out):
    members = _cardinality(args[0])
    probes = args[1] if len(args) > 1 else kwargs["n_probes"]
    counts["alternative.probe_pairs"] += members * probes
    counts["alternative.images"] += members * members * probes
    counts["alternative.failures"] += len(out.failures)


#: (module, attribute, span name, counter).  A function appears once per
#: module that looks it up, since each caller resolves its own global.
BOUNDARIES = [
    ("hourglass.cli", "main", "cli.main", None),
    ("hourglass.cli", "set_from_json", "sets.set_from_json", None),
    ("hourglass.sets", "set_from_json", "sets.set_from_json", None),
    ("hourglass.cli", "_table_data", "saddle._table_data", _count_table),
    ("hourglass.saddle", "_table_data", "saddle._table_data", _count_table),
    ("hourglass.cli", "solve_saddle", "saddle.solve_saddle", None),
    ("hourglass.cli", "certify_saddle", "saddle.certify_saddle", None),
    ("hourglass.cli", "check_saddle_hull_samples", "saddle.check_saddle_hull_samples", None),
    ("hourglass.cli", "check_hset_sampled", "alternative.check_hset_sampled", _count_hset),
    ("hourglass.saddle", "_power_many", "linalg._power_many", _count_kernel),
    ("hourglass.linalg", "_power_many", "linalg._power_many", _count_kernel),
    ("hourglass.saddle", "convex_hull_sample", "sets.convex_hull_sample", _count_hull_sample),
    ("hourglass.sets", "minkowski_sum", "sets.minkowski_sum", _count_minkowski),
    ("hourglass.sets", "minkowski_product", "sets.minkowski_product", _count_minkowski),
]

#: Method boundaries: every subclass of the named class that defines the
#: method gets its own wrapper.
METHOD_BOUNDARIES = [
    ("hourglass.sets", "MatrixSet", "_array", "sets.MatrixSet._array", _count_enumerate),
]


def _implementers(cls, attr: str) -> list[type]:
    """``cls`` and its subclasses that define ``attr`` with a concrete body."""
    found = []
    stack = [cls]
    while stack:
        c = stack.pop()
        stack.extend(c.__subclasses__())
        fn = c.__dict__.get(attr)
        if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
            found.append(c)
    return found


class Tracer:
    """In-memory spans and counts; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.request])
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid][1], spans[sid][2] = start, end
            if count is not None:
                try:
                    count(self.counts, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # The function changed its arguments or results.
                    self.uncounted.add(name)
            return out

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name, count in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = module.__dict__.get(attr)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self._wrap(name, fn, count))
        for module_name, cls_name, attr, name, count in METHOD_BOUNDARIES:
            base = getattr(importlib.import_module(module_name), cls_name, None)
            owners = _implementers(base, attr) if isinstance(base, type) else []
            if not owners:
                self.absent.append(f"{module_name}.{cls_name}.{attr}")
            for owner in owners:
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], count))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the durations of its direct children, by name."""
        if not self.spans:
            return {}
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans])
        own = end - start
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], (end - start)[has_parent])
        totals: dict[str, float] = defaultdict(float)
        for span, value in zip(self.spans, own):
            totals[span[0]] += float(value)
        return totals

    def layer_metrics(self, overhead_share: float) -> dict[str, float]:
        own = self.self_times()
        metrics = {}
        for name, _, _, _, _ in LAYER_METRICS:
            if name in SELF_TIMES:
                metrics[name] = sum(own.get(span, 0.0) for span in SELF_TIMES[name])
            else:
                metrics[name] = float(self.counts.get(name, 0.0))
        seen = self.counts["_converged"] + self.counts["linalg.unconverged"]
        metrics["linalg.converged_ratio"] = self.counts["_converged"] / seen if seen else 1.0
        pairs = self.counts["sets.minkowski_pairs"]
        metrics["sets.minkowski_kept_ratio"] = (
            self.counts["_minkowski_kept"] / pairs if pairs else 1.0
        )
        metrics["trace.overhead_share"] = overhead_share
        return metrics

    def write(self, path) -> None:
        """Write spans (one JSON array per line) and counts, once."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "request"],
                                 "absent": self.absent,
                                 "uncounted": sorted(self.uncounted),
                                 "counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
