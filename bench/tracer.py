"""Spans around the public entry points of each sdpsketch layer.

The tracer patches names where their callers look them up (the solver
imports its stages by name, so both the defining module and the solver
namespace are patched) and restores every original on exit.  Each call
records one span: name, start, end, parent span and instance id.  Spans
stay in memory until `write` dumps them at the end of a run.

Count hooks read only call arguments and results, never the stores
themselves, so a traced pass draws and touches exactly what an untraced
pass does.
"""
from __future__ import annotations

import csv
import gzip
import time
from collections import Counter

import sdpsketch.gibbs as gibbs_mod
import sdpsketch.linalg as linalg_mod
import sdpsketch.manifest as manifest_mod
import sdpsketch.sketch as sketch_mod
import sdpsketch.solver as solver_mod
import sdpsketch.spectral as spectral_mod
from sdpsketch.gibbs import GibbsDescription
from sdpsketch.sketch import BasisSketch
from sdpsketch.store import SampledMatrix


def _count_samples(counts, args, kwargs, result):
    counts["store.samples"] += int(result[0].shape[0])


def _count_batches(counts, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    counts["trace.batches"] += cfg.batch_count()


def _count_rows(counts, args, kwargs, result):
    rows = result[0]
    counts["sketch.sampled_rows"] += int(rows.shape[0])
    counts["sketch.distinct_rows"] += int(len(set(rows.tolist())))


def _count_r_tilde(counts, args, kwargs, result):
    counts["sketch.r_tilde_sum"] += result.r_tilde


# (span name, [(owner, attribute), ...], count hook).  Every place in the
# list receives the same wrapper around the first place's original.
_TARGETS = [
    ("solver.test_feasibility", [(solver_mod, "test_feasibility")], None),
    ("manifest.load_feasibility", [(manifest_mod, "load_feasibility")], None),
    ("store.load", [(SampledMatrix, "load")], None),
    ("store.sample_entries", [(SampledMatrix, "sample_entries")], _count_samples),
    (
        "trace.estimate_trace_product",
        [(spectral_mod, "estimate_trace_product"), (gibbs_mod, "estimate_trace_product")],
        _count_batches,
    ),
    (
        "sketch.build_sketch",
        [(sketch_mod, "build_sketch"), (solver_mod, "build_sketch")],
        _count_r_tilde,
    ),
    ("sketch.sample_rows", [(sketch_mod, "sample_rows")], _count_rows),
    ("sketch.sample_cols", [(sketch_mod, "sample_cols")], None),
    ("sketch.basis_rows", [(BasisSketch, "row")], None),
    ("linalg.svd", [(linalg_mod, "svd")], None),
    ("linalg.eigh", [(linalg_mod, "eigh")], None),
    (
        "spectral.estimate_vav",
        [(spectral_mod, "estimate_vav"), (solver_mod, "estimate_vav")],
        None,
    ),
    (
        "spectral.decompose",
        [(spectral_mod, "decompose"), (solver_mod, "decompose")],
        None,
    ),
    (
        "gibbs.estimate_constraint_trace",
        [(gibbs_mod, "estimate_constraint_trace"), (solver_mod, "estimate_constraint_trace")],
        None,
    ),
    ("gibbs.frobenius_norm", [(GibbsDescription, "frobenius_norm")], None),
    ("gibbs.make_gibbs", [(gibbs_mod, "make_gibbs"), (solver_mod, "make_gibbs")], None),
]

SPAN_NAMES = tuple(name for name, _, _ in _TARGETS)


class Tracer:
    """In-memory span recorder; a context manager that installs the patches.

    `spans` holds [name, start, end, parent, instance] lists in start
    order; `parent` is an index into `spans` or -1 for a root span.
    `counts` accumulates the count hooks.  Spans record the `instance`
    attribute current when they start: the solving workload sets it to
    the instance's index, and it is None during set-up.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.instance = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, places, hook in _TARGETS:
            owner, attr = places[0]
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, hook))
            else:
                wrapped = self._wrap(name, original, hook)
            for owner, attr in places:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def mark(self) -> int:
        """Position in `spans`, for selecting the spans of one phase."""
        return len(self.spans)

    def self_times(self, start: int = 0) -> dict[str, float]:
        """Summed self time per span name over spans[start:].

        A span's self time is its duration minus the durations of its
        direct children, which lie inside it on this single thread.
        """
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, t0, t1, parent, _ in self.spans[start:]:
            duration = t1 - t0
            totals[name] += duration
            if parent >= start:
                totals[self.spans[parent][0]] -= duration
        return totals

    def child_calls(self, name: str, parent_name: str, start: int = 0) -> int:
        """Number of `name` spans whose direct parent is a `parent_name` span."""
        return sum(
            1
            for span in self.spans[start:]
            if span[0] == name and span[3] >= 0 and self.spans[span[3]][0] == parent_name
        )

    def calls(self, name: str, start: int = 0) -> int:
        return sum(1 for span in self.spans[start:] if span[0] == name)

    def write(self, path: str) -> None:
        """Dump every span as gzipped CSV, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "instance"])
            for k, (name, t0, t1, parent, instance) in enumerate(self.spans):
                out.writerow(
                    [k, name, f"{t0 - origin:.9f}", f"{t1 - origin:.9f}", parent, instance]
                )
