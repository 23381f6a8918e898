"""Time-to-verdict benchmark for sdpsketch.

Run from the root of a source checkout:

    python3 bench/run.py --workload sparse_wide --seed 1 --seconds 55 --trace 0

The run writes its instance set as manifest and .mat text files under
bench/work/, loads them through the package's loaders, warms up, then
loads and solves the set repeatedly for about --seconds seconds,
checking every verdict or estimate outside the timed region.  It prints
one line per metric and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (solve_s, setup_s, peak_rss_mb).
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics, taken from spans the tracer in bench/tracer.py
records around each layer's entry points; its spans go to bench/out/.
The exit code is 0 when a result was printed, 2 otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# BLAS and OpenMP read these once, when numpy loads; the CLI pins the
# same variables for the same reason.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Before each pass, set-up is timed at least this many times and for at
# least this long.  Spreading the samples over the run lets the median
# see the same machine as the passes do: this machine's speed drifts
# over seconds.
MIN_SETUPS = 3
SETUP_BUDGET_S = 0.3
MAX_SETUPS = 100
# Fewest timed passes per run.  solve_s is the fastest of them: other
# tenants of a shared machine only ever slow a pass down, so the fastest
# pass is the one nearest the program's own cost.
MIN_PASSES = 3

SOLVE_SPANS = (
    "store.sample_entries",
    "trace.estimate_trace_product",
    "sketch.build_sketch",
    "sketch.sample_rows",
    "sketch.sample_cols",
    "sketch.basis_rows",
    "linalg.svd",
    "linalg.eigh",
    "spectral.estimate_vav",
    "spectral.decompose",
    "gibbs.estimate_constraint_trace",
    "gibbs.frobenius_norm",
    "gibbs.make_gibbs",
    "solver.test_feasibility",
)
SETUP_SPANS = ("store.load", "manifest.load_feasibility")
# Count metrics a traced pass must repeat exactly on the same instances.
COUNTS = (
    "store.samples",
    "store.sample_entries.calls",
    "store.touches",
    "trace.estimate_trace_product.calls",
    "trace.batches",
    "sketch.distinct_rows_frac",
    "sketch.r_tilde",
    "sketch.basis_rows",
    "spectral.vav.trace_calls",
    "gibbs.estimate_constraint_trace.calls",
    "solver.rounds",
)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def _import_program(root: str):
    """Import numpy and sdpsketch from the checkout's src/, threads pinned."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sdpsketch", "__init__.py")):
        raise SetupError(f"no sdpsketch package under {src}")
    sys.path.insert(0, src)
    import numpy
    import sdpsketch

    if os.path.dirname(os.path.dirname(os.path.abspath(sdpsketch.__file__))) != src:
        raise SetupError(f"sdpsketch imported from {sdpsketch.__file__}, not {src}")
    return numpy


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "threads": {var: os.environ[var] for var in _THREAD_VARS},
    }


def warm_up(numpy, workload, loaded, seed: int) -> None:
    """One complex 400x400 SVD, then one untimed instance.

    The first SVD in a process pays LAPACK's lazy set-up, which no timed
    pass should carry.
    """
    rng = numpy.random.default_rng(seed)
    a = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
    numpy.linalg.svd(a)
    workload.warm_up(loaded, seed)


def timed_setups(workload, paths) -> list[float]:
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_SETUPS or (
        time.perf_counter() - start < SETUP_BUDGET_S and len(samples) < MAX_SETUPS
    ):
        t0 = time.perf_counter()
        workload.load(paths)
        samples.append(time.perf_counter() - t0)
    return samples


class Pass:
    """Timed set-ups, then one load-solve-verify cycle of the instance set.

    With a tracer, set-up, load and solve run under its patches;
    `setup_self_times` (per set-up), `self_times` and `counts` then hold
    the per-layer numbers.
    """

    def __init__(self, workload, paths, seed, tracer=None):
        start = time.perf_counter()
        # Stores and outputs are locals, so a run's peak memory is that of
        # one pass however many passes fit in it.
        with tracer if tracer is not None else contextlib.nullcontext():
            mark = tracer.mark() if tracer is not None else 0
            self.setups = timed_setups(workload, paths)
            if tracer is not None:
                per_setup = 1.0 / len(self.setups)
                self.setup_self_times = {
                    name: total * per_setup for name, total in tracer.self_times(mark).items()
                }
            t0 = time.perf_counter()
            loaded = workload.load(paths)
            t1 = time.perf_counter()
            if tracer is not None:
                mark, counts_before = tracer.mark(), tracer.counts.copy()
            outputs = workload.solve(loaded, seed, tracer)
            t2 = time.perf_counter()
        self.setups.append(t1 - t0)
        self.solve_s = t2 - t1
        # Read the stores' touch counters before verification queries them.
        self.touches = sum(s.touches for s in workload.stores(loaded))
        self.rounds = workload.rounds_used(outputs)
        if tracer is not None:
            self.self_times = tracer.self_times(mark)
            self.counts = self._counts(tracer, mark, tracer.counts - counts_before)
        self.results = workload.verify(loaded, outputs)
        self.signature = workload.signature(outputs)
        self.wall_s = time.perf_counter() - start

    def _counts(self, tracer, mark, counts) -> dict:
        sampled = counts["sketch.sampled_rows"]
        sketches = tracer.calls("sketch.build_sketch", mark)
        return {
            "store.samples": counts["store.samples"],
            "store.sample_entries.calls": tracer.calls("store.sample_entries", mark),
            "store.touches": self.touches,
            "trace.estimate_trace_product.calls": tracer.calls("trace.estimate_trace_product", mark),
            "trace.batches": counts["trace.batches"],
            "sketch.distinct_rows_frac": counts["sketch.distinct_rows"] / sampled if sampled else 0.0,
            "sketch.r_tilde": counts["sketch.r_tilde_sum"] / sketches if sketches else 0.0,
            "sketch.basis_rows": tracer.calls("sketch.basis_rows", mark),
            "spectral.vav.trace_calls": tracer.child_calls(
                "trace.estimate_trace_product", "spectral.estimate_vav", mark
            ),
            "gibbs.estimate_constraint_trace.calls": tracer.calls(
                "gibbs.estimate_constraint_trace", mark
            ),
            "solver.rounds": self.rounds,
        }


def run_passes(seconds, make_pass):
    """Passes until the next one would end more than `seconds` from now."""
    start = time.perf_counter()
    passes = []
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.fmean(p.wall_s for p in passes) <= seconds
    ):
        passes.append(make_pass(len(passes)))
    return passes


def check(passes) -> tuple[int, int, bool]:
    """(attempted, failed, reproducible) over every pass's results."""
    attempted = sum(len(p.results) for p in passes)
    failed = sum(1 for p in passes for r in p.results if not r.ok)
    reproducible = all(p.signature == passes[0].signature for p in passes)
    return attempted, failed, reproducible


def end_to_end(workload, paths, seed, seconds):
    passes = run_passes(seconds, lambda _: Pass(workload, paths, seed))
    setups = [t for p in passes for t in p.setups]
    metrics = {
        "solve_s": (min(p.solve_s for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"solve_s": [p.solve_s for p in passes], "setups": len(setups)}
    return passes, metrics, notes


def per_layer(workload, paths, seed, seconds, spans_path):
    """Alternate untraced and traced passes; report per-layer numbers.

    Times are means over traced passes, so the solve-phase self times
    plus `tracing.unattributed_s` add up to `tracing.solve_s` exactly.
    """
    from tracer import Tracer

    tracer = Tracer()
    passes = run_passes(seconds, lambda k: Pass(workload, paths, seed, tracer if k % 2 else None))
    tracer.write(spans_path)
    traced = passes[1::2]
    untraced = passes[0::2]

    metrics = {}
    for name in SETUP_SPANS:
        metrics[f"{name}.s"] = (statistics.fmean(p.setup_self_times[name] for p in traced), "s")
    for name in SOLVE_SPANS:
        metrics[f"{name}.s"] = (statistics.fmean(p.self_times[name] for p in traced), "s")
    counts = traced[0].counts
    for name in COUNTS:
        metrics[name] = (counts[name], "ratio" if name.endswith("_frac") else "count")
    counts_repeat = all(p.counts == counts for p in traced)
    untraced_solve = statistics.fmean(p.solve_s for p in untraced)
    traced_solve = statistics.fmean(p.solve_s for p in traced)
    rounds = counts["solver.rounds"]
    metrics["solver.round_s"] = (untraced_solve / rounds if rounds else 0.0, "s")
    attributed = sum(metrics[f"{name}.s"][0] for name in SOLVE_SPANS)
    metrics["tracing.solve_s"] = (traced_solve, "s")
    metrics["tracing.overhead_s"] = (traced_solve - untraced_solve, "s")
    metrics["tracing.unattributed_s"] = (traced_solve - attributed, "s")
    notes = {
        "solve_s": [p.solve_s for p in passes],
        "untraced_solve_s": untraced_solve,
        "counts_repeat": counts_repeat,
        "spans": os.path.relpath(spans_path),
        "span_count": len(tracer.spans),
    }
    return passes, metrics, notes, counts_repeat


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        numpy = _import_program(root)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            + ", ".join(workloads.WORKLOADS),
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(BENCH_DIR, "work", f"{tag}-{os.getpid()}")
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    try:
        paths = workload.generate(args.seed, work)
        warm_up(numpy, workload, workload.load(paths), args.seed)
        if args.trace:
            passes, metrics, notes, counts_repeat = per_layer(
                workload, paths, args.seed, args.seconds, os.path.join(out_dir, f"{tag}.spans.csv.gz")
            )
        else:
            passes, metrics, notes = end_to_end(workload, paths, args.seed, args.seconds)
            counts_repeat = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, reproducible = check(passes)
    correct = failed == 0 and reproducible and counts_repeat
    env = environment(numpy)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "reproducible": reproducible,
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "results": [
            {"label": r.label, "value": repr(r.value), "ok": r.ok} for r in passes[0].results
        ],
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=1)

    print(f"# {args.workload} seed {args.seed}: {env}")
    print(f"# {notes}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
