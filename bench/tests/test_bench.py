"""Tests of the benchmark itself: verifiers, tracer and reproducible counts.

Run from the repository root:

    python3 -m pytest -q bench/tests

Workloads run here at reduced settings (smaller n, fewer rounds or
instances) through the same code the benchmark times.
"""
from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from sdpsketch import oracle, rng  # noqa: E402

SMALL = {
    "sparse_wide": dict(n=2_000),
    "infeasible_long": dict(rounds=4),
    "gibbs_kernel": dict(instances=2),
}


def traced_pass(name, seed, directory):
    workload = workloads.WORKLOADS[name](**SMALL[name])
    paths = workload.generate(seed, directory)
    return run.Pass(workload, paths, seed, Tracer())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_and_results_repeat_exactly(name, tmp_path):
    first = traced_pass(name, 5, str(tmp_path / "a"))
    second = traced_pass(name, 5, str(tmp_path / "b"))
    assert all(r.ok for r in first.results)
    assert first.counts == second.counts
    assert first.signature == second.signature
    assert set(first.counts) == set(run.COUNTS)
    assert first.counts["store.samples"] > 0
    assert first.counts["trace.batches"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_changes_no_result(name, tmp_path):
    workload = workloads.WORKLOADS[name](**SMALL[name])
    paths = workload.generate(6, str(tmp_path))
    plain = run.Pass(workload, paths, 6)
    traced = run.Pass(workload, paths, 6, Tracer())
    assert plain.signature == traced.signature
    assert plain.touches == traced.touches


def test_a_program_error_fails_its_instance_only():
    from sdpsketch import NumericalError

    class Flaky(workloads.Workload):
        def solve_one(self, item, seed, k, warm_up=False):
            if item == "bad":
                raise NumericalError("spectrum out of bounds")
            return item

        def check_one(self, item, output, k):
            return [workloads.Result(f"instance{k}", output, True)]

        def summary(self, output):
            return output

    flaky = Flaky()
    outputs = flaky.solve(["good", "bad"], 0)
    assert [r.ok for r in flaky.verify(["good", "bad"], outputs)] == [True, False]
    assert flaky.signature(outputs) == flaky.signature(flaky.solve(["good", "bad"], 0))


def test_tracer_restores_every_patched_name(tmp_path):
    import sdpsketch.solver as solver_mod
    from sdpsketch.store import SampledMatrix

    before = (solver_mod.build_sketch, SampledMatrix.__dict__["load"], SampledMatrix.sample_entries)
    with Tracer():
        assert solver_mod.build_sketch is not before[0]
    after = (solver_mod.build_sketch, SampledMatrix.__dict__["load"], SampledMatrix.sample_entries)
    assert before == after


def test_self_times_add_up_to_the_solve_time(tmp_path):
    traced = traced_pass("infeasible_long", 7, str(tmp_path))
    spans = traced.self_times
    assert all(value >= 0.0 for value in spans.values())
    # Every solve-phase span sits under test_feasibility, so the self
    # times add up to the solve time less the benchmark's own loop.
    assert sum(spans.values()) == pytest.approx(traced.solve_s, rel=0.02)


def test_sparse_verifier_matches_dense_oracle():
    problem = workloads.sparse_planted(64, 4, 8, 0.2, rng.substream(3, 1))
    outcome = workloads.SparseWide(n=64, support=8).solve([problem], 3)[0]
    assert outcome.feasible
    exact = oracle.constraint_traces(problem, oracle.dense_solution(outcome.witness))
    np.testing.assert_allclose(
        workloads.sparse_witness_traces(problem, outcome.witness), exact, atol=1e-12
    )


def test_sparse_bounds_are_exact_traces_at_the_planted_state():
    problem = workloads.sparse_planted(48, 4, 8, 0.2, rng.substream(4, 1))
    minus_vv = oracle.dense_store(problem.constraints[0])
    vals, vecs = np.linalg.eigh(minus_vv)
    v = vecs[:, 0]
    assert vals[0] == pytest.approx(-1.0)
    rho = np.outer(v, v.conj())
    np.testing.assert_allclose(oracle.constraint_traces(problem, rho), problem.bounds, atol=1e-12)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    os.makedirs(tmp_path / "bench")
    for name in ("run.py", "workloads.py", "tracer.py"):
        with open(os.path.join(BENCH, name), "rb") as src:
            (tmp_path / "bench" / name).write_bytes(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "infeasible_long", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_unknown_workload_exits_2():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nope", "--seed", "1", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
