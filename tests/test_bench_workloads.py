"""Every workload the benchmark declares runs end to end on this checkout.

`bench/run.py` reads the package through `bench/workloads.py` and
`bench/tracer.py`, so a change that breaks a name they read would
otherwise surface only as a failed benchmark run.  Each workload listed
in BENCHMARK.json is generated, loaded, solved under the tracer and
verified by `run.Pass`, at the reduced settings of `bench/tests`.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Reduced settings per workload, as `bench/tests` runs them.
SMALL = {"sparse_wide": dict(n=2_000), "infeasible_long": dict(rounds=4)}


def listed_workloads():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return [w["name"] for w in json.load(handle)["workloads"]]


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their module through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return {name: load_bench(name) for name in ("run", "workloads", "tracer")}


@pytest.mark.parametrize("name", listed_workloads())
def test_listed_workload_passes_end_to_end(name, bench, tmp_path):
    run, workloads, tracer = bench["run"], bench["workloads"], bench["tracer"]
    workload = workloads.WORKLOADS[name](**SMALL[name])
    paths = workload.generate(5, str(tmp_path))
    traced = run.Pass(workload, paths, 5, tracer.Tracer())
    assert traced.results
    assert all(r.ok for r in traced.results), traced.results
    assert set(traced.counts) == set(run.COUNTS)
