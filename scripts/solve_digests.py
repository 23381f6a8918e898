#!/usr/bin/env python3
"""Print one sha256 per benchmark workload and seed of its solved outputs.

For each workload of `bench/workloads.py` (`sparse_wide`,
`infeasible_long`, `gibbs_kernel`) and each seed 1-20, generates the
instance set as the benchmark does, loads it, solves it once and hashes
the workload's `signature` of the outputs: the verdict, iterations and
violation log of a feasibility run, or the estimates of `gibbs_kernel`.
Every line is `<workload> <seed> <sha256>`, in a fixed order, so two
checkouts compare by diffing this script's output:

    PYTHONPATH=src python3 scripts/solve_digests.py > solves.txt
"""
from __future__ import annotations

import hashlib
import os
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench"))

import workloads  # noqa: E402

WORKLOADS = ("sparse_wide", "infeasible_long", "gibbs_kernel")
SEEDS = range(1, 21)


def signature_digest(workload, seed: int) -> str:
    with tempfile.TemporaryDirectory() as root:
        loaded = workload.load(workload.generate(seed, root))
    outputs = workload.solve(loaded, seed)
    return hashlib.sha256(repr(workload.signature(outputs)).encode()).hexdigest()


def main() -> None:
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name]()
        for seed in SEEDS:
            print(f"{name} {seed} {signature_digest(workload, seed)}", flush=True)


if __name__ == "__main__":
    main()
