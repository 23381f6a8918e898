#!/usr/bin/env python3
"""Print one sha256 per benchmark workload and seed of its solved outputs.

For each workload of `bench/workloads.py` (`sparse_wide`,
`infeasible_long`, `gibbs_kernel`) and each seed 1-20, generates the
instance set as the benchmark does, loads it, solves it once and hashes
the workload's `signature` of the outputs: the verdict, iterations and
violation log of a feasibility run, or the estimates of `gibbs_kernel`.
For `sparse_wide` a second line, `sparse_wide-witness <seed> <sha256>`,
hashes the bits of every feasible witness's `frobenius_norm()` and of
its `bulk_entries` over support x support (the norm alone for the
maximally mixed witness, which has no basis to read).  Last, the
`vav-sampled <seed> <sha256>` lines hash the bits of
`spectral.estimate_vav` on a sampled case, seeds 1-20: a two-summand
`random_matrix_sum` at n = 128 and rank 2 (r_tilde 4), sketched at
p = 400, at a budget of 0.5 r_tilde tau, loose enough that every store
is sampled, not summed.  The `check-sampled <seed> <sha256>` lines hash
the bits of `gibbs.estimate_constraint_trace` against the candidate at
beta = 1 of that sampled estimate, on a dense rank-2 store at n = 128,
eps = 0.9 and delta = 0.3: a store above its sampling plan (the script
stops if it is not), so the check draws.  Every line is
`<name> <seed> <sha256>`, in a fixed order, so two checkouts compare by
diffing this script's output:

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

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from sdpsketch.gibbs import estimate_constraint_trace, make_gibbs  # noqa: E402
from sdpsketch.instances import random_low_rank, random_matrix_sum  # noqa: E402
from sdpsketch.rng import substream  # noqa: E402
from sdpsketch.sketch import SketchParams, build_sketch  # noqa: E402
from sdpsketch.spectral import decompose, estimate_vav  # noqa: E402
from sdpsketch.trace import EstimatorConfig  # noqa: E402

WORKLOADS = ("sparse_wide", "infeasible_long", "gibbs_kernel")
SEEDS = range(1, 21)


def witness_bytes(witness) -> bytes:
    """The witness's norm, then its entries over support x support, as bits."""
    out = np.float64(witness.frobenius_norm()).tobytes()
    if not witness.uniform_fallback:
        support = witness.basis.support()
        rows = np.repeat(support, support.shape[0])
        cols = np.tile(support, support.shape[0])
        out += witness.bulk_entries(rows, cols).tobytes()
    return out


def digests(workload, seed: int) -> list[tuple[str, str]]:
    """(line name, sha256) pairs for one workload and seed."""
    with tempfile.TemporaryDirectory() as root:
        loaded = workload.load(workload.generate(seed, root))
    outputs = workload.solve(loaded, seed)
    out = [(workload.name, hashlib.sha256(repr(workload.signature(outputs)).encode()))]
    if workload.name == "sparse_wide":
        witness = hashlib.sha256()
        for outcome in outputs:
            if not isinstance(outcome, Exception) and outcome.feasible:
                witness.update(witness_bytes(outcome.witness))
        out.append((f"{workload.name}-witness", witness))
    return [(name, digest.hexdigest()) for name, digest in out]


def sampled_vav(seed: int):
    """The basis and sampled V^dagger A V estimate of the `vav-sampled` case."""
    ms = random_matrix_sum(128, tau=2, rank=2, rng=substream(seed, 1))
    v = build_sketch(ms, SketchParams(p=400, gamma=1e-6), substream(seed, 2))
    return v, estimate_vav(v, ms, 0.5 * v.r_tilde * ms.tau, 0.1, substream(seed, 3))


def vav_sampled_digest(seed: int) -> str:
    """sha256 of the bits of a sampled V^dagger A V estimate."""
    _, core = sampled_vav(seed)
    return hashlib.sha256(core.tobytes()).hexdigest()


def check_sampled_digest(seed: int) -> str:
    """sha256 of the bits of a constraint check that samples its store."""
    v, core = sampled_vav(seed)
    g = make_gibbs(v, decompose(core, basis=v), beta=1.0)
    a = random_low_rank(128, 2, substream(seed, 5))
    eps, delta = 0.9, 0.3
    cfg = EstimatorConfig(eps=eps / 5.0, delta=delta)
    plan = cfg.batch_count() * cfg.batch_size(a.frobenius_norm() ** 2, g.fro_bound**2)
    if a.nnz <= plan:
        raise SystemExit(f"check-sampled {seed}: {a.nnz} entries within a plan of {plan}")
    est = estimate_constraint_trace(g, a, eps, delta, substream(seed, 7))
    return hashlib.sha256(np.float64(est).tobytes()).hexdigest()


def main() -> None:
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name]()
        for seed in SEEDS:
            for line, digest in digests(workload, seed):
                print(f"{line} {seed} {digest}", flush=True)
    for seed in SEEDS:
        print(f"vav-sampled {seed} {vav_sampled_digest(seed)}", flush=True)
    for seed in SEEDS:
        print(f"check-sampled {seed} {check_sampled_digest(seed)}", flush=True)


if __name__ == "__main__":
    main()
