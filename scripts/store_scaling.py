#!/usr/bin/env python3
"""Time matrix-file loading, store construction and block gathers.

Three kinds of store: a 24x24 Hermitian block on random coordinates at
n = 10^5 (the shape of one `sparse_wide` constraint), a dense 32x32
store, and diagonal stores at several n.  Each store's upper triangle is
written once in the text format; then `SampledMatrix.load` on that file
and the constructor on the same entry arrays are each timed after one
untimed warm-up call.  The first table gives the median over the repeats
in microseconds per listed entry (one file line, one upper-triangle
entry).

The second table times `SampledMatrix.block` per call at the sketch's
two request shapes on the block and dense 32x32 stores: the distinct
rows x distinct columns of p entry draws (the core), and every stored
row x those rows (the basis-row fill), with the p of the benchmark
workload each store mimics.  It adds a dense rank-2 store at
n = DENSE_N, requested at 100 x 100, n x 100 and 2 x 100.

Example:
    python3 scripts/store_scaling.py --repeats 7
"""
from __future__ import annotations

import argparse
import os
import statistics
import tempfile
import time

import numpy as np

from sdpsketch.store import SampledMatrix

# Entry draws behind one sketch request, the p of the benchmark workload
# whose stores the block and dense 32x32 stores mimic: `sparse_wide` and
# `infeasible_long` (bench/workloads.py).
DRAWS = (400, 200)
# Dimension of the dense rank-2 store, 4 * 10^6 stored entries.
DENSE_N = 2000


def block_entries(n: int, k: int, rng):
    """Upper triangle of a random Hermitian k-by-k block on k coordinates of n."""
    coords = np.sort(rng.choice(n, k, replace=False))
    block = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    block = block + block.conj().T
    a, b = np.triu_indices(k)
    return coords[a], coords[b], block[a, b]


def diagonal_entries(n: int, rng):
    index = np.arange(n)
    return index, index, rng.standard_normal(n).astype(np.complex128)


def rank_two(n: int, rng) -> np.ndarray:
    """Dense Hermitian n-by-n matrix of rank 2, every entry nonzero."""
    g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    q, _ = np.linalg.qr(g)
    return (q * np.array([1.0, -0.5])) @ q.conj().T


def median_seconds(fn, repeats: int) -> float:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5, help="timed calls per store and step")
    ap.add_argument(
        "--diag-sizes", type=int, nargs="+", default=[10**4, 10**5, 10**6],
        help="dimensions of the diagonal stores",
    )
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    stores = [("24x24 block, n=1e5", 10**5, block_entries(10**5, 24, rng))]
    stores.append(("dense 32x32", 32, block_entries(32, 32, rng)))
    for n in args.diag_sizes:
        stores.append((f"diagonal, n={n:.0e}", n, diagonal_entries(n, rng)))

    print(f"median of {args.repeats} after a warm-up, microseconds per listed entry")
    print(f"{'store':<22} {'entries':>9} {'load':>9} {'construct':>10}")
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "store.mat")
        for name, n, (rows, cols, vals) in stores:
            SampledMatrix(rows, cols, vals, n, rank_hint=1).save(path)
            load = median_seconds(lambda: SampledMatrix.load(path), args.repeats)
            build = median_seconds(
                lambda: SampledMatrix(rows, cols, vals, n, rank_hint=1), args.repeats
            )
            count = rows.shape[0]
            print(f"{name:<22} {count:>9} {load / count * 1e6:>9.3f} {build / count * 1e6:>10.3f}")

    requests = []
    for (name, n, (rows, cols, vals)), p in zip(stores, DRAWS):
        store = SampledMatrix(rows, cols, vals, n, rank_hint=1)
        drawn, _, _ = store.sample_entries(rng.random((p, 2)))
        urows = np.unique(drawn)
        ucols = np.unique(store.cols_at(drawn, rng.random(p)))
        requests.append((name, store, "core", urows, ucols))
        requests.append((name, store, "fill", np.unique(store.entries()[0]), urows))
    store = SampledMatrix.from_dense(rank_two(DENSE_N, rng), rank_hint=2)
    sampled = np.sort(rng.choice(DENSE_N, 100, replace=False))
    name = f"dense rank 2, n={DENSE_N}"
    requests.append((name, store, "core", sampled, sampled))
    requests.append((name, store, "fill", np.arange(DENSE_N), sampled))
    requests.append((name, store, "two rows", sampled[:2], sampled))

    print()
    print(f"`block` per call: median of {args.repeats} after a warm-up, microseconds")
    print(f"{'store':<22} {'request':<9} {'shape':>12} {'block':>10}")
    for name, store, request, rows, cols in requests:
        seconds = median_seconds(lambda: store.block(rows, cols), args.repeats)
        shape = f"{rows.shape[0]}x{cols.shape[0]}"
        print(f"{name:<22} {request:<9} {shape:>12} {seconds * 1e6:>10.1f}")


if __name__ == "__main__":
    main()
