#!/usr/bin/env python3
"""Time matrix-file loading and store construction per stored entry.

Three kinds of store: a 24x24 Hermitian block on random coordinates at
n = 10^5 (the shape of one `sparse_wide` constraint), a dense 32x32
store, and diagonal stores at several n.  Each store's upper triangle is
written once in the text format; then `SampledMatrix.load` on that file
and the constructor on the same entry arrays are each timed after one
untimed warm-up call.  The table gives the median over the repeats in
microseconds per listed entry (one file line, one upper-triangle entry).

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


if __name__ == "__main__":
    main()
