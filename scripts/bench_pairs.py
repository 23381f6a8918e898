#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs; write BENCH_<label>.json.

Each pair runs `bench/run.py --trace 0` once in PARENT and once in
CHANGE, each from its own checkout root, and the side that runs first
alternates from pair to pair, so a drift in the machine's speed falls on
both sides alike.  The last line a run prints is its JSON record; every
record is kept.  Per end-to-end metric the output holds each side's
values, median and quartiles, the pair wins (in how many pairs the
change read better than the parent, worse, or the same, with "better"
as CHANGE's BENCHMARK.json declares it) and the median of the per-pair
change/parent ratios with a distribution-free interval for it.  The
output and the printout also name each side's tree: its `git rev-parse
HEAD` and whether it had uncommitted changes (tracked or untracked
files that differ from HEAD), both null for a directory that is not
the root of a git checkout.  A run that prints no record stops the
script.

Example, from the root of a checkout:

    python3 scripts/bench_pairs.py ../parent . sparse_wide 1 --pairs 10 --seconds 55

writes BENCH_sparse_wide-seed1.json (the name follows `--label`) into
`--out`, the current directory by default.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
# Least coverage of the interval `ratio_interval` gives for the median ratio.
_COVERAGE = 0.95


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout at `root`; its JSON record."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{' '.join(cmd)} in {root} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(lines[-1])


def checkout_state(root: str) -> dict:
    """Commit and dirtiness of the git checkout whose root is `root`, or nulls."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True, check=False
            )
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(root):
        return {"commit": None, "dirty": None}
    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def ratio_interval(ratios: list[float]) -> dict:
    """Median of the ratios and an order-statistic interval for the true median.

    For m ratios sorted r_1 <= ... <= r_m, [r_k, r_(m+1-k)] misses the
    median of their law only if at most k - 1 of them fall on one side,
    so it covers it with probability 1 - 2 P(Bin(m, 1/2) <= k - 1),
    whatever the law.  k is the largest with coverage >= `_COVERAGE` (k = 1
    when none reaches it): with 10 pairs, [r_2, r_9] at 97.9%.
    """
    m = len(ratios)
    ordered = sorted(ratios)

    def coverage(k: int) -> float:
        return 1.0 - 2.0 * sum(math.comb(m, i) for i in range(k)) / 2.0**m

    k = 1
    while k < (m + 1) // 2 and coverage(k + 1) >= _COVERAGE:
        k += 1
    return {
        "median": statistics.median(ratios),
        "low": ordered[k - 1],
        "high": ordered[m - k],
        "coverage": coverage(k),
    }


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' spread, the pair wins and the change/parent ratio."""
    out = {}
    for name in runs[0]["parent"]["metrics"]:
        sides = {
            side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES
        }
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        gains = [sign * (c - p) for p, c in zip(sides["parent"], sides["change"])]
        out[name] = {
            "better": better.get(name, "lower"),
            **{side: spread(values) for side, values in sides.items()},
            "change_wins": sum(g > 0 for g in gains),
            "parent_wins": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "ratio": ratio_interval(
                [c / p for p, c in zip(sides["parent"], sides["change"])]
            ),
        }
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--label", help="names the output file (default: WORKLOAD-seedSEED)")
    parser.add_argument("--out", default=".", help="directory of the output file")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as handle:
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}
    trees = {side: checkout_state(root) for side, root in roots.items()}
    for side in SIDES:
        print(f"{side}: {roots[side]} commit {trees[side]['commit']} dirty {trees[side]['dirty']}")
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        run = {"pair": pair, "first": order[0]}
        for side in order:
            run[side] = run_once(roots[side], args.workload, args.seed, args.seconds)
        runs.append(run)
        print(
            f"pair {pair} ({order[0]} first): "
            + ", ".join(
                f"{side} solve_s {run[side]['metrics']['solve_s']['value']:.6g}"
                f" attempted {run[side]['attempted']} failed {run[side]['failed']}"
                for side in SIDES
            ),
            flush=True,
        )
    metrics = summarize(runs, better)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "trees": trees,
        "failed": {side: sum(run[side]["failed"] for run in runs) for side in SIDES},
        "attempted": {side: [run[side]["attempted"] for run in runs] for side in SIDES},
        "metrics": metrics,
        "runs": runs,
    }
    label = args.label or f"{args.workload}-seed{args.seed}"
    path = os.path.join(args.out, f"BENCH_{label}.json")
    with open(path, "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=1)
    for name, m in metrics.items():
        print(
            f"{name}: parent median {m['parent']['median']:.6g} "
            f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}], change median "
            f"{m['change']['median']:.6g} [{m['change']['q1']:.6g}, {m['change']['q3']:.6g}]; "
            f"change wins {m['change_wins']}/{args.pairs}, ties {m['ties']}; "
            f"change/parent median {m['ratio']['median']:.4f} "
            f"[{m['ratio']['low']:.4f}, {m['ratio']['high']:.4f}] "
            f"at {m['ratio']['coverage']:.1%}"
        )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
