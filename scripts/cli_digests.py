#!/usr/bin/env python3
"""Print one sha256 per written file, CLI report and `entry` output.

Writes a fixed set of manifests with each writer (the instance of
README's Python API section, a planted infeasible instance, a rank-2
shadow instance, an optimize instance, a feasibility and a shadow
instance that the maximally mixed state already satisfies, and a
signed pair whose run reuses its first sketch for a later round's
witness), runs
every pairing of a solving command (`feastest`, `shadow`, `oracle`) and
a manifest kind with fixed flags, and reprints a few entries of every
witness with `entry`.  The uniform runs end feasible at round 1, so
their reports hold the uniform witness and its exact Tr(A)/n
estimates; the last two runs are refused with exit 2.  A run's digest
covers its report and its printed output, in which the temporary
directory reads as `$TMP`, so the refusal messages, which name their
manifest's path, hash alike from run to run.  Every line is `<name>
<sha256>` or `<name> exit <code> <sha256>`, in a fixed order, so two
checkouts compare by diffing this script's output, or one copy of the
script runs on both:

    PYTHONPATH=src python3 scripts/cli_digests.py > digests.txt
    PYTHONPATH=../parent/src python3 scripts/cli_digests.py > parent.txt
"""
from __future__ import annotations

import hashlib
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from sdpsketch.cli import main
from sdpsketch.instances import (
    planted_around_state,
    planted_feasible_at_uniform,
    planted_infeasible,
    planted_signed_pair,
    projector_store,
    random_low_rank,
    random_unit_vector,
    shadow_instance,
)
from sdpsketch.manifest import (
    write_feasibility_manifest,
    write_optimize_manifest,
    write_shadow_manifest,
)
from sdpsketch.oracle import dense_store
from sdpsketch.report import load_report
from sdpsketch.rng import substream

FAST = ["--p", "200", "--gamma", "1e-8", "--max-iters", "8", "--seed", "3"]
# (report name, command, manifest, flags); the expected exit codes
# are not asserted, only printed.
RUNS = [
    ("readme-scaled", "feastest", "readme", ["--seed", "3"]),
    ("readme-fast", "feastest", "readme", FAST),
    ("readme-eps", "feastest", "readme", [*FAST, "--epsilon", "0.3"]),
    ("infeasible", "feastest", "infeasible", FAST),
    ("shadow", "shadow", "shadow", FAST),
    ("shadow-eps", "shadow", "shadow", [*FAST, "--epsilon", "0.3"]),
    ("oracle", "oracle", "readme", ["--seed", "3", "--max-iters", "8"]),
    ("oracle-shadow", "oracle", "shadow", ["--seed", "3", "--max-iters", "8"]),
    ("optimize", "feastest", "opt", FAST),
    ("uniform", "feastest", "uniform", FAST),
    ("shadow-uniform", "shadow", "shadow-uniform", FAST),
    ("feastest-shadow", "feastest", "shadow", FAST),
    ("oracle-infeasible", "oracle", "infeasible", ["--seed", "3", "--max-iters", "8"]),
    ("oracle-optimize", "oracle", "opt", ["--seed", "3", "--max-iters", "8"]),
    ("shadow-feasibility", "shadow", "readme", FAST),
    ("pair-reuse", "feastest", "pair",
     ["--p", "200", "--gamma", "1e-6", "--max-iters", "40", "--seed", "3"]),
]
ENTRIES = [(1, 1), (2, 3), (5, 4), (8, 8)]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_fixtures(root: str) -> dict[str, str]:
    """Each manifest in its own directory; returns name -> manifest path."""
    paths = {}
    for name in ("readme", "infeasible", "shadow", "opt", "uniform", "shadow-uniform", "pair"):
        os.mkdir(os.path.join(root, name))
        paths[name] = os.path.join(root, name, f"{name}.man")
    problem, _ = planted_around_state(n=32, m=4, rank=2, eps=0.2, rng=substream(3, 5))
    write_feasibility_manifest(paths["readme"], problem.constraints, problem.bounds, problem.eps)
    hard = planted_infeasible(12, eps=0.3, rng=substream(153, 1))
    write_feasibility_manifest(paths["infeasible"], hard.constraints, hard.bounds, 0.3)
    effects, values, _ = shadow_instance(12, 2, 0.25, substream(154, 1), rank=2)
    write_shadow_manifest(paths["shadow"], effects, values, 0.25)
    write_optimize_manifest(
        paths["opt"],
        projector_store(random_unit_vector(8, substream(155, 1))),
        [random_low_rank(8, 1, substream(155, 2))],
        [2.0],
        eps=0.5,
        rp=2.0,
    )
    easy = planted_feasible_at_uniform(12, 3, 2, eps=0.25, rng=substream(156, 1))
    write_feasibility_manifest(paths["uniform"], easy.constraints, easy.bounds, 0.25)
    # Each value is the effect's expectation in I/n, Tr(E)/n.
    effects = [projector_store(random_unit_vector(12, substream(157, k))) for k in range(3)]
    values = [float(np.trace(dense_store(e)).real) / e.n for e in effects]
    write_shadow_manifest(paths["shadow-uniform"], effects, values, 0.25)
    pair = planted_signed_pair(16, 0.3, substream(3, 1))
    write_feasibility_manifest(paths["pair"], pair.constraints, pair.bounds, 0.3)
    return paths


def run(argv: list[str]) -> tuple[int, bytes]:
    """In-process CLI run: exit code and stdout and stderr bytes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, (out.getvalue() + err.getvalue()).encode()


def main_digests() -> None:
    with tempfile.TemporaryDirectory() as root:
        paths = write_fixtures(root)
        for name in sorted(paths):
            directory = os.path.dirname(paths[name])
            for file in sorted(os.listdir(directory)):
                with open(os.path.join(directory, file), "rb") as fh:
                    print(f"file {name}/{file} {digest(fh.read())}")
        for name, command, manifest, flags in RUNS:
            out = os.path.join(root, f"{name}.rep")
            code, text = run([command, paths[manifest], *flags, "--out", out])
            text = text.replace(root.encode(), b"$TMP")
            if not os.path.exists(out):
                print(f"report {name} exit {code} {digest(text)}")
                continue
            with open(out, "rb") as fh:
                print(f"report {name} exit {code} {digest(fh.read() + text)}")
            if load_report(out).witness is None:
                continue
            for row, col in ENTRIES:
                code, text = run(["entry", out, str(row), str(col), "--manifest", paths[manifest]])
                print(f"entry {name} {row} {col} exit {code} {digest(text)}")


if __name__ == "__main__":
    main_digests()
