#!/usr/bin/env python3
"""Run the feasibility loop on a planted instance and audit the witness.

Generates a problem whose bounds are satisfiable by construction, runs
the sampling solver, then densifies the returned witness and checks
every constraint trace against its bound with the dense reference
implementation.  Optionally saves the full run report.

Example:
    python3 scripts/planted_demo.py --n 32 --m 4 --seed 3 --out run.report
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from sdpsketch.instances import planted_around_state
from sdpsketch.oracle import constraint_traces, dense_solution
from sdpsketch.report import RunReport, dump_witness, render
from sdpsketch.rng import substream
from sdpsketch.sketch import SketchParams
from sdpsketch.solver import SolverConfig
from sdpsketch.solver import test_feasibility as run_feasibility


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=32, help="matrix dimension")
    ap.add_argument("--m", type=int, default=4, help="number of constraints")
    ap.add_argument("--rank", type=int, default=2, help="constraint rank")
    ap.add_argument("--eps", type=float, default=0.2, help="feasibility tolerance")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--p", type=int, default=400, help="sketch size")
    ap.add_argument("--gamma", type=float, default=1e-6, help="singular-value filter")
    ap.add_argument("--rounds", type=int, default=8, help="round budget")
    ap.add_argument("--out", help="write the run report to this file")
    args = ap.parse_args()

    problem, _ = planted_around_state(
        args.n, args.m, args.rank, args.eps, substream(args.seed, 5)
    )
    cfg = SolverConfig(
        seed=args.seed,
        t_override=args.rounds,
        eps_est=0.45 * args.eps,
        sketch=SketchParams(p=args.p, gamma=args.gamma),
    )
    t0 = time.monotonic()
    outcome = run_feasibility(problem, cfg)
    elapsed = time.monotonic() - t0
    print(f"verdict={outcome.verdict} iterations={outcome.iterations_used} "
          f"elapsed={elapsed:.1f}s")
    for rnd, j, zeta in outcome.violation_log:
        print(f"  round {rnd}: constraint {j + 1} violated (estimate {zeta:+.4f})")

    if outcome.feasible:
        x = dense_solution(outcome.witness)
        traces = constraint_traces(problem, x)
        print(f"{'constraint':>10}  {'trace':>9}  {'bound':>9}  {'slack':>9}")
        for j, (t, b) in enumerate(zip(traces, problem.bounds)):
            print(f"{j + 1:>10}  {t:>9.4f}  {b:>9.4f}  {b + args.eps - t:>9.4f}")
        worst = float(np.max(traces - np.asarray(problem.bounds)))
        print(f"worst excess over bound: {worst:+.4f} (tolerance {args.eps})")

    if args.out:
        report = RunReport(
            command="feastest",
            dimension=problem.n,
            seed=args.seed,
            epsilon=problem.eps,
            rounds=args.rounds,
            verdict=outcome.verdict,
            iterations=outcome.iterations_used,
            constraints=problem.m,
            preset="explicit",
            sketch_p=args.p,
            sketch_gamma=args.gamma,
            violations=outcome.violation_log,
            witness=dump_witness(outcome.witness, outcome.exponent) if outcome.feasible else None,
        )
        with open(args.out, "w") as fh:
            fh.write(render(report))
        print(f"report written to {args.out}")


if __name__ == "__main__":
    main()
