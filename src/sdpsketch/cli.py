"""Command-line front end.

Subcommands:

    feastest  run the sampled solver on a feasibility, shadow, or
              optimize manifest and emit a report
    shadow    run a shadow manifest and add per-effect estimates
    oracle    run the dense reference loop on the same manifests
    entry     reprint one witness entry from a saved report

Exit codes are the only success channel: 0 feasible (or a value was
bracketed), 1 infeasible, 2 any error, including an unexpected
exception, which prints one "error: internal: ..." line.  Reports go to
stdout or --out and are byte-deterministic for a fixed seed; math
kernels are pinned to one thread at startup, so --threads is accepted
as a scheduling hint but never changes results.  Only stdlib imports
happen at module level so the pinning runs before numpy loads.

`feastest`, `shadow` and `oracle` share one path (`_run_solve`): each
checks its flags, then reads and parses its manifest once and runs off
that `Manifest`, so a report's `manifest-sha256` is the digest of the
bytes parsed and `--epsilon` replaces the manifest's slack.  `entry`
checks a gibbs report's digest against the bytes it reads before it
parses them, and refuses a gibbs report that carries no digest.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

from .errors import ConfigError, ManifestError, SdpSketchError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_kernels() -> None:
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")


def _add_common(parser: argparse.ArgumentParser) -> None:
    # The parser is built after `_pin_kernels`, so numpy may load here.
    from .solver import SolverConfig

    parser.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    parser.add_argument(
        "--epsilon", type=float, default=None, help="override the manifest's slack"
    )
    parser.add_argument(
        "--p",
        type=int,
        default=None,
        help="explicit sketch row count (default: scaled from eps, tau and rank)",
    )
    parser.add_argument(
        "--gamma", type=float, default=None, help="explicit singular-value floor"
    )
    parser.add_argument(
        "--beta-scale", type=float, default=SolverConfig.beta_scale,
        help="Gibbs exponent scale (times eps)",
    )
    parser.add_argument(
        "--delta", type=float, default=SolverConfig.delta_total,
        help="total failure probability budget",
    )
    parser.add_argument(
        "--max-iters", type=int, default=None, help="override the round budget"
    )
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="scheduling hint; accepted for compatibility, results never depend on it",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock lines (breaks byte-for-byte reproducibility)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdpsketch",
        description="Sampling-based SDP feasibility solver with a dense reference oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("feastest", "run the sampled solver on a manifest"),
        ("shadow", "run a shadow manifest with per-effect estimates"),
        ("oracle", "run the dense reference loop on a manifest"),
    ):
        p_solve = sub.add_parser(name, help=help_text)
        p_solve.add_argument("manifest")
        _add_common(p_solve)
        p_solve.set_defaults(func=_run_solve)

    p_entry = sub.add_parser("entry", help="reprint one witness entry from a report")
    p_entry.add_argument("report")
    p_entry.add_argument("row", type=int, help="1-based row index")
    p_entry.add_argument("col", type=int, help="1-based column index")
    p_entry.add_argument(
        "--manifest",
        default=None,
        help="original manifest (required for non-uniform witnesses)",
    )
    p_entry.set_defaults(func=_run_entry)
    return parser


def _config(args):
    from .sketch import SketchParams
    from .solver import SolverConfig

    if (args.p is None) != (args.gamma is None):
        raise ConfigError("--p and --gamma must be given together")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    if args.threads < 1:
        raise ConfigError(f"--threads must be positive, got {args.threads}")
    if not 0 < args.beta_scale < math.inf:
        raise ConfigError(
            f"--beta-scale must be positive and finite, got {args.beta_scale}"
        )
    if args.max_iters is not None and args.max_iters < 1:
        raise ConfigError(f"--max-iters must be positive, got {args.max_iters}")
    if not 0 < args.delta < 1:
        raise ConfigError(f"--delta must lie in (0, 1), got {args.delta}")
    if args.epsilon is not None and not 0 < args.epsilon < 1:
        raise ConfigError(f"--epsilon must lie in (0, 1), got {args.epsilon}")
    sketch = None
    if args.p is not None:
        if args.p < 1:
            raise ConfigError(f"--p must be positive, got {args.p}")
        if not 0 < args.gamma < math.inf:
            raise ConfigError(f"--gamma must be positive and finite, got {args.gamma}")
        sketch = SketchParams(p=args.p, gamma=args.gamma)
    return SolverConfig(
        seed=args.seed,
        t_override=args.max_iters,
        sketch=sketch,
        delta_total=args.delta,
        beta_scale=args.beta_scale,
    )


def _run_solve(args) -> int:
    """`feastest`, `shadow` and `oracle`: emit the run's report, return its exit code.

    The flags are checked first, then the manifest is parsed once and
    the problem that the command and the manifest's kind call for is
    built from it: `feastest` on an optimize manifest runs the binary
    search and reports as `optimize`, `shadow` takes only shadow
    manifests, and the manifest module refuses any other pairing.  The
    witness is the last feasible sampled outcome's; the dense loop
    reports none.  The preset and sketch lines come from
    ``config.sketch``, the sketch the run used, not from the flags.
    The printed delta bounds the whole run's failure probability:
    `optimize` splits it over its calls, and `shadow` gives half to the
    solve and shares the other half among its estimates.
    """
    from . import manifest as man
    from . import oracle
    from . import report as rep
    from . import rng as rngmod
    from . import solver
    from .gibbs import estimate_constraint_trace

    config = _config(args)
    if args.command == "oracle":
        config.sketch = None  # checked as for a sampled run, but the dense loop builds none
    timer = time.perf_counter()
    parsed = man.load_manifest(args.manifest)
    eps = parsed.effective_epsilon if args.epsilon is None else args.epsilon
    command = args.command
    if command == "feastest" and parsed.kind == "optimize":
        command = "optimize"
    if command == "optimize":
        problem = man.optimization_problem(parsed)
    elif command == "shadow":
        effects, values = man.shadow_effects(parsed)
        problem = solver.shadow_to_feasibility(effects, values, eps)
    else:
        problem = man.feasibility_problem(parsed, eps)
    m = len(problem.constraints) + 1 if command == "optimize" else problem.m
    seconds = [time.perf_counter() - timer]
    timer = time.perf_counter()
    fields: dict = {}
    if command == "oracle":
        outcome = oracle.dense_mmw(
            problem, t_override=config.t_override, beta_scale=config.beta_scale
        )
        found = None
    elif command == "optimize":
        calls = []

        def counted(fp, cfg):
            calls.append(solver.test_feasibility(fp, cfg))
            return calls[-1]

        fields["value"], outcome = solver.optimize(problem, eps, config, feasibility=counted)
        fields["calls"] = len(calls)
        found = next((out for out in reversed(calls) if out.feasible), None)
    else:
        share = 2 if command == "shadow" else 1
        outcome = solver.test_feasibility(
            problem, replace(config, delta_total=config.delta_total / share)
        )
        found = outcome if outcome.feasible else None
    if command == "shadow" and found is not None:
        eps_est, _ = config.resolved(eps)
        delta = config.delta_total / (2 * len(effects))
        fields["estimates"] = [
            estimate_constraint_trace(
                found.witness, effect, eps_est, delta,
                rngmod.LazyStream(config.seed, rngmod.TRACE, 0, k),
            )
            for k, effect in enumerate(effects)
        ]
    seconds.append(time.perf_counter() - timer)
    sketch = config.sketch
    report = rep.RunReport(
        command=command,
        dimension=problem.n,
        seed=config.seed,
        epsilon=eps,
        constraints=m,
        rounds=config.round_budget(problem.n, eps),
        beta_scale=config.beta_scale,
        delta_total=config.delta_total,
        preset="scaled" if sketch is None else "explicit",
        sketch_p=None if sketch is None else sketch.p,
        sketch_gamma=None if sketch is None else sketch.gamma,
        manifest_sha=parsed.sha256,
        verdict=outcome.verdict,
        iterations=outcome.iterations_used,
        violations=list(outcome.violation_log),
        **fields,
    )
    if found is not None:
        report.witness = rep.dump_witness(found.witness, found.exponent)
    if args.timings:
        report.timings = list(zip(("load", "solve"), seconds))
    text = rep.render(report)
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if outcome.feasible or found is not None else 1


def _run_entry(args) -> int:
    from . import manifest as man
    from . import report as rep

    loaded = rep.load_report(args.report)
    if loaded.witness is None:
        raise ManifestError("report carries no witness")
    constraints = []
    if loaded.witness.kind != "uniform":
        if args.manifest is None:
            raise ConfigError("non-uniform witnesses need --manifest for matrix access")
        if loaded.manifest_sha is None:
            raise ManifestError(
                "report has no manifest-sha256 line to check --manifest against"
            )
        # The digest is checked on the bytes read, before they are parsed.
        parsed = man.load_manifest(args.manifest, loaded.manifest_sha)
        if parsed.kind == "optimize":
            constraints = man.optimization_problem(parsed).feasibility_constraints()
        else:
            constraints = man.feasibility_problem(parsed, parsed.effective_epsilon).constraints
    candidate = rep.rebuild_witness(loaded.witness, constraints, loaded.dimension)
    if not (1 <= args.row <= loaded.dimension and 1 <= args.col <= loaded.dimension):
        raise ConfigError(f"indices must lie in [1, {loaded.dimension}]")
    z = candidate.query(args.row - 1, args.col - 1)
    print(f"{rep.fmt(z.real)} {rep.fmt(z.imag)}")
    return 0


def main(argv=None) -> int:
    _pin_kernels()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SdpSketchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 is reserved for a computed "infeasible" verdict.
        message = str(exc).replace("\n", " ")
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
