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
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .errors import ConfigError, SdpSketchError

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
        "--beta-scale", type=float, default=0.25, help="Gibbs exponent scale (times eps)"
    )
    parser.add_argument(
        "--delta", type=float, default=1.0 / 6.0, help="total failure probability budget"
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

    p_feas = sub.add_parser("feastest", help="run the sampled solver on a manifest")
    p_feas.add_argument("manifest")
    _add_common(p_feas)
    p_feas.set_defaults(func=_run_feastest)

    p_shadow = sub.add_parser("shadow", help="run a shadow manifest with per-effect estimates")
    p_shadow.add_argument("manifest")
    _add_common(p_shadow)
    p_shadow.set_defaults(func=_run_shadow)

    p_oracle = sub.add_parser("oracle", help="run the dense reference loop on a manifest")
    p_oracle.add_argument("manifest")
    _add_common(p_oracle)
    p_oracle.set_defaults(func=_run_oracle)

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


def _emit(args, report) -> None:
    from . import report as rep

    text = rep.render(report)
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _finish(args, command, n, m, eps, config, outcome, seconds, witness_from=None, **fields):
    """Emit the report of a solving subcommand and return its exit code.

    `outcome` gives the verdict, iterations and violations; the witness
    comes from `witness_from`, a feasible outcome, when there is one.
    `seconds` holds the load and solve times; `fields` are the
    subcommand's own report fields.
    """
    from . import report as rep
    from .store import file_sha256

    report = rep.RunReport(
        command=command,
        dimension=n,
        seed=config.seed,
        epsilon=eps,
        constraints=m,
        rounds=config.round_budget(n, eps),
        beta_scale=config.beta_scale,
        delta_total=config.delta_total,
        preset="scaled" if args.p is None else "explicit",
        sketch_p=args.p,
        sketch_gamma=args.gamma,
        manifest_sha=file_sha256(args.manifest),
        verdict=outcome.verdict,
        iterations=outcome.iterations_used,
        violations=list(outcome.violation_log),
        **fields,
    )
    if witness_from is not None:
        report.witness = rep.dump_witness(
            witness_from.witness, [j for _, j, _ in witness_from.violation_log]
        )
    if args.timings:
        report.timings = list(zip(("load", "solve"), seconds))
    _emit(args, report)
    return 0 if outcome.feasible or witness_from is not None else 1


def _override_eps(problem, eps_flag):
    from .solver import FeasibilityProblem

    if eps_flag is None:
        return problem
    return FeasibilityProblem(
        constraints=problem.constraints, bounds=problem.bounds, eps=eps_flag
    )


def _run_feastest(args) -> int:
    from . import manifest as man
    from . import solver

    parsed = man.load_manifest(args.manifest)
    if parsed.kind == "optimize":
        return _run_optimize(args)
    config = _config(args)
    timer = time.perf_counter()
    problem = _override_eps(man.load_feasibility(args.manifest), args.epsilon)
    load_seconds = time.perf_counter() - timer
    timer = time.perf_counter()
    outcome = solver.test_feasibility(problem, config)
    solve_seconds = time.perf_counter() - timer
    return _finish(
        args, "feastest", problem.n, problem.m, problem.eps, config, outcome,
        (load_seconds, solve_seconds),
        witness_from=outcome if outcome.feasible else None,
    )


def _run_shadow(args) -> int:
    from . import manifest as man
    from . import rng as rngmod
    from . import solver
    from .gibbs import estimate_constraint_trace

    config = _config(args)
    timer = time.perf_counter()
    effects, values, eps = man.load_shadow(args.manifest)
    if args.epsilon is not None:
        eps = args.epsilon
    problem = solver.shadow_to_feasibility(effects, values, eps)
    load_seconds = time.perf_counter() - timer
    timer = time.perf_counter()
    outcome = solver.test_feasibility(problem, config)
    estimates = []
    if outcome.feasible:
        eps_est, _ = config.resolved(eps)
        delta = config.delta_total / max(1, len(effects))
        for k, effect in enumerate(effects):
            estimates.append(
                estimate_constraint_trace(
                    outcome.witness,
                    effect,
                    eps_est,
                    delta,
                    rngmod.substream(config.seed, rngmod.TRACE, 0, k),
                )
            )
    solve_seconds = time.perf_counter() - timer
    return _finish(
        args, "shadow", problem.n, problem.m, eps, config, outcome,
        (load_seconds, solve_seconds),
        witness_from=outcome if outcome.feasible else None,
        estimates=estimates,
    )


def _run_optimize(args) -> int:
    from . import manifest as man
    from . import solver

    config = _config(args)
    timer = time.perf_counter()
    problem, eps = man.load_optimization(args.manifest)
    if args.epsilon is not None:
        eps = args.epsilon
    load_seconds = time.perf_counter() - timer
    captured: dict = {}

    def tracking(fp, cfg):
        out = solver.test_feasibility(fp, cfg)
        if out.feasible:
            captured["outcome"] = out
        return out

    timer = time.perf_counter()
    value, final = solver.optimize(problem, eps, config, feasibility=tracking)
    solve_seconds = time.perf_counter() - timer
    return _finish(
        args, "optimize", problem.n, len(problem.constraints) + 1, eps, config, final,
        (load_seconds, solve_seconds),
        witness_from=captured.get("outcome"),
        value=value,
        calls=math.ceil(math.log2(1.0 / eps)),
    )


def _run_oracle(args) -> int:
    from . import manifest as man
    from . import oracle

    config = _config(args)
    timer = time.perf_counter()
    problem = _override_eps(man.load_feasibility(args.manifest), args.epsilon)
    load_seconds = time.perf_counter() - timer
    timer = time.perf_counter()
    outcome = oracle.dense_mmw(
        problem, t_override=config.t_override, beta_scale=config.beta_scale
    )
    solve_seconds = time.perf_counter() - timer
    return _finish(
        args, "oracle", problem.n, problem.m, problem.eps, config, outcome,
        (load_seconds, solve_seconds),
    )


def _run_entry(args) -> int:
    from . import manifest as man
    from . import report as rep
    from .store import NegatedView, file_sha256

    loaded = rep.load_report(args.report)
    if loaded.witness is None:
        print("error: report carries no witness", file=sys.stderr)
        return 2
    if loaded.witness.kind == "uniform":
        candidate = rep.rebuild_witness(loaded.witness, [], loaded.dimension)
    else:
        if args.manifest is None:
            print(
                "error: non-uniform witnesses need --manifest for matrix access",
                file=sys.stderr,
            )
            return 2
        if loaded.manifest_sha is not None:
            actual = file_sha256(args.manifest)
            if actual != loaded.manifest_sha:
                print(
                    f"error: manifest hash {actual} does not match the report's "
                    f"{loaded.manifest_sha}",
                    file=sys.stderr,
                )
                return 2
        parsed = man.load_manifest(args.manifest)
        if parsed.kind == "optimize":
            problem, _ = man.load_optimization(args.manifest)
            constraints = list(problem.constraints) + [NegatedView(problem.cost)]
        else:
            constraints = man.load_feasibility(args.manifest).constraints
        candidate = rep.rebuild_witness(loaded.witness, constraints, loaded.dimension)
    if not (1 <= args.row <= loaded.dimension and 1 <= args.col <= loaded.dimension):
        print(
            f"error: indices must lie in [1, {loaded.dimension}]", file=sys.stderr
        )
        return 2
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
