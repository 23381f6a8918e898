"""Feasibility testing by multiplicative-weights updates over sampled data.

Each round estimates every constraint trace against the current candidate
and stops at the first violation beyond the declared margin; the violated
constraints accumulate into an exponent whose Gibbs weighting, rebuilt
from scratch through the sketch pipeline, becomes the next candidate.
Surviving all constraints ends the run feasible; exhausting the round
budget certifies infeasibility at the configured precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import rng as rngmod
from .errors import ConfigError, EmptySketch, ShapeError
from .gibbs import GibbsDescription, estimate_constraint_trace, make_gibbs
from .sketch import MatrixSum, SketchParams, build_sketch
from .spectral import decompose, estimate_vav
from .store import NegatedView


def default_round_budget(n: int, eps: float) -> int:
    """Round count ceil(16 ln n / eps^2) from the regret analysis, at least one.

    At n = 1 the formula gives 0, yet a run needs a round to check its
    one candidate.
    """
    return max(1, math.ceil(16.0 * math.log(n) / eps**2))


@dataclass
class FeasibilityProblem:
    """Constraints Tr[A_i X] <= b_i over unit-trace PSD X, at slack eps.

    Each constraint is a sampling store (or negated view) with spectral
    norm at most 1 and declared rank at most the store's rank hint.
    """

    constraints: list
    bounds: list[float]
    eps: float

    def __post_init__(self):
        if not self.constraints:
            raise ShapeError("a problem needs at least one constraint")
        if len(self.bounds) != len(self.constraints):
            raise ShapeError(
                f"{len(self.constraints)} constraints but {len(self.bounds)} bounds"
            )
        n = self.constraints[0].n
        for k, c in enumerate(self.constraints):
            if c.n != n:
                raise ShapeError(f"constraint {k} has dimension {c.n}, expected {n}")
        if not 0 < self.eps < 1:
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")

    @property
    def n(self) -> int:
        return self.constraints[0].n

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def rank(self) -> int:
        return max(c.rank_hint for c in self.constraints)


@dataclass
class OptimizationProblem:
    """Maximize Tr[C X] under the same constraint family."""

    cost: object
    constraints: list
    bounds: list[float]

    @property
    def n(self) -> int:
        return self.cost.n

    def feasibility_constraints(self) -> list:
        """The constraints, then -C: what `optimize` tests and a witness's exponent indexes."""
        return list(self.constraints) + [NegatedView(self.cost)]


# Per-entry precision of the compressed-matrix estimate, scaled by
# r_tilde tau into its Frobenius budget.  The worst-case total-error
# schedule, eps / (400 r^2 r_tilde tau), is far too expensive at desk scale.
VAV_ENTRY_PRECISION = 0.05


@dataclass
class SolverConfig:
    """Knobs for one feasibility run.

    eps_est and margin default to eps/4 and eps/2 and must satisfy
    eps_est + margin < eps, so a round that passes every check leaves
    true traces strictly inside the eps slack.  sketch=None takes
    SketchParams.scaled for each round's summand count.  The CLI flags,
    the report fields and the dense loop read their delta_total and
    beta_scale defaults from this class.
    """

    seed: int = 0
    t_override: Optional[int] = None
    sketch: Optional[SketchParams] = None
    delta_total: float = 1.0 / 6.0
    eps_est: Optional[float] = None
    margin: Optional[float] = None
    beta_scale: float = 0.25

    def resolved(self, eps: float) -> tuple[float, float]:
        eps_est = eps / 4.0 if self.eps_est is None else self.eps_est
        margin = eps / 2.0 if self.margin is None else self.margin
        if not (eps_est > 0 and margin > 0):
            raise ConfigError("eps_est and margin must be positive")
        if not eps_est + margin < eps:
            raise ConfigError(
                f"eps_est + margin = {eps_est + margin} must stay below eps = {eps}"
            )
        if not 0 < self.delta_total < 1:
            raise ConfigError(f"delta_total must lie in (0, 1), got {self.delta_total}")
        if not 0 < self.beta_scale < math.inf:
            raise ConfigError(
                f"beta_scale must be positive and finite, got {self.beta_scale}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.t_override is not None and self.t_override < 1:
            raise ConfigError(f"t_override must be positive, got {self.t_override}")
        return eps_est, margin

    def round_budget(self, n: int, eps: float) -> int:
        """t_override when set, else the regret-analysis budget."""
        if self.t_override is not None:
            return self.t_override
        return default_round_budget(n, eps)

    def sketch_params(self, tau: int, rank: int, eps: float) -> SketchParams:
        if self.sketch is not None:
            return self.sketch
        return SketchParams.scaled(tau, rank, eps)


@dataclass
class FeasibilityOutcome:
    """Verdict plus the evidence behind it.

    violation_log holds (round, constraint index, estimate) triples with
    rounds counted from 1 and constraints 0-based.  witness is the
    candidate that passed every check (feasible verdicts only);
    dense_witness is set by the dense reference solver instead.
    """

    verdict: str
    witness: Optional[GibbsDescription]
    iterations_used: int
    violation_log: list = field(default_factory=list)
    dense_witness: Optional[object] = None

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


def _rebuild_candidate(
    problem: FeasibilityProblem,
    config: SolverConfig,
    chosen: list[int],
    round_index: int,
) -> GibbsDescription:
    """Sketch the accumulated exponent and wrap it in Gibbs weights."""
    ms = MatrixSum([problem.constraints[j] for j in chosen], rank=problem.rank)
    params = config.sketch_params(ms.tau, problem.rank, problem.eps)
    try:
        basis = build_sketch(
            ms, params, rngmod.substream(config.seed, rngmod.SKETCH, round_index)
        )
    except EmptySketch:
        return GibbsDescription.uniform(problem.n)
    eps_s = VAV_ENTRY_PRECISION * basis.r_tilde * ms.tau
    core = estimate_vav(
        basis,
        ms,
        eps_s,
        config.delta_total,
        rngmod.LazyStream(config.seed, rngmod.CORE, round_index),
    )
    surrogate = decompose(core, basis=basis)
    return make_gibbs(basis, surrogate, config.beta_scale * problem.eps)


def test_feasibility(problem: FeasibilityProblem, config: SolverConfig) -> FeasibilityOutcome:
    """Run the violation/update loop to a verdict.

    Constraints are scanned in index order and the first estimate beyond
    bound + margin triggers the update; a full clean scan returns the
    current candidate as witness.  A violation in the last round ends
    the run infeasible, so no candidate is built after it.  All
    randomness derives from config.seed through keyed substreams, so
    outcomes are reproducible regardless of scheduling; the trace and
    compression streams are built only if a sampled trace reads them.
    """
    eps_est, margin = config.resolved(problem.eps)
    rounds = config.round_budget(problem.n, problem.eps)
    delta_call = config.delta_total / (rounds * problem.m)
    candidate = GibbsDescription.uniform(problem.n)
    violations: list[tuple[int, int, float]] = []
    chosen: list[int] = []
    for t in range(1, rounds + 1):
        hit = None
        for j in range(problem.m):
            zeta = estimate_constraint_trace(
                candidate,
                problem.constraints[j],
                eps_est,
                delta_call,
                rngmod.LazyStream(config.seed, rngmod.TRACE, t, j),
            )
            if zeta > problem.bounds[j] + margin:
                hit = (j, zeta)
                break
        if hit is None:
            return FeasibilityOutcome(
                verdict="feasible",
                witness=candidate,
                iterations_used=t,
                violation_log=violations,
            )
        j, zeta = hit
        violations.append((t, j, zeta))
        chosen.append(j)
        if t < rounds:
            candidate = _rebuild_candidate(problem, config, chosen, t)
    return FeasibilityOutcome(
        verdict="infeasible",
        witness=None,
        iterations_used=rounds,
        violation_log=violations,
    )


def optimize(
    problem: OptimizationProblem,
    eps_outer: float,
    config: SolverConfig,
    feasibility: Callable[[FeasibilityProblem, SolverConfig], FeasibilityOutcome] = test_feasibility,
) -> tuple[float, FeasibilityOutcome]:
    """Binary search on the objective through feasibility calls.

    Candidate values live in [-1, 1]; each call adds Tr[-C X] <= -c to
    the constraint set and moves c by a halving step, for
    ceil(log2(1 / eps_outer)) calls.  Returns the final candidate value
    and the outcome of the final call.
    """
    if not 0 < eps_outer < 1:
        raise ConfigError(f"eps_outer must lie in (0, 1), got {eps_outer}")
    calls = math.ceil(math.log2(1.0 / eps_outer))
    c = 0.0
    step = 0.5
    outcome = None
    constraints = problem.feasibility_constraints()
    for _ in range(calls):
        fp = FeasibilityProblem(
            constraints=constraints,
            bounds=list(problem.bounds) + [-c],
            eps=eps_outer,
        )
        outcome = feasibility(fp, config)
        if outcome.feasible:
            c += step
        else:
            c -= step
        step /= 2.0
    return c, outcome


def shadow_to_feasibility(effects: list, values: list[float], eps: float) -> FeasibilityProblem:
    """Measurement-probability estimation as a two-sided feasibility set.

    Each effect E with target value v contributes Tr[E X] <= v and
    Tr[-E X] <= -v, so any feasible X reproduces every value within eps.
    Negated constraints are sign-flipping views; sampling distributions
    are untouched.
    """
    if len(effects) != len(values):
        raise ShapeError(f"{len(effects)} effects but {len(values)} values")
    for k, v in enumerate(values):
        if not -1.0 <= v <= 1.0:
            raise ValueError(f"target value {k} outside [-1, 1]: {v}")
    constraints = list(effects) + [NegatedView(e) for e in effects]
    bounds = [float(v) for v in values] + [-float(v) for v in values]
    return FeasibilityProblem(constraints=constraints, bounds=bounds, eps=eps)
