"""Feasibility testing by multiplicative-weights updates over sampled data.

Each round estimates every constraint trace against the current candidate
and stops at the first violation beyond the declared margin; the violated
constraints accumulate into an exponent E whose Gibbs weighting
exp(-beta E) / Tr becomes the next candidate.  A candidate is sketched
through the pipeline (basis, compressed matrix, eigensystem) unless E is
a positive multiple c of the last sketched exponent, under the same
sketch parameters: the candidate is then the last one's at c beta, and
nothing is drawn.  Surviving all constraints ends the run feasible;
exhausting the round budget certifies infeasibility at the configured
precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import rng as rngmod
from .errors import ConfigError, EmptySketch, ShapeError
from .gibbs import GibbsDescription, estimate_constraint_trace, make_gibbs
from .sketch import BasisSketch, MatrixSum, SketchParams, build_sketch
from .spectral import SpectralSurrogate, check_spectrum, decompose, estimate_vav
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
    exponent lists the 0-based constraints, with repeats, of the exponent
    the witness's basis was sketched from: a prefix of the violated
    constraints, of which the whole list is a multiple c, and the
    witness's beta is c times the round's (empty for a witness without
    a basis).
    """

    verdict: str
    witness: Optional[GibbsDescription]
    iterations_used: int
    violation_log: list = field(default_factory=list)
    dense_witness: Optional[object] = None
    exponent: list = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


@dataclass(frozen=True)
class _Sketched:
    """One sketched candidate: its exponent, parameters, basis and eigensystem."""

    exponent: list[int]
    params: SketchParams
    basis: BasisSketch
    surrogate: SpectralSurrogate

    def multiple(self, ms: MatrixSum, params: SketchParams) -> Optional[float]:
        """c if ``ms`` is c times this sketch's sum and its draws serve it, else None.

        Tested exactly in integers: the same stores in the same order,
        each count and coef c = tau / tau_0 times this sketch's, and equal
        parameters.  The draws serve c when the filter keeps the same
        directions there (`BasisSketch.kept_scales`).
        """
        base = self.basis.ms
        if params != self.params or len(ms.terms) != len(base.terms):
            return None
        tau, tau0 = ms.tau, base.tau
        for (store, count, coef), (store0, count0, coef0) in zip(ms.terms, base.terms):
            if store is not store0 or count * tau0 != count0 * tau or coef * tau0 != coef0 * tau:
                return None
        c = tau / tau0
        lo, hi = self.basis.kept_scales
        return c if lo <= c < hi else None


def _rebuild_candidate(
    problem: FeasibilityProblem,
    config: SolverConfig,
    chosen: list[int],
    round_index: int,
    last: Optional[_Sketched],
) -> tuple[GibbsDescription, Optional[_Sketched]]:
    """The Gibbs candidate of the exponent ``chosen`` and the sketch it reads.

    When the exponent is a multiple c of the last sketch's
    (`_Sketched.multiple`), the candidate is that sketch's at c beta: a
    build on the same draws would keep the same basis and scale the
    compressed matrix by c, so nothing is drawn, estimated or
    decomposed, and only the spectrum's bound is checked at c.
    Otherwise the exponent is sketched on ``round_index``'s streams and
    compressed at failure probability delta_total / (2 T) for the round
    budget T; a sketch that keeps no direction gives the maximally mixed
    candidate and no sketch.
    """
    ms = MatrixSum([problem.constraints[j] for j in chosen], rank=problem.rank)
    params = config.sketch_params(ms.tau, problem.rank, problem.eps)
    beta = config.beta_scale * problem.eps
    c = None if last is None else last.multiple(ms, params)
    if c is not None:
        check_spectrum(c * last.surrogate.d, ms.tau)
        return make_gibbs(last.basis, last.surrogate, c * beta), last
    try:
        basis = build_sketch(
            ms, params, rngmod.substream(config.seed, rngmod.SKETCH, round_index)
        )
    except EmptySketch:
        return GibbsDescription.uniform(problem.n), None
    eps_s = VAV_ENTRY_PRECISION * basis.r_tilde * ms.tau
    delta = config.delta_total / (2 * config.round_budget(problem.n, problem.eps))
    stream = rngmod.LazyStream(config.seed, rngmod.CORE, round_index)
    core = estimate_vav(basis, ms, eps_s, delta, stream)
    surrogate = decompose(core, basis=basis)
    sketched = _Sketched(list(chosen), params, basis, surrogate)
    return make_gibbs(basis, surrogate, beta), sketched


def test_feasibility(problem: FeasibilityProblem, config: SolverConfig) -> FeasibilityOutcome:
    """Run the violation/update loop to a verdict.

    Constraints are scanned in index order and the first estimate beyond
    bound + margin triggers the update; a full clean scan returns the
    current candidate as witness.  A violation in the last round ends
    the run infeasible, so no candidate is built after it.  All
    randomness derives from config.seed through keyed substreams, so
    outcomes are reproducible regardless of scheduling; the trace and
    compression streams are built only if a sampled trace reads them,
    and a round whose candidate reuses the last sketch builds none.
    """
    eps_est, margin = config.resolved(problem.eps)
    rounds = config.round_budget(problem.n, problem.eps)
    # Half of delta_total for the rounds x m checks, half for the < rounds builds.
    delta_call = config.delta_total / (2 * rounds * problem.m)
    candidate = GibbsDescription.uniform(problem.n)
    sketched = None
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
                exponent=[] if sketched is None else sketched.exponent,
            )
        j, zeta = hit
        violations.append((t, j, zeta))
        chosen.append(j)
        if t < rounds:
            candidate, sketched = _rebuild_candidate(problem, config, chosen, t, sketched)
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
