"""Random and planted problem instances for tests and experiments.

Generators return sampling stores (dense-built, so they stay at desk
scale) with spectral norm at most 1 and honest rank hints.  Planted
instances are constructed so the right verdict is knowable by
inspection: feasible ones have an explicit witness reachable by the
update rule, infeasible ones violate a constraint for every state.
Exact traces at the uniform state are the store's `trace` over n, and at
a planted state are summed over the store's `entries`.
"""
from __future__ import annotations

import numpy as np

from .linalg import qr
from .sketch import MatrixSum
from .solver import FeasibilityProblem
from .store import SampledMatrix


def random_low_rank(
    n: int,
    rank: int,
    rng: np.random.Generator,
    norm: float = 1.0,
    traceless: bool = False,
) -> SampledMatrix:
    """Random Hermitian matrix with the given rank and spectral norm.

    Built as Q diag(lam) Q* with Haar-ish Q from a QR factorization and
    eigenvalues spread over [-norm, norm] with the extreme value pinned
    at the requested norm.  traceless=True balances the eigenvalues into
    +/- pairs (rank must then be even) so the trace vanishes exactly.
    """
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}], got {rank}")
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    q, _ = qr(g)
    if traceless:
        if rank % 2:
            raise ValueError("traceless spectra need an even rank")
        half = norm * (0.5 + 0.5 * rng.random(rank // 2))
        half[0] = norm
        lam = np.concatenate([half, -half])
    else:
        lam = norm * (2.0 * rng.random(rank) - 1.0)
        lam[0] = norm if rng.random() < 0.5 else -norm
    dense = (q * lam) @ q.conj().T
    return SampledMatrix.from_dense(dense, rank_hint=rank)


def random_matrix_sum(
    n: int,
    tau: int,
    rank: int,
    rng: np.random.Generator,
    traceless: bool = False,
) -> MatrixSum:
    """Sum of tau independent random low-rank summands."""
    summands = [
        random_low_rank(n, rank, rng, traceless=traceless) for _ in range(tau)
    ]
    return MatrixSum(summands, rank=rank)


def random_unit_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def projector_store(v: np.ndarray, sign: float = 1.0) -> SampledMatrix:
    """Rank-one store sign * v v* for a unit vector v."""
    dense = sign * np.outer(v, v.conj())
    return SampledMatrix.from_dense(dense, rank_hint=1)


def planted_feasible_at_uniform(
    n: int, m: int, rank: int, eps: float, rng: np.random.Generator
) -> FeasibilityProblem:
    """Every constraint already satisfied by the maximally mixed state.

    Bounds sit a full eps above the uniform-state traces, so the first
    scan passes (estimates stay within eps/4 of truth with the default
    budget) and the run ends feasible in one round.
    """
    constraints = [random_low_rank(n, rank, rng) for _ in range(m)]
    bounds = [_uniform_trace(c) + eps for c in constraints]
    return FeasibilityProblem(constraints=constraints, bounds=bounds, eps=eps)


def planted_one_update(
    n: int, eps: float, rng: np.random.Generator, extras: int = 0
) -> tuple[FeasibilityProblem, np.ndarray]:
    """Feasible instance whose witness is one update away from uniform.

    The leading constraint Tr[-v v* X] <= -0.9 is violated by the
    uniform state (its trace is only -1/n) but satisfied by X = v v*
    with slack 0.1; the update rule drives the candidate onto exactly
    that state.  Optional extra constraints are satisfied by v v* with
    slack eps so they never interfere.  Returns the problem and the
    planted witness vector.
    """
    v = random_unit_vector(n, rng)
    constraints: list = [projector_store(v, sign=-1.0)]
    bounds = [-0.9]
    for _ in range(extras):
        c = random_low_rank(n, min(2, n), rng)
        constraints.append(c)
        bounds.append(max(_quadratic_form(c, v), _uniform_trace(c)) + eps)
    return (
        FeasibilityProblem(constraints=constraints, bounds=bounds, eps=eps),
        v,
    )


def planted_infeasible(
    n: int, eps: float, rng: np.random.Generator
) -> FeasibilityProblem:
    """No state can satisfy Tr[v v* X] <= -0.9, so every round violates."""
    v = random_unit_vector(n, rng)
    return FeasibilityProblem(
        constraints=[projector_store(v)], bounds=[-0.9], eps=eps
    )


def planted_signed_pair(n: int, eps: float, rng: np.random.Generator) -> FeasibilityProblem:
    """One indefinite constraint Tr[(u u* - w w*) X] <= -0.5, u and w orthonormal.

    The uniform state violates it (its trace is 0) and X = w w* meets it
    with trace -1.  Every exponent of the update loop repeats the one
    store, so each is a multiple of the first: the instance runs the
    solver's reuse of one sketch across rounds.
    """
    g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    q, _ = qr(g)
    dense = q[:, :1] @ q[:, :1].conj().T - q[:, 1:] @ q[:, 1:].conj().T
    return FeasibilityProblem(
        constraints=[SampledMatrix.from_dense(dense, rank_hint=2)], bounds=[-0.5], eps=eps
    )


def planted_around_state(
    n: int, m: int, rank: int, eps: float, rng: np.random.Generator
) -> tuple[FeasibilityProblem, np.ndarray]:
    """Bounds set to exact traces at a planted pure state.

    The leading constraint is -v v* with bound -1, so the uniform state
    violates it immediately and the update rule pulls the candidate onto
    the planted state; the remaining m - 1 constraints are random
    low-rank matrices whose bounds are their exact traces at v v*.
    Every bound is tight (no slack built in), so the instance exercises
    the eps working margin rather than a padded one.
    """
    v = random_unit_vector(n, rng)
    constraints: list = [projector_store(v, sign=-1.0)]
    bounds = [-1.0]
    for _ in range(m - 1):
        c = random_low_rank(n, rank, rng)
        constraints.append(c)
        bounds.append(_quadratic_form(c, v))
    return (
        FeasibilityProblem(constraints=constraints, bounds=bounds, eps=eps),
        v,
    )


def shadow_instance(
    n: int,
    extras: int,
    eps: float,
    rng: np.random.Generator,
    rank: int = 1,
) -> tuple[list[SampledMatrix], list[float], np.ndarray]:
    """Measurement effects with values realized by a planted state.

    The first effect is the planted state's support projector (value 1),
    which the uniform state misses badly, so the two-sided encoding
    forces an update toward the planted state; the extra effects are
    random projectors whose values are their exact expectations in that
    state.  rank=1 plants a pure state; rank=2 plants the maximally
    mixed state on a random two-dimensional subspace, which the
    update rule reaches because small Gibbs exponents weight the
    support directions equally.  Returns (effects, values, dense rho).
    """
    if rank not in (1, 2):
        raise ValueError(f"planted shadow states support rank 1 or 2, got {rank}")
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    basis, _ = np.linalg.qr(g)
    support = basis @ basis.conj().T
    rho = support / rank
    effects = [SampledMatrix.from_dense(support, rank_hint=rank)]
    values = [1.0]
    for _ in range(extras):
        q = random_unit_vector(n, rng)
        effects.append(projector_store(q))
        values.append(float((q.conj() @ (rho @ q)).real))
    return effects, values, rho


def _quadratic_form(store, v: np.ndarray) -> float:
    """Re v* A v, summed over the store's stored entries in O(nnz)."""
    rows, cols, vals = store.entries()
    return float((np.conj(v[rows]) * vals * v[cols]).sum().real)


def _uniform_trace(store) -> float:
    """Tr[A I/n] = Tr(A)/n, as the solver's round-1 check reads it."""
    return store.trace() / store.n
