"""Dense reference implementations for cross-checking the sampled path.

Everything here materializes full matrices and uses exact linear
algebra, with hard size caps so a typo in a test can't silently ask for
a 10^6-dimensional eigendecomposition.  These functions share no
arithmetic with the sampled implementations beyond numpy itself, which
is what makes them useful as an independent check.  A constraint is
read whole, through its `entries`, whether it is a store or a view.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError, SizeError
from .gibbs import GibbsDescription
from .linalg import eigh, svd
from .sketch import BasisSketch, MatrixSum
from .solver import FeasibilityOutcome, FeasibilityProblem, SolverConfig, default_round_budget

MAX_DENSE_N = 512
MAX_MMW_N = 256
MAX_MMW_M = 16


def dense_store(store) -> np.ndarray:
    """Materialize a constraint (a store or a negated view) from its `entries`."""
    if store.n > MAX_DENSE_N:
        raise SizeError(f"refusing dense realization at n = {store.n} > {MAX_DENSE_N}")
    out = np.zeros((store.n, store.n), dtype=np.complex128)
    rows, cols, vals = store.entries()
    out[rows, cols] = vals
    return out


def dense_realize(ms: MatrixSum) -> np.ndarray:
    """Materialize a constraint sum as a full array."""
    if ms.n > MAX_DENSE_N:
        raise SizeError(f"refusing dense realization at n = {ms.n} > {MAX_DENSE_N}")
    out = np.zeros((ms.n, ms.n), dtype=np.complex128)
    for summand in ms.summands:
        out += dense_store(summand)
    return out


def dense_gibbs(a: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta a) / Tr exp(-beta a) by full eigendecomposition."""
    if a.shape[0] > MAX_DENSE_N:
        raise SizeError(f"refusing dense Gibbs at n = {a.shape[0]} > {MAX_DENSE_N}")
    vecs, vals = eigh(a)
    weights = np.exp(-beta * (vals - vals.min()))
    rho = (vecs * weights) @ vecs.conj().T
    return rho / weights.sum()


def dense_sketch_rows(ms: MatrixSum, rows: np.ndarray, row_probs: np.ndarray) -> np.ndarray:
    """The p x n rescaled row submatrix the sketch decomposes."""
    a = dense_realize(ms)
    scale = 1.0 / np.sqrt(len(rows) * row_probs)
    return a[rows, :] * scale[:, None]


def dense_basis(v: BasisSketch) -> np.ndarray:
    """Materialize the approximate eigenbasis as an n x r_tilde array."""
    return dense_realize(v.ms)[v.rows].conj().T @ v._folded / v.singular_values


def dense_solution(g: GibbsDescription) -> np.ndarray:
    """Materialize a candidate solution as a full density matrix."""
    if g.n > MAX_DENSE_N:
        raise SizeError(f"refusing dense solution at n = {g.n} > {MAX_DENSE_N}")
    if g.uniform_fallback:
        return np.eye(g.n, dtype=np.complex128) / g.n
    vd = dense_basis(g.basis)
    d = g.surrogate.d
    u = g.surrogate.u
    weights = np.exp(-g.beta * (d - d.min()))
    core = (u * weights) @ u.conj().T / weights.sum()
    return vd @ core @ vd.conj().T


def dense_vav(v: BasisSketch, ms: MatrixSum) -> np.ndarray:
    """Exact compressed constraint matrix for the materialized basis."""
    vd = dense_basis(v)
    a = dense_realize(ms)
    return vd.conj().T @ a @ vd


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    _, s, _ = svd(a)
    return float(s.sum())


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)) of two states.

    Eigenvalues are clipped at zero before the square root so states
    that are PSD only up to rounding are accepted.
    """
    vecs, vals = eigh(rho)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    _, s, _ = svd(root @ sigma @ root)
    return float(np.sqrt(np.clip(s, 0.0, None)).sum())


def dense_mmw(
    problem: FeasibilityProblem,
    t_override: int | None = None,
    beta_scale: float = SolverConfig.beta_scale,
) -> FeasibilityOutcome:
    """Exact-arithmetic run of the same violation/update loop.

    Traces are computed exactly against dense matrices, so the only
    differences from the sampled solver are the missing estimation noise
    and the full-rank Gibbs state.  Violation uses the same slack shape
    (bound + eps/2) so margins match the sampled loop's acceptance
    region.
    """
    n = problem.n
    m = problem.m
    if n > MAX_MMW_N:
        raise SizeError(f"dense reference loop capped at n = {MAX_MMW_N}, got {n}")
    if m > MAX_MMW_M:
        raise SizeError(f"dense reference loop capped at m = {MAX_MMW_M}, got {m}")
    eps = problem.eps
    rounds = t_override if t_override is not None else default_round_budget(n, eps)
    mats = [dense_store(c) for c in problem.constraints]
    rho = np.eye(n, dtype=np.complex128) / n
    exponent = np.zeros((n, n), dtype=np.complex128)
    violations: list[tuple[int, int, float]] = []
    for t in range(1, rounds + 1):
        hit = None
        for j in range(m):
            zeta = float(np.trace(mats[j] @ rho).real)
            if zeta > problem.bounds[j] + eps / 2.0:
                hit = (j, zeta)
                break
        if hit is None:
            return FeasibilityOutcome(
                verdict="feasible",
                witness=None,
                iterations_used=t,
                violation_log=violations,
                dense_witness=rho,
            )
        j, zeta = hit
        violations.append((t, j, zeta))
        exponent += mats[j]
        rho = dense_gibbs(exponent, beta_scale * eps)
    return FeasibilityOutcome(
        verdict="infeasible",
        witness=None,
        iterations_used=rounds,
        violation_log=violations,
    )


def constraint_traces(problem: FeasibilityProblem, rho: np.ndarray) -> np.ndarray:
    """Exact Tr[A_j rho] for every constraint, as reals."""
    if rho.shape != (problem.n, problem.n):
        raise ShapeError(f"state shape {rho.shape} does not match n = {problem.n}")
    return np.array(
        [float(np.trace(dense_store(c) @ rho).real) for c in problem.constraints]
    )
