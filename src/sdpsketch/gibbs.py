"""Succinct Gibbs-weighted solution candidate and its trace estimates.

The candidate density operator is (V U) diag(w) (V U)^dagger / sum_k w_k
for the sketched basis V and compressed eigensystem (U, D), with weights
w_k = exp(-beta (D_k - min D)): the max-subtracted form of exp(-beta D),
whose common scale cancels in the ratio, so no weight overflows.  The
candidate is thus V and one r_tilde x r_tilde core K = U diag(w)
U^dagger / sum_k w_k, and its norm reads V only through the basis's
Gram matrix V^dagger V (`BasisSketch.gram`).  A round whose sketch keeps
no direction has no basis, and its candidate is the maximally mixed
state I/n (`GibbsDescription.uniform`), whose constraint traces
Tr[A I/n] = Tr(A)/n are read off the store, not estimated.
"""
from __future__ import annotations

import numpy as np

from . import linalg
from .errors import ShapeError
from .sketch import BasisSketch
from .spectral import SpectralSurrogate
from .trace import EstimatorConfig, QueryableOperator, estimate_trace_product

# Relative headroom on the declared Frobenius bound over the computed norm.
_BOUND_SLACK = 1e-9


class GibbsDescription:
    """Queryable description of the Gibbs-weighted candidate.

    The candidate is its basis V and one r_tilde x r_tilde core K, the
    normalized Gibbs weights in the basis's coordinates: entry (i, j) is
    V(i, :) K V(j, :)^dagger.  It keeps no row of its own.  Basis rows
    are read in place from the basis's table (`BasisSketch.fill`), which
    holds |support| + 1 rows whatever n, the last being the zero row that
    every row off the support reads, and the norm from the basis's Gram
    matrix (`BasisSketch.gram`).  An entry query builds at most its two
    basis rows, at O(distinct rows x distinct stores) each on their first
    touch, and one row of V K; `operator` forms V K for the whole table
    in one batch.  Rows go through `linalg.rowwise_matmul`, whose bits do
    not depend on which other rows share the batch, so an entry queried
    on a fresh candidate equals the same entry after any bulk read.
    """

    def __init__(
        self,
        n: int,
        beta: float,
        basis: BasisSketch | None,
        surrogate: SpectralSurrogate | None,
    ):
        if not 0.0 <= beta < np.inf:
            raise ValueError(f"beta must be nonnegative and finite, got {beta}")
        self.n = n
        self.beta = float(beta)
        self.basis = basis
        self.surrogate = surrogate
        self.uniform_fallback = basis is None
        if self.uniform_fallback:
            self.r_tilde = 0
            self._core = None
        else:
            d = surrogate.d
            self.r_tilde = int(d.shape[0])
            weights = np.exp(-self.beta * (d - float(d.min())))
            core = (surrogate.u * weights[np.newaxis, :]) @ surrogate.u.conj().T
            core /= float(weights.sum())
            self._core = 0.5 * (core + core.conj().T)

    @classmethod
    def uniform(cls, n: int) -> "GibbsDescription":
        """Maximally mixed fallback I/n."""
        return cls(n=n, beta=0.0, basis=None, surrogate=None)

    # -- queries ------------------------------------------------------

    def query(self, i: int, j: int) -> complex:
        """Candidate entry (i, j); conjugate-symmetric by construction."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"index ({i}, {j}) outside [0, {self.n})")
        if self.uniform_fallback:
            return complex(1.0 / self.n) if i == j else 0j
        if i > j:
            return self.query(j, i).conjugate()
        table = self.basis.table
        a, b = self.basis.fill(np.array([i, j]))
        vk = linalg.rowwise_matmul(table[a : a + 1], self._core)[0]
        return complex(np.sum(vk * np.conj(table[b])))

    def frobenius_norm(self) -> float:
        """Exact Frobenius norm of the candidate, sqrt(Re Tr(K G K^dagger G)).

        G is the basis's Gram matrix (`BasisSketch.gram`), built once per
        basis from the support rows, so the norm costs O(r_tilde^3) after
        it, independent of n.
        """
        if self.uniform_fallback:
            return 1.0 / float(np.sqrt(self.n))
        gram = self.basis.gram()
        sq = float(np.real(np.trace(self._core @ gram @ self._core.conj().T @ gram)))
        return float(np.sqrt(max(sq, 0.0)))

    def operator(self) -> QueryableOperator:
        """Entry oracle for the trace estimator, over the basis.

        The norm fills the basis's whole table, so V K is formed for every
        table row in one batch and each entry reads its rows by position
        (`BasisSketch.support_index`).  The maximally mixed candidate has
        no basis and raises `ShapeError`: its traces are Tr(A)/n in closed
        form (`estimate_constraint_trace`).
        """
        if self.uniform_fallback:
            raise ShapeError("the maximally mixed candidate has no basis to query")
        fro_bound = self.frobenius_norm() * (1.0 + _BOUND_SLACK)
        table = self.basis.table
        vk = linalg.rowwise_matmul(table, self._core)

        def bulk_gibbs(rows, cols):
            at_rows = self.basis.support_index(rows)
            at_cols = self.basis.support_index(cols)
            return np.einsum("bl,bl->b", vk[at_rows], np.conj(table[at_cols]))

        return QueryableOperator(n=self.n, bulk_entries=bulk_gibbs, fro_bound=fro_bound)


def make_gibbs(v: BasisSketch, s: SpectralSurrogate, beta: float) -> GibbsDescription:
    """Assemble the candidate from a basis and its compressed eigensystem."""
    if s.r_tilde != v.r_tilde:
        raise ShapeError(
            f"eigensystem size {s.r_tilde} does not match basis size {v.r_tilde}"
        )
    return GibbsDescription(n=v.ms.n, beta=beta, basis=v, surrogate=s)


def estimate_constraint_trace(
    g: GibbsDescription,
    a,
    eps: float,
    delta: float,
    rng: np.random.Generator,
) -> float:
    """Estimate Tr[A rho] for the candidate rho to additive eps.

    For the maximally mixed candidate the trace is exact, Tr(A)/n from
    the store's `trace`, with no draw and nothing read from `rng`.
    Otherwise the trace estimator's budget targets eps / 5 (a store no
    larger than its sampling plan is summed exactly, with no error); the
    remainder of the error allowance covers the gap between the candidate
    and the ideal Gibbs state it approximates.  Both operands are
    Hermitian, so the estimate is real.
    """
    cfg = EstimatorConfig(eps=eps / 5.0, delta=delta)
    if g.uniform_fallback:
        if a.n != g.n:
            raise ShapeError(f"operand dimensions differ: {a.n} vs {g.n}")
        return a.trace() / g.n
    zeta = estimate_trace_product(a, g.operator(), cfg, rng)
    return float(zeta.real)
