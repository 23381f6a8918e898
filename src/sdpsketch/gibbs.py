"""Succinct Gibbs-weighted solution candidate and its trace estimates.

The candidate density operator is (V U) diag(w) (V U)^dagger / sum_k w_k
for the sketched basis V and compressed eigensystem (U, D), with weights
w_k = exp(-beta (D_k - min D)): the max-subtracted form of exp(-beta D),
whose common scale cancels in the ratio, so no weight overflows.  A round
whose sketch keeps no direction has no basis, and its candidate is the
maximally mixed state I/n (`GibbsDescription.uniform`), whose constraint
traces Tr[A I/n] = Tr(A)/n are read off the store, not estimated.
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

    Immutable in meaning; internal caches only memoize rows and the norm.
    Basis rows V are read in place from the basis's table
    (`BasisSketch.fill`), which holds |support| + 1 rows whatever n, the
    last being the zero row that every row off the support reads.  The
    candidate keeps only what it derives: the normalized core, the rows
    of V times the core, allocated with the candidate by table position
    and filled on first touch under their own mask, and the norm.  Entry
    queries cost O(distinct rows x distinct stores) on the first touch of
    a row in the basis support and O(r_tilde) after.  The rows missing
    from a request are built in one batch (`BasisSketch.rows_dense`, then
    `linalg.rowwise_matmul` by the core).  A row's bits do not depend on
    which other rows shared its batch, so an entry queried on a fresh
    candidate equals the same entry after any bulk fill.
    """

    def __init__(
        self,
        n: int,
        beta: float,
        basis: BasisSketch | None,
        surrogate: SpectralSurrogate | None,
    ):
        if beta < 0:
            raise ValueError(f"beta must be nonnegative, got {beta}")
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
            rows = basis.table.shape[0]
            self._vm_rows = np.zeros_like(basis.table)
            self._vm_filled = np.arange(rows) == rows - 1
        self._fro = None

    @classmethod
    def uniform(cls, n: int) -> "GibbsDescription":
        """Maximally mixed fallback I/n."""
        return cls(n=n, beta=0.0, basis=None, surrogate=None)

    # -- row caches ---------------------------------------------------

    def _ensure_rows(self, indices: np.ndarray) -> np.ndarray:
        """Table positions of the given rows, building any row not yet built."""
        pos = self.basis.fill(indices)
        fresh = pos[~self._vm_filled[pos]]
        if fresh.size:
            missing = np.unique(fresh)
            self._vm_rows[missing] = linalg.rowwise_matmul(
                self.basis.table[missing], self._core
            )
            self._vm_filled[missing] = True
        return pos

    def _entry_gibbs(self, i: int, j: int) -> complex:
        a, b = self._ensure_rows(np.array([i, j]))
        return complex(np.sum(self._vm_rows[a] * np.conj(self.basis.table[b])))

    # -- queries ------------------------------------------------------

    def query(self, i: int, j: int) -> complex:
        """Candidate entry (i, j); conjugate-symmetric by construction."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"index ({i}, {j}) outside [0, {self.n})")
        if self.uniform_fallback:
            return complex(1.0 / self.n) if i == j else 0j
        if i > j:
            return self._entry_gibbs(j, i).conjugate()
        return self._entry_gibbs(i, j)

    def frobenius_norm(self) -> float:
        """Exact Frobenius norm of the candidate.

        Reads the Gram matrix of the basis rows in the basis support only,
        so it costs O(|support| x distinct rows x distinct stores),
        independent of n.
        """
        if self.uniform_fallback:
            return 1.0 / float(np.sqrt(self.n))
        if self._fro is None:
            self._ensure_rows(self.basis.support())
            rows = self.basis.table[:-1]
            gram = rows.conj().T @ rows
            sq = float(
                np.real(np.trace(self._core @ gram @ self._core.conj().T @ gram))
            )
            self._fro = float(np.sqrt(max(sq, 0.0)))
        return self._fro

    def operator(self) -> QueryableOperator:
        """Entry oracle for the trace estimator, over the basis.

        The maximally mixed candidate has none and raises `ShapeError`:
        its traces are Tr(A)/n in closed form (`estimate_constraint_trace`).
        """
        if self.uniform_fallback:
            raise ShapeError("the maximally mixed candidate has no basis to query")

        def bulk_gibbs(rows, cols):
            pos = self._ensure_rows(np.concatenate([rows, cols]))
            at_rows, at_cols = pos[: rows.shape[0]], pos[rows.shape[0] :]
            return np.einsum(
                "bl,bl->b", self._vm_rows[at_rows], np.conj(self.basis.table[at_cols])
            )

        return QueryableOperator(
            n=self.n,
            bulk_entries=bulk_gibbs,
            fro_bound=self.frobenius_norm() * (1.0 + _BOUND_SLACK),
        )


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
