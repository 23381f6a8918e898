"""Succinct Gibbs-weighted solution candidate and its trace estimates.

The candidate density operator is (V U) diag(w) (V U)^dagger / sum_k w_k
for the sketched basis V and compressed eigensystem (U, D), with weights
w_k = exp(-beta (D_k - min D)): the max-subtracted form of exp(-beta D),
whose common scale cancels in the ratio, so no weight overflows.  The
candidate is thus V, U and its normalized weights; the r_tilde x
r_tilde core K = U diag(w) U^dagger / sum_k w_k is formed only when an
entry is read.  Its norm reads V only through the basis's Gram matrix
G = V^dagger V (`BasisSketch.gram`), as w^T |U^dagger G U|^2 w, and a
constraint check against a store no larger than its sampling plan
reads V only through the basis's exact compression M = V^dagger A V
(`BasisSketch.compression`), as Tr[A rho] = w . Re diag(U^dagger M U).
Both rotated reads are kept on the basis, one per eigensystem and
store, so a candidate on a kept eigensystem costs O(r_tilde^2) for its
norm and O(r_tilde) per such check, whichever candidate asks.  Against
a larger store the candidate is its own B operand in the sampled trace
estimator (`trace`).  A round whose sketch keeps no
direction has no basis, and its candidate is the maximally mixed state
I/n (`GibbsDescription.uniform`), whose constraint traces Tr[A I/n] =
Tr(A)/n are read off the store, not estimated.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from . import linalg
from .errors import ShapeError
from .sketch import BasisSketch
from .spectral import SpectralSurrogate
from .trace import BOUND_SLACK, EstimatorConfig, estimate_trace_product, sums_exactly


class GibbsDescription:
    """Queryable description of the Gibbs-weighted candidate.

    The candidate is its basis V, its eigensystem (U, D) and the
    normalized Gibbs weights ``weights`` on U.  Entry (i, j) is
    V(i, :) K V(j, :)^dagger for the r_tilde x r_tilde core K, formed
    on the first entry read (`_core`).  Basis rows are read in place
    from the basis's table (`BasisSketch.fill`), |support| + 1 rows
    whatever n, the last the zero row every row off the support reads;
    the norm comes from the basis's Gram matrix in U's coordinates
    (`BasisSketch.rotated_gram`).  An entry
    query builds at most its two basis rows and one row of V K; the
    first bulk read fills the table and forms V K for all of it, once
    per candidate.  Rows go through `linalg.rowwise_matmul` and every
    entry ends in one reduction (`_entries`), neither batch-dependent,
    so `query(i, j)` for i <= j has the bits of the same bulk entry; a
    diagonal entry is real.
    """

    # One matrix, not a stack: the trace estimator's ``stack`` read.
    stack = ()

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
        self._vk = None
        if self.uniform_fallback:
            self.r_tilde = 0
            self.weights = None
        else:
            d = surrogate.d
            self.r_tilde = int(d.shape[0])
            self._raw = np.exp(-self.beta * (d - float(d.min())))
            self.weights = self._raw / float(self._raw.sum())

    @cached_property
    def _core(self):
        """K = U diag(w) U^dagger, made Hermitian; formed on the first entry read."""
        if self.uniform_fallback:
            return None
        u = self.surrogate.u
        core = (u * self._raw[np.newaxis, :]) @ u.conj().T
        core /= float(self._raw.sum())
        return 0.5 * (core + core.conj().T)

    @classmethod
    def uniform(cls, n: int) -> "GibbsDescription":
        """Maximally mixed fallback I/n."""
        return cls(n=n, beta=0.0, basis=None, surrogate=None)

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
        vk = linalg.rowwise_matmul(table[a : a + 1], self._core)
        return complex(_entries(vk, table[b : b + 1], np.array([i == j]))[0])

    def frobenius_norm(self) -> float:
        """Exact Frobenius norm of the candidate, sqrt(w^T |U^dagger G U|^2 w).

        That is sqrt(Re Tr(K G K^dagger G)) for K = U diag(w) U^dagger and
        the basis's Gram matrix G, read in the eigensystem's coordinates
        (`BasisSketch.rotated_gram`, formed once per eigensystem), so the
        norm costs O(r_tilde^2), independent of n, and forms no K.
        """
        if self.uniform_fallback:
            return 1.0 / float(np.sqrt(self.n))
        sq = float(self.weights @ self.basis.rotated_gram(self.surrogate.u) @ self.weights)
        return float(np.sqrt(max(sq, 0.0)))

    @cached_property
    def fro_bound(self) -> float:
        """`frobenius_norm()` padded by `trace.BOUND_SLACK`, so it dominates the norm."""
        return self.frobenius_norm() * (1.0 + BOUND_SLACK)

    def bulk_entries(self, rows, cols) -> np.ndarray:
        """Entries at paired index arrays, read by table position.

        The first call fills the table and forms V K over it, for good.
        The maximally mixed candidate has no basis and raises `ShapeError`.
        """
        if self.uniform_fallback:
            raise ShapeError("the maximally mixed candidate has no basis to query")
        table = self.basis.table
        if self._vk is None:
            self.basis.fill(self.basis.support())
            self._vk = linalg.rowwise_matmul(table, self._core)
        at = self.basis.support_index
        return _entries(self._vk[at(rows)], table[at(cols)], np.equal(rows, cols))


def _entries(vk_rows: np.ndarray, table_rows: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Sum over l of vk_rows[b, l] conj(table_rows[b, l]), one value per b,
    real where ``diagonal`` (row equals column): the candidate is Hermitian."""
    out = np.einsum("bl,bl->b", vk_rows, np.conj(table_rows))
    out.imag[diagonal] = 0.0
    return out


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
    the store's `trace`, with no draw and nothing read from `rng`.  A
    store no larger than its sampling plan at a budget of eps / 5
    (`trace.sums_exactly`) is exact too: Tr[A V K V^dagger] is
    Re Tr[K V^dagger A V] = w . Re diag(U^dagger V^dagger A V U), a dot
    product of the weights with the basis's compression of A read in
    the eigensystem's coordinates (`BasisSketch.rotated_compression`),
    formed once per eigensystem and store and read by every candidate
    on it, with no draw, no K and no V K.  Otherwise the candidate is
    the trace estimator's B operand at that budget; the rest of the
    error allowance covers the gap between the candidate and the ideal
    Gibbs state it approximates.
    Both operands are Hermitian, so the estimate is real.
    """
    cfg = EstimatorConfig(eps=eps / 5.0, delta=delta)
    if a.n != g.n:
        raise ShapeError(f"operand dimensions differ: {a.n} vs {g.n}")
    if g.uniform_fallback:
        return a.trace() / g.n
    if sums_exactly(a, g.fro_bound, cfg):
        # Re Tr[K M] for K = U diag(w) U^dagger is w . Re diag(U^dagger M U).
        return float(g.weights @ g.basis.rotated_compression(g.surrogate.u, a))
    return float(estimate_trace_product(a, g, cfg, rng).real)
