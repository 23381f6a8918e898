"""Approximate singular basis of a sum of sampled matrices.

Rows are drawn from the summand-weighted row distribution, columns from
the row-conditional entry distribution, and the singular directions of
the resulting rescaled p-by-p core are computed; those whose squared
value falls below a fixed fraction of the core's summand mass are
discarded.  Repeated sampled rows are identical core rows and repeated
columns identical core columns, so the core is assembled and decomposed
on the distinct sampled rows and columns only, weighted by the square
root of each multiplicity; no p-by-p array exists.  The surviving basis
is kept succinctly: sampled row indices, their probabilities, the
singular values, and the small left vectors.  Basis rows are rebuilt
from the stores on demand and never materialized here, at O(distinct
rows x distinct stores) each.  A row can be nonzero only on the union of
the sampled rows' stored supports (`support`), so callers that need
every nonzero row fill that many, not n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError, EmptySketch, InternalError, ShapeError, ZeroMassError
from .store import NegatedView, SumTree


class MatrixSum:
    """Implicit sum of Hermitian sampling stores sharing one dimension.

    Carries the declared per-summand rank bound; per-summand spectral
    norms are assumed at most 1 by the caller and not verified here.
    `terms` groups the summands by underlying store, `NegatedView`
    unwrapped: one ``(store, count, coef)`` per distinct store, in order
    of first appearance, where ``count`` is how often the store occurs
    and ``coef`` the sum of its signs.  Squared magnitudes scale by
    ``count`` and values by ``coef``.
    """

    def __init__(self, summands, rank: int):
        if not summands:
            raise ShapeError("a matrix sum needs at least one summand")
        if rank < 1:
            raise ValueError(f"declared rank must be positive, got {rank}")
        n = summands[0].n
        for k, s in enumerate(summands):
            if s.n != n:
                raise ShapeError(
                    f"summand {k} has dimension {s.n}, expected {n}"
                )
        self.summands = list(summands)
        self.rank = rank
        self.n = n
        self._mass_tree = SumTree([s.frobenius_norm() ** 2 for s in self.summands])
        grouped = {}
        for s in self.summands:
            sign = 1
            while isinstance(s, NegatedView):
                s, sign = s.base, -sign
            store, count, coef = grouped.get(id(s), (s, 0, 0))
            grouped[id(s)] = (store, count + 1, coef + sign)
        self.terms = list(grouped.values())

    @property
    def tau(self) -> int:
        return len(self.summands)

    def total_mass(self) -> float:
        """Sum of squared Frobenius norms over summands."""
        return self._mass_tree.total

    def row_mass(self, i: int) -> float:
        """Sum of squared row norms over summands."""
        return sum(count * store.row_mass(i) for store, count, _ in self.terms)

    def row_probability(self, i: int) -> float:
        """Mixture row probability: row_mass(i) / total_mass()."""
        total = self.total_mass()
        if total <= 0.0:
            raise ZeroMassError("matrix sum has zero Frobenius mass")
        return self.row_mass(i) / total

    def sample_summand(self, rng: np.random.Generator) -> int:
        total = self._mass_tree.total
        if total <= 0.0:
            raise ZeroMassError("matrix sum has zero Frobenius mass")
        return self._mass_tree.descend(rng.random() * total)

    def query(self, i: int, j: int) -> complex:
        return sum((s.query(i, j) for s in self.summands), 0j)


@dataclass(frozen=True)
class SketchParams:
    """Sample count p and singular filter fraction gamma."""

    p: int
    gamma: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be positive, got {self.p}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")

    @classmethod
    def scaled(cls, tau: int, rank: int, eps: float) -> "SketchParams":
        """Desk-scale preset with the same shape in tau, rank, eps."""
        p = math.ceil(50 * tau**2 * rank**2 / eps**2)
        gamma = eps**2 / (30 * tau**2 * rank**2)
        return cls(p=p, gamma=gamma)


def sample_rows(
    ms: MatrixSum, p: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw p row indices i.i.d. from the mixture row distribution.

    Each draw picks a summand proportional to its squared Frobenius norm,
    then a row of that summand proportional to its squared row norm.
    Returns the indices and their exact mixture probabilities.
    """
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    total = ms.total_mass()
    if total <= 0.0:
        raise ZeroMassError("matrix sum has zero Frobenius mass")
    rows = np.zeros(p, dtype=np.int64)
    for t in range(p):
        k = ms.sample_summand(rng)
        rows[t] = ms.summands[k].sample_row(rng)
    distinct, inverse = np.unique(rows, return_inverse=True)
    probs = np.array([ms.row_mass(int(i)) for i in distinct]) / total
    return rows, probs[inverse]


def sample_cols(
    ms: MatrixSum, rows: np.ndarray, p: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw p column indices from the row-conditional mixture.

    Each draw picks one of the given rows uniformly, a summand
    proportional to its squared norm on that row, then an entry of that
    summand's row proportional to its squared magnitude.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape[0] != p:
        raise ShapeError(f"need exactly p={p} sampled rows, got {rows.shape[0]}")
    cols = np.zeros(p, dtype=np.int64)
    # Per-summand weights and their total, once per distinct row.
    row_weights = {}
    for s in range(p):
        i = int(rows[rng.integers(p)])
        if i not in row_weights:
            weights = [su.row_mass(i) for su in ms.summands]
            row_weights[i] = (weights, sum(weights))
        weights, row_total = row_weights[i]
        if row_total <= 0.0:
            raise ZeroMassError(f"row {i} has zero mass across summands")
        u = rng.random() * row_total
        k = 0
        while k < len(weights) - 1 and u >= weights[k]:
            u -= weights[k]
            k += 1
        cols[s] = ms.summands[k].sample_entry_in_row(i, rng)
    return cols


class BasisSketch:
    """Succinct description of approximate singular columns.

    A column k is V(:, k) = S^dagger u_k / sigma_k for the implicit
    rescaled row sketch S; rows are reconstructed from the stores on
    demand at O(distinct rows x distinct stores) cost each.  The
    n-by-r_tilde matrix itself is never stored, and rows off `support()`
    are exactly zero.
    """

    def __init__(self, ms, rows, row_probs, singular_values, left_vectors):
        self.ms = ms
        self.rows = np.asarray(rows, dtype=np.int64)
        self.row_probs = np.asarray(row_probs, dtype=np.float64)
        self.singular_values = np.asarray(singular_values, dtype=np.float64)
        self.left_vectors = np.asarray(left_vectors, dtype=np.complex128)
        self.p = int(self.rows.shape[0])
        self.r_tilde = int(self.singular_values.shape[0])
        if self.row_probs.shape[0] != self.p:
            raise ShapeError("row probabilities must match sampled rows")
        if self.left_vectors.shape != (self.p, self.r_tilde):
            raise ShapeError(
                f"left vectors have shape {self.left_vectors.shape}, "
                f"expected {(self.p, self.r_tilde)}"
            )
        if np.any(self.row_probs <= 0.0):
            raise InternalError("sampled row probabilities must be positive")
        # Sampled rows with the same index share every row query, so their
        # left vectors, rescaled by 1 / sqrt(p P_i), are summed once here.
        self._distinct_rows, inverse = np.unique(self.rows, return_inverse=True)
        scale = 1.0 / np.sqrt(self.p * self.row_probs)
        self._folded = np.zeros(
            (self._distinct_rows.shape[0], self.r_tilde), dtype=np.complex128
        )
        np.add.at(self._folded, inverse, self.left_vectors * scale[:, np.newaxis])
        self._support = None

    @property
    def n(self) -> int:
        return self.ms.n

    def support(self) -> np.ndarray:
        """Sorted indices of the basis rows that can be nonzero.

        Row V(i, :) combines conj(A(i_s, i)) over sampled rows i_s and
        summands A, so it vanishes unless i is stored in some sampled row
        of some summand.  Each distinct sampled row of each distinct
        store (`MatrixSum.terms`) is read once.  Memoized.
        """
        if self._support is None:
            parts = [np.zeros(0, dtype=np.int64)]
            for store, _, _ in self.ms.terms:
                parts.extend(store.row_support(int(i))[0] for i in self._distinct_rows)
            self._support = np.unique(np.concatenate(parts))
        return self._support

    def row(self, i: int) -> np.ndarray:
        """All r_tilde basis entries V(i, :) in one pass over the samples."""
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} outside [0, {self.n})")
        # conj(A(i_s, i)) over distinct sampled rows, via Hermitian mirror rows.
        acc = np.zeros(self._distinct_rows.shape[0], dtype=np.complex128)
        for store, _, coef in self.ms.terms:
            acc += coef * store.row_gather(i, self._distinct_rows)
        return (acc @ self._folded) / self.singular_values

    def rows_dense(self, indices) -> np.ndarray:
        """Stack of basis rows for the given indices (len(indices), r_tilde)."""
        out = np.zeros((len(indices), self.r_tilde), dtype=np.complex128)
        for pos, i in enumerate(indices):
            out[pos] = self.row(int(i))
        return out


def build_sketch(
    ms: MatrixSum, params: SketchParams, rng: np.random.Generator
) -> BasisSketch:
    """Sample, rescale, decompose, and filter; return the surviving basis.

    Only entries of each distinct store at distinct sampled (row, column)
    positions are read.  With multiplicities m_r and m_c, the p-by-p core
    K equals P_r C P_c^T for the distinct core C and 0/1 selectors P_r,
    P_c, so K has the singular values of W = C * sqrt(m_r m_c^T) and left
    vectors U[inverse] / sqrt(m_r), and rank at most min(distinct rows,
    distinct cols).  Raises EmptySketch when the filter removes every
    direction, and ConfigError when p exceeds the dense size cap.
    """
    p = params.p
    if p > linalg.MAX_DENSE_DIM:
        raise ConfigError(
            f"sketch size p={p} exceeds the dense size cap {linalg.MAX_DENSE_DIM}"
        )
    rows, row_probs = sample_rows(ms, p, rng)
    cols = sample_cols(ms, rows, p, rng)

    urows, first, rinv, m_r = np.unique(
        rows, return_index=True, return_inverse=True, return_counts=True
    )
    ucols, m_c = np.unique(cols, return_counts=True)
    # Signed values and count-weighted squared magnitudes per distinct store.
    sq = np.zeros((urows.shape[0], ucols.shape[0]), dtype=np.float64)
    vals = np.zeros(sq.shape, dtype=np.complex128)
    for store, count, coef in ms.terms:
        g = np.array([store.row_gather(int(i), ucols) for i in urows])
        vals += coef * g
        sq += count * np.abs(g) ** 2
    row_mass = np.array([ms.row_mass(int(i)) for i in urows], dtype=np.float64)
    cond = sq / row_mass[:, np.newaxis]
    col_probs = (m_r[:, np.newaxis] * cond).sum(axis=0) / p
    if np.any(col_probs <= 0.0):
        raise InternalError("sampled column probabilities must be positive")

    denom = p * np.sqrt(np.outer(row_probs[first], col_probs))
    mult = np.outer(m_r, m_c)
    core_mass = float((mult * sq / denom**2).sum())

    u, sigma, _ = linalg.svd(vals / denom * np.sqrt(mult))
    r_hat = min(p, ms.tau * ms.rank)
    sigma = sigma[:r_hat]
    keep = sigma**2 >= params.gamma * core_mass
    if not bool(keep.any()):
        raise EmptySketch(
            f"all {sigma.shape[0]} leading directions fell below gamma={params.gamma}"
        )
    left = u[:, : sigma.shape[0]][:, keep] / np.sqrt(m_r)[:, np.newaxis]
    return BasisSketch(ms, rows, row_probs, sigma[keep], left[rinv])
