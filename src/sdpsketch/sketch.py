"""Approximate singular basis of a sum of sampled matrices.

Rows are drawn from the summand-weighted row distribution, columns from
the row-conditional entry distribution, and the resulting rescaled p-by-p
core is decomposed; singular directions whose squared value falls below a
fixed fraction of the core's summand mass are discarded.  The surviving
basis is kept succinctly: sampled row indices, their probabilities, the
singular values, and the small left vectors.  Basis rows are rebuilt from
the stores on demand and never materialized here.  A row can be nonzero
only on the union of the sampled rows' stored supports (`support`), so
callers that need every nonzero row fill that many, not n.
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

    @property
    def tau(self) -> int:
        return len(self.summands)

    def total_mass(self) -> float:
        """Sum of squared Frobenius norms over summands."""
        return self._mass_tree.total

    def row_mass(self, i: int) -> float:
        """Sum of squared row norms over summands."""
        return sum(s.row_mass(i) for s in self.summands)

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
    probs = np.zeros(p, dtype=np.float64)
    for t in range(p):
        k = ms.sample_summand(rng)
        i = ms.summands[k].sample_row(rng)
        rows[t] = i
        probs[t] = ms.row_mass(i) / total
    return rows, probs


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
    for s in range(p):
        i = int(rows[rng.integers(p)])
        weights = [su.row_mass(i) for su in ms.summands]
        row_total = sum(weights)
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
    demand at O(p tau) cost each.  The n-by-r_tilde matrix itself is
    never stored, and rows off `support()` are exactly zero.
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
        # 1 / sqrt(p P_i) row rescaling, shared by every row query.
        self._scale = 1.0 / np.sqrt(self.p * self.row_probs)
        self._support = None

    @property
    def n(self) -> int:
        return self.ms.n

    def support(self) -> np.ndarray:
        """Sorted indices of the basis rows that can be nonzero.

        Row V(i, :) combines conj(A(i_s, i)) over sampled rows i_s and
        summands A, so it vanishes unless i is stored in some sampled row
        of some summand.  Each distinct sampled row of each distinct
        store is read once: repeated summands and sign-flipped views of
        one store share their supports.  Memoized.
        """
        if self._support is None:
            stores = {}
            for s in self.ms.summands:
                while isinstance(s, NegatedView):
                    s = s.base
                stores.setdefault(id(s), s)
            distinct = np.unique(self.rows)
            parts = [np.zeros(0, dtype=np.int64)]
            for store in stores.values():
                parts.extend(store.row_support(int(i))[0] for i in distinct)
            self._support = np.unique(np.concatenate(parts))
        return self._support

    def row(self, i: int) -> np.ndarray:
        """All r_tilde basis entries V(i, :) in one pass over the samples."""
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} outside [0, {self.n})")
        # conj(A(i_s, i)) over sampled rows s, via Hermitian mirror rows.
        acc = np.zeros(self.p, dtype=np.complex128)
        for s in self.ms.summands:
            acc += s.row_gather(i, self.rows)
        weights = acc * self._scale
        return (weights @ self.left_vectors) / self.singular_values

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

    Only entries of each summand at sampled (row, column) positions are
    read.  Raises EmptySketch when the filter removes every direction,
    and ConfigError, before any p-by-p array exists, when p exceeds the
    dense size cap.
    """
    p = params.p
    if p > linalg.MAX_DENSE_DIM:
        raise ConfigError(
            f"sketch size p={p} exceeds the dense size cap {linalg.MAX_DENSE_DIM}"
        )
    rows, row_probs = sample_rows(ms, p, rng)
    cols = sample_cols(ms, rows, p, rng)

    row_mass = np.array([ms.row_mass(int(i)) for i in rows], dtype=np.float64)
    # Squared magnitudes per summand at the sampled grid, and their sum.
    sq = np.zeros((p, p), dtype=np.float64)
    vals = np.zeros((p, p), dtype=np.complex128)
    for s in ms.summands:
        g = np.zeros((p, p), dtype=np.complex128)
        for t in range(p):
            g[t] = s.row_gather(int(rows[t]), cols)
        vals += g
        sq += np.abs(g) ** 2
    cond = sq / row_mass[:, np.newaxis]
    col_probs = cond.mean(axis=0)
    if np.any(col_probs <= 0.0):
        raise InternalError("sampled column probabilities must be positive")

    denom = p * np.sqrt(np.outer(row_probs, col_probs))
    core = vals / denom
    core_mass = float((sq / denom**2).sum())

    u, sigma, _ = linalg.svd(core)
    r_hat = min(p, ms.tau * ms.rank)
    sigma = sigma[:r_hat]
    u = u[:, :r_hat]
    keep = sigma**2 >= params.gamma * core_mass
    if not bool(keep.any()):
        raise EmptySketch(
            f"all {r_hat} leading directions fell below gamma={params.gamma}"
        )
    return BasisSketch(ms, rows, row_probs, sigma[keep], u[:, keep])
