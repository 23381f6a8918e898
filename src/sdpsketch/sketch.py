"""Approximate singular basis of a sum of sampled matrices.

Rows are drawn from the count-weighted row distribution over distinct
stores, columns from the row-conditional entry distribution, and the
singular directions of the resulting rescaled p-by-p core are computed;
those whose squared value falls below a fixed fraction of the core's
summand mass are discarded.  Repeated sampled rows are identical core rows and repeated
columns identical core columns, so the core is assembled and decomposed
on the distinct sampled rows and columns only, weighted by the square
root of each multiplicity; no p-by-p array exists.  The surviving basis
is kept succinctly, with nothing of length p: the distinct sampled rows
with their probabilities and multiplicities, the singular values, and
the left vectors on the distinct rows.  Basis rows are rebuilt
from the stores on demand, at O(distinct rows x distinct stores) each.
A row can be nonzero only on the union of the sampled rows' stored
supports (`support`), so the sketch's one row table (`fill`) holds that
many rows and one zero row, not n, and every reader of basis rows reads
it in place.  The round's one Gram matrix V^dagger V (`gram`) is summed
over that table once per sketch.

Every step is a few numpy calls per distinct store, never a Python loop
over draws or over basis rows: draws go through the stores' bulk
searches (`rows_at`, `cols_at`), the core and the basis rows through
block gathers (`block`, which finds every requested entry of a store in
one search of its sorted entry keys), and a batch of basis rows through
`linalg.rowwise_matmul`, so a row's bits do not depend on which other
rows share its batch.  The p-length draw arrays and the distinct core
are held to a byte budget (`MAX_SKETCH_BYTES`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError, EmptySketch, InternalError, ShapeError, ZeroMassError
from .store import NegatedView

# Byte budget of a sketch's two largest allocations: the p-length draw
# arrays, checked before the first draw, and the distinct core, checked
# before it is gathered.  Building and decomposing a core peaks at about
# seven times its bytes (552 x 552 distinct, under tracemalloc).
MAX_SKETCH_BYTES = 1 << 27
# Peak bytes per draw while rows and columns are drawn and counted: a
# fixed part plus a part per distinct store (`MatrixSum.terms`).  Under
# tracemalloc at p = 3 x 10^5 and 10^6 (n = 32) it was 129.2 with one
# store, 116.5 with two, 106.5 with three and 32 + 24 per store from
# four up (800 with 32), so one store sets the fixed part.
_DRAW_BYTES = 106
_DRAW_BYTES_PER_STORE = 24
_COMPLEX_BYTES = np.dtype(np.complex128).itemsize


class MatrixSum:
    """Implicit sum of Hermitian sampling stores sharing one dimension.

    Carries the declared per-summand rank bound; per-summand spectral
    norms are assumed at most 1 by the caller and not verified here.
    `terms` is the only form of the sum that sampling reads: the
    summands grouped by underlying store, `NegatedView` unwrapped, one
    ``(store, count, coef)`` per distinct store in order of first
    appearance, where ``count`` is how often the store occurs and
    ``coef`` the sum of its signs.  Squared magnitudes scale by
    ``count`` and values by ``coef``.  So the sketch only ever reads
    unwrapped stores, through the summand reads of `store`, and a view
    need answer only the constraint reads.  `summands` keeps the
    caller's list for the dense reference.  ``tau``, the summand count,
    is the sum of the counts.
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
        grouped = {}
        for s in self.summands:
            sign = 1
            while isinstance(s, NegatedView):
                s, sign = s.base, -sign
            store, count, coef = grouped.get(id(s), (s, 0, 0))
            grouped[id(s)] = (store, count + 1, coef + sign)
        self.terms = list(grouped.values())
        self._mass_prefix = np.cumsum(
            [count * store.frobenius_norm() ** 2 for store, count, _ in self.terms]
        )

    @property
    def tau(self) -> int:
        return sum(count for _, count, _ in self.terms)

    def total_mass(self) -> float:
        """Sum of squared Frobenius norms over summands."""
        return float(self._mass_prefix[-1])

    def row_masses(self, rows) -> np.ndarray:
        """Sum of squared row norms over summands, for each given row."""
        total = 0.0
        for store, count, _ in self.terms:
            total = total + count * store.row_masses(rows)
        return total


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

    Each draw picks a distinct store proportional to count times its
    squared Frobenius norm (`MatrixSum.terms`), the law of picking one of
    the repeated summands, then a row of that store proportional to its
    squared row norm.  Returns the indices and their exact mixture
    probabilities.
    """
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    total = ms.total_mass()
    if total <= 0.0:
        raise ZeroMassError("matrix sum has zero Frobenius mass")
    # Each draw takes two uniforms in turn: column 0 picks the store by
    # its weight, column 1 the row within it.
    u = rng.random((p, 2))
    which = np.searchsorted(ms._mass_prefix, u[:, 0] * total, side="right")
    if int(which.max()) >= len(ms.terms):
        raise InternalError("store draw landed past the last store")
    rows = _per_store(which, lambda k, at: ms.terms[k][0].rows_at(u[at, 1]))
    return rows, ms.row_masses(rows) / total


def sample_cols(
    ms: MatrixSum, rows: np.ndarray, p: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw p column indices from the row-conditional mixture.

    Each draw picks one of the given rows uniformly, a summand
    proportional to its squared norm on that row, then an entry of that
    summand's row proportional to its squared magnitude.  A store that
    occurs ``count`` times among the summands is picked with ``count``
    times its row mass (`MatrixSum.terms`), the same law; its entry is
    then drawn by one bulk `cols_at` over all draws that picked it.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape[0] != p:
        raise ShapeError(f"need exactly p={p} sampled rows, got {rows.shape[0]}")
    drawn = rows[rng.integers(p, size=p)]
    # Column 0 picks the store by its weight on the drawn row, column 1
    # the entry within that row.
    u = rng.random((p, 2))
    cum = np.cumsum(
        [count * store.row_masses(drawn) for store, count, _ in ms.terms], axis=0
    )
    total = cum[-1]
    if np.any(total <= 0.0):
        i = int(drawn[np.argmax(total <= 0.0)])
        raise ZeroMassError(f"row {i} has zero mass across summands")
    which = (cum <= u[:, 0] * total).sum(axis=0)
    if int(which.max()) >= len(ms.terms):
        raise InternalError("store draw landed past the last store")
    return _per_store(which, lambda k, at: ms.terms[k][0].cols_at(drawn[at], u[at, 1]))


def _per_store(which: np.ndarray, draw) -> np.ndarray:
    """``draw(k, at)`` for each store k that ``which`` picks, in draw order.

    ``at`` selects the draws that picked store k.  When one store takes
    every draw it is ``slice(None)``, so the draw arrays are read in
    place, not copied.
    """
    hit = np.flatnonzero(np.bincount(which))
    if hit.shape[0] == 1:
        return draw(int(hit[0]), slice(None))
    out = np.zeros(which.shape[0], dtype=np.int64)
    for k in hit.tolist():
        at = which == k
        out[at] = draw(k, at)
    return out


class BasisSketch:
    """Succinct description of approximate singular columns.

    A column k is V(:, k) = S^dagger u_k / sigma_k for the implicit
    rescaled row sketch S, held on the sorted distinct sampled rows with
    their probabilities, their multiplicities ``counts`` (p is their
    sum) and the distinct core's left vectors.  Rows are reconstructed
    from the stores on demand at O(distinct rows x distinct stores) cost
    each.  The n-by-r_tilde matrix itself is never stored, and rows off
    `support()` are exactly zero.  `table` has one row per support index
    and a last, zero row that every row off the support reads; row k is
    the basis row of ``support()[k]`` once `fill` has built it, and
    `gram` sums V^dagger V over it.  A sketch keeps at least one
    direction: with none it raises `EmptySketch`.  `kept_scales`, set by
    `build_sketch`, is the interval [lo, hi) of multiples c at which the
    filter, on the same draws of c times the sum, keeps exactly these
    directions; a sketch rebuilt from a report has none.
    """

    def __init__(
        self, ms, rows, row_probs, counts, singular_values, left_vectors, kept_scales=None
    ):
        self.ms = ms
        self.rows = np.asarray(rows, dtype=np.int64)
        self.row_probs = np.asarray(row_probs, dtype=np.float64)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.singular_values = np.asarray(singular_values, dtype=np.float64)
        self.left_vectors = np.asarray(left_vectors, dtype=np.complex128)
        self.kept_scales = kept_scales
        self.p = int(self.counts.sum())
        self.r_tilde = int(self.singular_values.shape[0])
        if self.r_tilde == 0:
            raise EmptySketch("a basis sketch needs at least one direction")
        shape = (self.rows.shape[0], self.r_tilde)
        if self.row_probs.shape != shape[:1] or self.counts.shape != shape[:1]:
            raise ShapeError("row probabilities and counts must match sampled rows")
        if self.left_vectors.shape != shape:
            raise ShapeError(
                f"left vectors have shape {self.left_vectors.shape}, expected {shape}"
            )
        if np.any(np.diff(self.rows) <= 0):
            raise ShapeError("sampled rows must be distinct and increasing")
        if np.any(self.row_probs <= 0.0) or np.any(self.counts < 1):
            raise InternalError("sampled row probabilities and counts must be positive")
        # The m copies of a row drawn m times share every row query, so
        # their m left vectors u / sqrt(m), each rescaled by 1 / sqrt(p P),
        # sum to u sqrt(m / (p P)).
        self._folded = self.left_vectors * np.sqrt(
            self.counts / (self.p * self.row_probs)
        )[:, np.newaxis]
        self._support = np.unique(
            np.concatenate([store.row_columns(self.rows) for store, _, _ in ms.terms])
        )
        rows = self._support.shape[0] + 1
        self.table = np.zeros((rows, self.r_tilde), dtype=np.complex128)
        # Only the trailing zero row is filled from the start.
        self._filled = np.arange(rows) == rows - 1
        self._gram = None

    @property
    def n(self) -> int:
        return self.ms.n

    def support(self) -> np.ndarray:
        """Sorted indices of the basis rows that can be nonzero.

        Row V(i, :) combines conj(A(i_s, i)) over sampled rows i_s and
        summands A, so it vanishes unless i is stored in some sampled row
        of some summand.  The distinct sampled rows of each distinct
        store (`MatrixSum.terms`) are read in one call, when the sketch is
        built.
        """
        return self._support

    def support_index(self, indices) -> np.ndarray:
        """Position of each row index in `support()`; ``len(support())`` if off it.

        This is the row's position in `table`: a row off the support, which
        is exactly zero, reads the table's trailing zero row.
        """
        support = self.support()
        indices = np.asarray(indices, dtype=np.int64)
        if support.shape[0] == self.n:
            # The support is every row, so a row's position is its index.
            return indices
        pos = support.searchsorted(indices)
        hit = support.take(pos, mode="clip") == indices
        return np.where(hit, pos, support.shape[0])

    def fill(self, indices) -> np.ndarray:
        """Positions in `table` of the given rows, building any not yet built.

        Missing rows are built in one `rows_dense` batch, whose bits do not
        depend on the batch, so a table row is the same however it was filled.
        """
        pos = self.support_index(indices)
        fresh = pos[~self._filled[pos]]
        if fresh.size:
            missing = np.unique(fresh)
            self.table[missing] = self.rows_dense(self.support()[missing])
            self._filled[missing] = True
        return pos

    def gram(self) -> np.ndarray:
        """The Gram matrix V^dagger V of the basis columns, r_tilde x r_tilde.

        Fills the whole support once (`fill`), since every row that can be
        nonzero enters the sum; the rest are exactly zero, so it costs
        O(|support| x distinct rows x distinct stores), independent of n.
        Computed on the first call and returned as is after.
        """
        if self._gram is None:
            self.fill(self.support())
            rows = self.table[:-1]
            self._gram = rows.conj().T @ rows
        return self._gram

    def row(self, i: int) -> np.ndarray:
        """All r_tilde basis entries V(i, :); equal to ``rows_dense([i])[0]``."""
        return self.rows_dense([i])[0]

    def rows_dense(self, indices) -> np.ndarray:
        """Stack of basis rows for the given indices (len(indices), r_tilde).

        One block gather per distinct store of conj(A(i_s, i)) over the
        distinct sampled rows i_s, read from the Hermitian mirror rows,
        then one row-wise product with the folded left vectors: a row's
        bits do not depend on the other indices in the batch.
        """
        indices = np.asarray(indices, dtype=np.int64)
        acc = np.zeros((indices.shape[0], self.rows.shape[0]), dtype=np.complex128)
        for store, _, coef in self.ms.terms:
            acc += coef * store.block(indices, self.rows)
        return linalg.rowwise_matmul(acc, self._folded) / self.singular_values


def build_sketch(
    ms: MatrixSum, params: SketchParams, rng: np.random.Generator
) -> BasisSketch:
    """Sample, rescale, decompose, and filter; return the surviving basis.

    Only entries of each distinct store at distinct sampled (row, column)
    positions are read.  With multiplicities m_r and m_c, the p-by-p core
    K equals P_r C P_c^T for the distinct core C and 0/1 selectors P_r,
    P_c, so K has the singular values of W = C * sqrt(m_r m_c^T) and left
    vectors U[inverse] / sqrt(m_r), and rank at most min(distinct rows,
    distinct cols).  At most rank directions per store with coef != 0 are
    kept, the rank bound of the signed sum.  The sketch keeps U's kept
    columns on the distinct rows with m_r, never the p-row form.  Raises EmptySketch when the
    filter removes every direction, and ConfigError when the draw arrays
    would exceed `MAX_SKETCH_BYTES` (before the first draw) or the
    distinct core would (before it is gathered), or the core exceeds
    `linalg.MAX_DENSE_DIM` on a side.
    """
    p = params.p
    draw_bytes = p * (_DRAW_BYTES + _DRAW_BYTES_PER_STORE * len(ms.terms))
    if draw_bytes > MAX_SKETCH_BYTES:
        raise ConfigError(
            f"sketch size p={p} over {len(ms.terms)} distinct stores needs "
            f"{draw_bytes:,} bytes of draw arrays, over the sketch budget of "
            f"{MAX_SKETCH_BYTES:,} bytes"
        )
    rows = sample_rows(ms, p, rng)[0]
    cols = sample_cols(ms, rows, p, rng)

    urows, m_r = np.unique(rows, return_counts=True)
    ucols, m_c = np.unique(cols, return_counts=True)
    shape = (urows.shape[0], ucols.shape[0])
    core_bytes = shape[0] * shape[1] * _COMPLEX_BYTES
    if core_bytes > MAX_SKETCH_BYTES or max(shape) > linalg.MAX_DENSE_DIM:
        raise ConfigError(
            f"sketch core of {shape[0]} distinct rows x {shape[1]} distinct columns "
            f"({core_bytes:,} bytes) exceeds the sketch budget of "
            f"{MAX_SKETCH_BYTES:,} bytes and {linalg.MAX_DENSE_DIM:,} per side"
        )
    # Signed values and count-weighted squared magnitudes per distinct store.
    sq = np.zeros(shape, dtype=np.float64)
    vals = np.zeros(shape, dtype=np.complex128)
    for store, count, coef in ms.terms:
        g = store.block(urows, ucols)
        vals += coef * g
        sq += count * np.abs(g) ** 2
    row_mass = ms.row_masses(urows)
    row_probs = row_mass / ms.total_mass()
    cond = sq / row_mass[:, np.newaxis]
    col_probs = (m_r[:, np.newaxis] * cond).sum(axis=0) / p
    if np.any(col_probs <= 0.0):
        raise InternalError("sampled column probabilities must be positive")

    denom = p * np.sqrt(np.outer(row_probs, col_probs))
    mult = np.outer(m_r, m_c)
    core_mass = float((mult * sq / denom**2).sum())

    u, sigma, _ = linalg.svd(vals / denom * np.sqrt(mult))
    # rank(sum of coef A over stores) is at most rank per store with coef != 0.
    signed = sum(1 for _, _, coef in ms.terms if coef != 0)
    sigma = sigma[: min(p, signed * ms.rank)]
    floor = params.gamma * core_mass
    keep = sigma**2 >= floor
    if not bool(keep.any()):
        raise EmptySketch(
            f"all {sigma.shape[0]} leading directions fell below gamma={params.gamma}"
        )
    # Scaling every count and coef by c leaves the draw laws and the left
    # vectors alone but scales sigma by c and the summand mass by c only,
    # so these draws keep the same directions while c sigma^2 >= floor
    # for the least kept sigma and not for the largest dropped one.
    kept, dropped = sigma[keep], sigma[~keep]
    hi = floor / dropped[0] ** 2 if dropped.size and dropped[0] > 0.0 else math.inf
    return BasisSketch(
        ms, urows, row_probs, m_r, kept, u[:, : keep.shape[0]][:, keep],
        kept_scales=(float(floor / kept[-1] ** 2), float(hi)),
    )
