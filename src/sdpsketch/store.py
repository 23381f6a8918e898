"""Hermitian matrix store with squared-magnitude sampling access.

A matrix lives in a two-level structure: one complete binary tree per
nonempty row whose leaves hold squared entry magnitudes, plus a top tree
over the squared row norms.  Sampling a row index proportional to its
squared norm, sampling a column within a row proportional to the squared
entry magnitude, reading a single entry, and reading either norm all touch
O(log n) tree nodes.  Entry updates rewrite one leaf-to-root path.

Bulk draws (`sample_entries`) invert the cumulative table of all stored
squared magnitudes.  A guide table (Chen and Asau's indexed search) splits
[0, total) into equal buckets and keeps, for each, a lower bound on the
inverse-CDF index; a fixed number of branchless steps finishes the search.
The result equals ``searchsorted(cum, u, side="right")`` exactly for every
uniform ``u``.  The step count is fixed per table by the most crowded
bucket, not by the table's size: two or three steps on dense random
tables, five on a 32-by-32 rank-one projector, whose many small entries
share a few buckets.  `entries` exposes the same flat table for query
access to every stored entry.

Input data lists one triangle only; the store mirrors the conjugate so the
matrix is Hermitian by construction.  Indices are 0-based in this API; the
text file format (see `save`/`load`) is 1-based.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import HermiticityError, InternalError, ManifestError, ZeroMassError

# Diagonal entries and mirror conflicts beyond this are rejected as
# non-Hermitian rather than silently repaired.
HERMITICITY_TOL = 1e-12

# Guide-table buckets per stored entry.
_GUIDE_PER_ENTRY = 4
# Relative widening of each bucket's edges when the table is built; it
# dwarfs the few ulps by which the bucket of a uniform can be misrounded.
_GUIDE_EDGE_SLACK = 1e-12


def _next_pow2(k: int) -> int:
    return 1 if k <= 1 else 1 << (k - 1).bit_length()


class SumTree:
    """Complete binary tree over nonnegative weights.

    Nodes live in a flat array with the root at index 1 and leaf ``i`` at
    ``capacity + i``; every internal node stores the sum of its children.
    ``touches`` counts node reads/writes for cost instrumentation.
    """

    __slots__ = ("capacity", "size", "nodes", "touches")

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        self.size = int(weights.shape[0])
        self.capacity = _next_pow2(self.size)
        self.nodes = np.zeros(2 * self.capacity, dtype=np.float64)
        self.nodes[self.capacity : self.capacity + self.size] = weights
        self.touches = 0
        self.rebuild()

    @property
    def total(self) -> float:
        self.touches += 1
        return float(self.nodes[1])

    def leaf(self, i: int) -> float:
        self.touches += 1
        return float(self.nodes[self.capacity + i])

    def rebuild(self) -> None:
        """Recompute every internal node from the leaf layer, level by level."""
        nodes = self.nodes
        lo = self.capacity >> 1
        while lo >= 1:
            hi = 2 * lo
            nodes[lo:hi] = nodes[2 * lo : 2 * hi : 2] + nodes[2 * lo + 1 : 2 * hi : 2]
            lo >>= 1

    def update(self, i: int, weight: float) -> None:
        """Set leaf ``i`` and rewrite its path to the root."""
        node = self.capacity + i
        self.nodes[node] = weight
        self.touches += 1
        node >>= 1
        while node >= 1:
            self.nodes[node] = self.nodes[2 * node] + self.nodes[2 * node + 1]
            self.touches += 3
            node >>= 1

    def descend(self, u: float) -> int:
        """Leaf index for cumulative mass coordinate ``u`` in [0, total)."""
        node = 1
        while node < self.capacity:
            left = 2 * node
            left_sum = self.nodes[left]
            self.touches += 1
            if u < left_sum:
                node = left
            else:
                u -= left_sum
                node = left + 1
        return node - self.capacity

    def max_sum_defect(self) -> float:
        """Largest relative child-sum discrepancy over internal nodes."""
        nodes, cap = self.nodes, self.capacity
        expect = nodes[2 : 2 * cap : 2] + nodes[3 : 2 * cap : 2]
        err = np.abs(nodes[1:cap] - expect)
        rel = np.where(err > 0.0, err / np.maximum(np.abs(expect), 1.0), 0.0)
        return float(rel.max(initial=0.0))


class _Row:
    """Sorted column/value arrays for one stored row plus its sample tree."""

    __slots__ = ("cols", "vals", "tree")

    def __init__(self, cols: np.ndarray, vals: np.ndarray):
        self.cols = cols
        self.vals = vals
        self.tree = SumTree(np.abs(vals) ** 2)


class SampledMatrix:
    """Hermitian n-by-n matrix held in sampling trees.

    Construct through `build`, `from_dense`, or `load`; the constructor
    takes a fully mirrored entry dictionary.
    """

    hermitian = True

    def __init__(self, n: int, rank_hint: int, mirrored: dict[tuple[int, int], complex]):
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        if rank_hint < 1:
            raise ValueError(f"rank hint must be positive, got {rank_hint}")
        self.n = n
        self.rank_hint = rank_hint
        per_row: dict[int, list[tuple[int, complex]]] = {}
        for (i, j), v in mirrored.items():
            per_row.setdefault(i, []).append((j, v))
        self._rows: dict[int, _Row] = {}
        for i, items in per_row.items():
            items.sort(key=lambda cv: cv[0])
            cols = np.array([c for c, _ in items], dtype=np.int64)
            vals = np.array([v for _, v in items], dtype=np.complex128)
            self._rows[i] = _Row(cols, vals)
        norms = np.zeros(n, dtype=np.float64)
        for i, row in self._rows.items():
            norms[i] = row.tree.nodes[1]
        self._norm_tree = SumTree(norms)
        self._extra_touches = 0
        self._flat = None
        self._guide = None

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, entries, n: int, rank_hint: int) -> "SampledMatrix":
        """Build from an entry list ``[(i, j, value), ...]``.

        One triangle suffices; the conjugate mirror is filled in.  If both
        (i, j) and (j, i) appear they must agree conjugately within
        tolerance.  Listing the same key twice is an error.
        """
        seen: set[tuple[int, int]] = set()
        mirrored: dict[tuple[int, int], complex] = {}
        for i, j, v in entries:
            i, j = int(i), int(j)
            v = complex(v)
            if not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"entry ({i}, {j}) outside [0, {n})")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry key ({i}, {j})")
            seen.add((i, j))
            if i == j:
                if abs(v.imag) > HERMITICITY_TOL:
                    raise HermiticityError(
                        f"diagonal entry ({i}, {i}) has imaginary part {v.imag!r}"
                    )
                mirrored[(i, i)] = complex(v.real, 0.0)
                continue
            mirror = mirrored.get((j, i))
            if (j, i) in seen:
                if mirror is None or abs(mirror - v.conjugate()) > HERMITICITY_TOL:
                    raise HermiticityError(
                        f"entries ({i}, {j}) and ({j}, {i}) are not conjugate"
                    )
                continue
            mirrored[(i, j)] = v
            mirrored[(j, i)] = v.conjugate()
        return cls(n, rank_hint, mirrored)

    @classmethod
    def from_dense(cls, a: np.ndarray, rank_hint: int) -> "SampledMatrix":
        """Build from a dense Hermitian array, skipping exact zeros."""
        a = np.asarray(a, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square array, got shape {a.shape}")
        defect = np.abs(a - a.conj().T).max() if a.size else 0.0
        if defect > 1e-10:
            raise HermiticityError(f"dense input deviates from Hermitian by {defect:.3e}")
        a = 0.5 * (a + a.conj().T)
        n = a.shape[0]
        entries = [
            (i, j, a[i, j])
            for i in range(n)
            for j in range(i, n)
            if a[i, j] != 0
        ]
        return cls.build(entries, n, rank_hint)

    # -- scalar access ------------------------------------------------

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"index ({i}, {j}) outside [0, {self.n})")

    def query(self, i: int, j: int) -> complex:
        """Stored value at (i, j); zero for unstored positions."""
        self._check_index(i, j)
        self._extra_touches += 1
        row = self._rows.get(i)
        if row is None:
            return 0j
        pos = int(np.searchsorted(row.cols, j))
        self._extra_touches += 1
        if pos < row.cols.shape[0] and row.cols[pos] == j:
            return complex(row.vals[pos])
        return 0j

    def row_norm(self, i: int) -> float:
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} outside [0, {self.n})")
        row = self._rows.get(i)
        if row is None:
            self._extra_touches += 1
            return 0.0
        return float(np.sqrt(row.tree.total))

    def frobenius_norm(self) -> float:
        return float(np.sqrt(self._norm_tree.total))

    def row_mass(self, i: int) -> float:
        """Squared row norm, read directly off the row tree root."""
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} outside [0, {self.n})")
        row = self._rows.get(i)
        if row is None:
            self._extra_touches += 1
            return 0.0
        return row.tree.total

    def total_mass(self) -> float:
        """Squared Frobenius norm, read off the norm tree root."""
        return self._norm_tree.total

    def row_support(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted column indices and values of row ``i`` (views, do not mutate)."""
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} outside [0, {self.n})")
        row = self._rows.get(i)
        if row is None:
            empty_c = np.zeros(0, dtype=np.int64)
            return empty_c, np.zeros(0, dtype=np.complex128)
        return row.cols, row.vals

    def row_gather(self, i: int, cols: np.ndarray) -> np.ndarray:
        """Values of row ``i`` at the given columns (zeros where unstored)."""
        cols = np.asarray(cols, dtype=np.int64)
        out = np.zeros(cols.shape[0], dtype=np.complex128)
        row = self._rows.get(i)
        if row is None:
            return out
        pos = np.searchsorted(row.cols, cols)
        pos_c = np.minimum(pos, row.cols.shape[0] - 1)
        hit = row.cols[pos_c] == cols
        out[hit] = row.vals[pos_c[hit]]
        return out

    # -- sampling -----------------------------------------------------

    def sample_row(self, rng: np.random.Generator) -> int:
        """Row index drawn with probability ||row||^2 / ||M||_F^2."""
        total = self._norm_tree.total
        if total <= 0.0:
            raise ZeroMassError("matrix has zero Frobenius mass")
        i = self._norm_tree.descend(rng.random() * total)
        if i >= self.n:
            raise InternalError("sampler landed on a padding leaf")
        return i

    def sample_entry_in_row(self, i: int, rng: np.random.Generator) -> int:
        """Column drawn with probability |M(i, j)|^2 / ||row i||^2."""
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} outside [0, {self.n})")
        row = self._rows.get(i)
        if row is None:
            raise ZeroMassError(f"row {i} has zero mass")
        total = row.tree.total
        if total <= 0.0:
            raise ZeroMassError(f"row {i} has zero mass")
        pos = row.tree.descend(rng.random() * total)
        if pos >= row.cols.shape[0]:
            raise InternalError("sampler landed on a padding leaf")
        return int(row.cols[pos])

    def _flat_table(self):
        if self._flat is None:
            rows, cols, vals = [], [], []
            for i in sorted(self._rows):
                row = self._rows[i]
                rows.append(np.full(row.cols.shape[0], i, dtype=np.int64))
                cols.append(row.cols)
                vals.append(row.vals)
            if rows:
                r = np.concatenate(rows)
                c = np.concatenate(cols)
                v = np.concatenate(vals)
            else:
                r = np.zeros(0, dtype=np.int64)
                c = np.zeros(0, dtype=np.int64)
                v = np.zeros(0, dtype=np.complex128)
            cum = np.cumsum(np.abs(v) ** 2)
            self._flat = (r, c, v, cum)
        return self._flat

    def entries(self):
        """Row indices, column indices and values of every stored entry.

        Views of the cached flat table, in row-major order; do not mutate.
        """
        r, c, v, _ = self._flat_table()
        return r, c, v

    def _guide_table(self):
        """Bucket-to-index guide over the flat table's cumulative masses.

        Returns ``(scale, start, steps)``.  A uniform ``u`` falls in bucket
        ``int(u * scale)``; ``start`` of that bucket counts the entries of
        ``cum`` at most the bucket's lowered lower edge, so it never
        exceeds ``searchsorted(cum, u, "right")``.  ``steps`` pairs each
        descending power of two ``s`` with ``cum_pad[s - 1:]``, where
        ``cum_pad`` is ``cum`` followed by ``+inf``; the powers sum to at
        least the largest number of ``cum`` entries in one raised bucket.
        """
        if self._guide is None:
            cum = self._flat_table()[3]
            total = float(cum[-1])
            buckets = _GUIDE_PER_ENTRY * cum.shape[0]
            edges = np.arange(buckets + 2) * (total / buckets)
            bounds = np.searchsorted(cum, edges * (1.0 - _GUIDE_EDGE_SLACK), "right")
            start = bounds[:-1]
            stop = np.searchsorted(cum, edges[1:] * (1.0 + _GUIDE_EDGE_SLACK), "right")
            width = 1 << int((stop - start).max()).bit_length()
            cum_pad = np.concatenate([cum, np.full(width, np.inf)])
            powers = [1 << k for k in reversed(range(width.bit_length() - 1))]
            steps = [(s, cum_pad[s - 1 :]) for s in powers]
            self._guide = (buckets / total, start, steps)
        return self._guide

    def sample_entries(self, size: int, rng: np.random.Generator):
        """Vectorized draw of ``size`` (row, col, value) triples.

        The joint law matches sample_row followed by sample_entry_in_row:
        P(i, j) = |M(i, j)|^2 / ||M||_F^2.  Each draw scales one uniform to
        ``u`` in [0, total) and returns flat-table entry
        ``searchsorted(cum, u, side="right")``; the guide table reaches
        that exact index by a bucket lookup and a fixed number of
        branchless steps instead of a binary search.
        """
        r, c, v, cum = self._flat_table()
        total = float(cum[-1]) if cum.shape[0] else 0.0
        if total <= 0.0:
            raise ZeroMassError("matrix has zero Frobenius mass")
        u = rng.random(size) * total
        scale, start, steps = self._guide_table()
        idx = start.take((u * scale).astype(np.intp))
        for s, shifted in steps:
            idx += s * (shifted.take(idx) <= u)
        return r.take(idx), c.take(idx), v.take(idx)

    # -- updates ------------------------------------------------------

    def set_entry(self, i: int, j: int, value: complex) -> None:
        """Write M(i, j) = value and mirror M(j, i) = conj(value).

        Stored positions update along one leaf-to-root path per affected
        tree; a brand-new position rebuilds the two touched row trees.
        """
        self._check_index(i, j)
        value = complex(value)
        if i == j:
            if abs(value.imag) > HERMITICITY_TOL:
                raise HermiticityError(
                    f"diagonal entry ({i}, {i}) has imaginary part {value.imag!r}"
                )
            value = complex(value.real, 0.0)
        self._flat = None
        self._guide = None
        self._write_one(i, j, value)
        if i != j:
            self._write_one(j, i, value.conjugate())

    def _write_one(self, i: int, j: int, value: complex) -> None:
        row = self._rows.get(i)
        weight = abs(value) ** 2
        if row is not None:
            pos = int(np.searchsorted(row.cols, j))
            if pos < row.cols.shape[0] and row.cols[pos] == j:
                row.vals[pos] = value
                row.tree.update(pos, weight)
                self._norm_tree.update(i, float(row.tree.nodes[1]))
                return
            cols = np.insert(row.cols, pos, j)
            vals = np.insert(row.vals, pos, value)
            self._rows[i] = _Row(cols, vals)
        else:
            self._rows[i] = _Row(
                np.array([j], dtype=np.int64), np.array([value], dtype=np.complex128)
            )
        self._norm_tree.update(i, float(self._rows[i].tree.nodes[1]))

    def rebuild(self) -> None:
        """Full-precision recomputation of every tree, leaves upward."""
        for i, row in self._rows.items():
            row.tree.nodes[row.tree.capacity : row.tree.capacity + row.tree.size] = (
                np.abs(row.vals) ** 2
            )
            row.tree.rebuild()
            self._norm_tree.nodes[self._norm_tree.capacity + i] = row.tree.nodes[1]
        self._norm_tree.rebuild()
        self._flat = None
        self._guide = None

    # -- instrumentation and checks ------------------------------------

    @property
    def touches(self) -> int:
        """Tree nodes read or written since the last reset."""
        count = self._norm_tree.touches + self._extra_touches
        for row in self._rows.values():
            count += row.tree.touches
        return count

    def reset_touches(self) -> None:
        self._norm_tree.touches = 0
        self._extra_touches = 0
        for row in self._rows.values():
            row.tree.touches = 0

    def max_sum_defect(self) -> float:
        """Worst relative internal-node discrepancy across all trees."""
        worst = self._norm_tree.max_sum_defect()
        for i, row in self._rows.items():
            worst = max(worst, row.tree.max_sum_defect())
            stored = self._norm_tree.nodes[self._norm_tree.capacity + i]
            err = abs(stored - row.tree.nodes[1])
            if err > 0.0:
                worst = max(worst, err / max(abs(row.tree.nodes[1]), 1.0))
        return worst

    @property
    def nnz(self) -> int:
        return int(self._flat_table()[0].shape[0])

    # -- text format ---------------------------------------------------

    def save(self, path: str) -> None:
        """Write the upper triangle in the 1-based text format."""
        lines = [f"n {self.n} rank {self.rank_hint}"]
        for i in sorted(self._rows):
            row = self._rows[i]
            for c, v in zip(row.cols, row.vals):
                if c < i:
                    continue
                lines.append(
                    f"{i + 1} {int(c) + 1} {format(v.real, '.17g')} {format(v.imag, '.17g')}"
                )
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str) -> "SampledMatrix":
        """Read the 1-based upper-triangle text format.

        Every malformed line raises `ManifestError` (or `HermiticityError`
        for an imaginary diagonal) naming ``path:line``.
        """
        raw = read_text(path)
        header = None
        entries = []
        lines = []
        for lineno, line in enumerate(raw.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            fields = body.split()
            if header is None:
                if len(fields) != 4 or fields[0] != "n" or fields[2] != "rank":
                    raise ManifestError(
                        f"{path}:{lineno}: expected header 'n <dim> rank <r>'"
                    )
                try:
                    header = (int(fields[1]), int(fields[3]))
                except ValueError as exc:
                    raise ManifestError(f"{path}:{lineno}: bad header numbers") from exc
                if min(header) < 1:
                    raise ManifestError(
                        f"{path}:{lineno}: dimension and rank must be positive"
                    )
                continue
            if len(fields) != 4:
                raise ManifestError(f"{path}:{lineno}: expected 'i j re im'")
            try:
                i, j = int(fields[0]), int(fields[1])
                re, im = float(fields[2]), float(fields[3])
            except ValueError as exc:
                raise ManifestError(f"{path}:{lineno}: bad entry fields") from exc
            if i < 1 or j < 1:
                raise ManifestError(f"{path}:{lineno}: indices are 1-based")
            if j < i:
                raise ManifestError(
                    f"{path}:{lineno}: lower-triangle entry ({i}, {j}); list the upper triangle only"
                )
            if j > header[0]:
                raise ManifestError(
                    f"{path}:{lineno}: entry ({i}, {j}) outside [1, {header[0]}]"
                )
            if i == j and abs(im) > HERMITICITY_TOL:
                raise HermiticityError(
                    f"{path}:{lineno}: diagonal entry ({i}, {i}) has imaginary part {im!r}"
                )
            entries.append((i - 1, j - 1, complex(re, im)))
            lines.append(lineno)
        if header is None:
            raise ManifestError(f"{path}: missing header line")
        n, rank_hint = header
        try:
            return cls.build(entries, n, rank_hint)
        except ValueError as exc:
            # With indices checked above, build only rejects a repeated
            # key; name its lines here rather than track keys per line.
            first = {}
            for lineno, (i, j, _) in zip(lines, entries):
                if (i, j) in first:
                    raise ManifestError(
                        f"{path}:{lineno}: duplicate entry ({i + 1}, {j + 1}), "
                        f"first listed on line {first[i, j]}"
                    ) from exc
                first[i, j] = lineno
            raise


class NegatedView:
    """Sign-flipping view of a store.

    Sampling distributions and norms are untouched (|-x|^2 = |x|^2); only
    returned values change sign.
    """

    hermitian = True

    def __init__(self, base):
        self.base = base

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def rank_hint(self) -> int:
        return self.base.rank_hint

    def query(self, i: int, j: int) -> complex:
        return -self.base.query(i, j)

    @property
    def nnz(self) -> int:
        return self.base.nnz

    def row_norm(self, i: int) -> float:
        return self.base.row_norm(i)

    def frobenius_norm(self) -> float:
        return self.base.frobenius_norm()

    def row_mass(self, i: int) -> float:
        return self.base.row_mass(i)

    def total_mass(self) -> float:
        return self.base.total_mass()

    def row_support(self, i: int):
        cols, vals = self.base.row_support(i)
        return cols, -vals

    def row_gather(self, i: int, cols: np.ndarray) -> np.ndarray:
        return -self.base.row_gather(i, cols)

    def entries(self):
        r, c, v = self.base.entries()
        return r, c, -v

    def sample_row(self, rng: np.random.Generator) -> int:
        return self.base.sample_row(rng)

    def sample_entry_in_row(self, i: int, rng: np.random.Generator) -> int:
        return self.base.sample_entry_in_row(i, rng)

    def sample_entries(self, size: int, rng: np.random.Generator):
        r, c, v, = self.base.sample_entries(size, rng)
        return r, c, -v


def file_sha256(path: str) -> str:
    """Hex digest of a file's bytes, for report provenance."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_text(path: str) -> str:
    """A text file decoded as UTF-8, line ends read as text mode reads them.

    Invalid bytes raise `ManifestError` naming ``path:line``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ManifestError(
            f"{path}:{line}: invalid UTF-8 byte 0x{data[exc.start]:02x}"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
