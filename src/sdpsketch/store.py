"""Hermitian matrix store with squared-magnitude sampling access.

A matrix is static and row-major: each row's stored entries sit
together, sorted by column, beside the row's own running sum of squared
magnitudes, which restarts at zero at each row; a prefix array over the
squared row norms completes it.  Every law is drawn by one search,
``searchsorted(prefix, u * total, side="right")`` for a uniform ``u`` in
[0, 1): a row by squared norm on the row prefix (`rows_at`), and a
column within a row by squared magnitude on that row's own running sum
(`sample_entry_in_row`), so a light row keeps its law in full however
heavy the rows stored before it.

Bulk draws (`sample_entries`) search the running sum of all stored
squared magnitudes in row-major order, built on first use, through a
guide table (Chen and Asau's indexed search).  It splits [0, total)
into equal buckets and keeps, for each, a lower bound on the
inverse-CDF index; a fixed number of branchless steps finishes the
search at the same index.  The step count is fixed per table by the
most crowded bucket, not by the table's size: two or three steps on
dense random tables, five on a 32-by-32 rank-one projector, whose many
small entries share a few buckets.

Input data lists one triangle only; the store mirrors the conjugate so the
matrix is Hermitian by construction.  Indices are 0-based in this API; the
text file format (see `save`/`load`) is 1-based.
"""
from __future__ import annotations

import hashlib
import math

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


def _mirrored(i: np.ndarray, j: np.ndarray, v: np.ndarray, n: int):
    """Validated entry arrays with each off-diagonal entry's conjugate added.

    A pair listed in both triangles must agree conjugately within
    tolerance; its first-listed value is kept.  Raises IndexError for an
    index outside [0, n), ValueError for a repeated key or a non-finite
    value, and HermiticityError for an imaginary diagonal or a
    non-conjugate pair, each naming the first offending entry listed.
    """

    def first(bad):
        k = int(np.argmax(bad))
        return int(i[k]), int(j[k]), k

    bad = (i < 0) | (i >= n) | (j < 0) | (j >= n)
    if bad.any():
        a, b, _ = first(bad)
        raise IndexError(f"entry ({a}, {b}) outside [0, {n})")
    bad = ~np.isfinite(v)
    if bad.any():
        a, b, k = first(bad)
        raise ValueError(f"entry ({a}, {b}) has non-finite value {complex(v[k])!r}")
    key = i * n + j
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    bad = np.zeros(key.shape[0], dtype=bool)
    bad[order[1:]] = sorted_key[1:] == sorted_key[:-1]
    if bad.any():
        a, b, _ = first(bad)
        raise ValueError(f"duplicate entry key ({a}, {b})")
    diag = i == j
    bad = diag & (np.abs(v.imag) > HERMITICITY_TOL)
    if bad.any():
        a, _, k = first(bad)
        raise HermiticityError(
            f"diagonal entry ({a}, {a}) has imaginary part {float(v.imag[k])!r}"
        )
    v = np.where(diag, v.real, v)
    # An entry whose transpose is listed before it is the second of a pair.
    transposed = j * n + i
    pos = np.minimum(np.searchsorted(sorted_key, transposed), key.shape[0] - 1)
    partner = order[pos]
    second = ~diag & (sorted_key[pos] == transposed) & (partner < np.arange(key.shape[0]))
    bad = second & (np.abs(v - np.conj(v[partner])) > HERMITICITY_TOL)
    if bad.any():
        a, b, _ = first(bad)
        raise HermiticityError(f"entries ({a}, {b}) and ({b}, {a}) are not conjugate")
    keep = ~second
    i, j, v, off = i[keep], j[keep], v[keep], ~diag[keep]
    return (
        np.concatenate([i, j[off]]),
        np.concatenate([j, i[off]]),
        np.concatenate([v, np.conj(v[off])]),
    )


class SampledMatrix:
    """Static Hermitian n-by-n matrix held row-major for sampling.

    Construct through `build`, `from_dense`, or `load`, or from entry
    arrays directly.  ``touches`` counts the stored entries read by
    `query`, `row_gather`, `entries` and `sample_entries`.
    """

    hermitian = True

    def __init__(self, rows, cols, vals, n: int, rank_hint: int):
        """Store M(rows[k], cols[k]) = vals[k] and the conjugate mirror.

        Either triangle or both may be listed, under the rules and errors
        of `_mirrored`.
        """
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        if rank_hint < 1:
            raise ValueError(f"rank hint must be positive, got {rank_hint}")
        self.n = n
        self.rank_hint = rank_hint
        self.touches = 0
        i, j, v = _mirrored(
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.complex128),
            n,
        )
        order = np.lexsort((j, i))
        self._rows, self._cols, self._vals = i[order], j[order], v[order]
        del i, j, v, order
        # Where each nonempty row starts, then the entry count; row i of n
        # starts where the first nonempty row at or after it does.
        bounds = np.append(np.flatnonzero(np.diff(self._rows, prepend=-1)), self.nnz)
        self._row_ids = self._rows[bounds[:-1]]
        self._indptr = np.repeat(bounds, np.diff(self._row_ids, prepend=-1, append=n))
        self._run = np.abs(self._vals) ** 2
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            np.cumsum(self._run[a:b], out=self._run[a:b])
        # Over nonempty rows only: an empty row adds nothing and is never
        # drawn, and a wide sparse store sums no n-length array.
        self._row_prefix = np.cumsum(self._run[bounds[1:] - 1])
        self._guide = None

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, entries, n: int, rank_hint: int) -> "SampledMatrix":
        """Build from an entry list ``[(i, j, value), ...]``.

        One triangle suffices; the conjugate mirror is filled in.  If both
        (i, j) and (j, i) appear they must agree conjugately within
        tolerance.  Listing the same key twice is an error.
        """
        entries = list(entries)
        rows = np.array([e[0] for e in entries], dtype=np.int64)
        cols = np.array([e[1] for e in entries], dtype=np.int64)
        vals = np.array([e[2] for e in entries], dtype=np.complex128)
        return cls(rows, cols, vals, n, rank_hint)

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
        rows, cols = np.triu_indices(n)
        vals = a[rows, cols]
        stored = vals != 0
        return cls(rows[stored], cols[stored], vals[stored], n, rank_hint)

    # -- scalar access ------------------------------------------------

    def _row_span(self, i: int) -> tuple[int, int]:
        """Positions [a, b) of row ``i``'s stored entries."""
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} outside [0, {self.n})")
        return int(self._indptr[i]), int(self._indptr[i + 1])

    def query(self, i: int, j: int) -> complex:
        """Stored value at (i, j); zero for unstored positions."""
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"index ({i}, {j}) outside [0, {self.n})")
        a, b = int(self._indptr[i]), int(self._indptr[i + 1])
        pos = a + int(np.searchsorted(self._cols[a:b], j))
        if pos < b and self._cols[pos] == j:
            self.touches += 1
            return complex(self._vals[pos])
        return 0j

    def frobenius_norm(self) -> float:
        return math.sqrt(self.total_mass())

    def row_mass(self, i: int) -> float:
        """Squared row norm, the last of the row's running sums."""
        a, b = self._row_span(i)
        return float(self._run[b - 1]) if b > a else 0.0

    def total_mass(self) -> float:
        """Squared Frobenius norm, the last entry of the row prefix."""
        return float(self._row_prefix[-1]) if self._row_prefix.size else 0.0

    def row_support(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted column indices and values of row ``i`` (views, do not mutate)."""
        a, b = self._row_span(i)
        return self._cols[a:b], self._vals[a:b]

    def row_gather(self, i: int, cols: np.ndarray) -> np.ndarray:
        """Values of row ``i`` at the given columns (zeros where unstored)."""
        cols = np.asarray(cols, dtype=np.int64)
        out = np.zeros(cols.shape[0], dtype=np.complex128)
        a, b = self._row_span(i)
        if a == b:
            return out
        row_cols = self._cols[a:b]
        pos = np.minimum(np.searchsorted(row_cols, cols), b - a - 1)
        hit = row_cols[pos] == cols
        out[hit] = self._vals[a:b][pos[hit]]
        self.touches += int(np.count_nonzero(hit))
        return out

    # -- sampling -----------------------------------------------------

    def rows_at(self, u: np.ndarray) -> np.ndarray:
        """Row index for each uniform in ``u``, drawn by squared row norm.

        Row i comes with probability ||row i||^2 / ||M||_F^2: the
        nonempty row at ``searchsorted(row_prefix, u * total, side="right")``.
        """
        total = self.total_mass()
        if total <= 0.0:
            raise ZeroMassError("matrix has zero Frobenius mass")
        k = np.searchsorted(self._row_prefix, np.asarray(u) * total, side="right")
        if k.size and int(k.max()) >= self._row_ids.shape[0]:
            raise InternalError("row draw landed past the last row")
        return self._row_ids[k]

    def sample_entry_in_row(self, i: int, rng: np.random.Generator) -> int:
        """Column drawn with probability |M(i, j)|^2 / ||row i||^2."""
        a, b = self._row_span(i)
        run = self._run[a:b]
        total = float(run[-1]) if b > a else 0.0
        if total <= 0.0:
            raise ZeroMassError(f"row {i} has zero mass")
        pos = int(np.searchsorted(run, rng.random() * total, side="right"))
        if pos >= b - a:
            raise InternalError("in-row draw landed past the row's last entry")
        return int(self._cols[a + pos])

    def entries(self):
        """Row indices, column indices and values of every stored entry.

        Views of the stored arrays, in row-major order; do not mutate.
        """
        self.touches += self.nnz
        return self._rows, self._cols, self._vals

    def _guide_table(self):
        """Guide over the running sum of all stored squared magnitudes.

        Returns ``(total, scale, start, steps)`` for the running sum
        ``cum`` in row-major order and its last value ``total``.  A
        uniform ``u`` falls in bucket ``int(u * scale)``; ``start`` of
        that bucket counts the entries of ``cum`` at most the bucket's
        lowered lower edge, so it never exceeds
        ``searchsorted(cum, u, "right")``.  ``steps`` pairs each
        descending power of two ``s`` with ``cum_pad[s - 1:]``, where
        ``cum_pad`` is ``cum`` followed by ``+inf``; the powers sum to at
        least the largest number of ``cum`` entries in one raised bucket.
        """
        if self._guide is None:
            cum = np.cumsum(np.abs(self._vals) ** 2)
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
            self._guide = (total, buckets / total, start, steps)
        return self._guide

    def sample_entries(self, size: int, rng: np.random.Generator):
        """Vectorized draw of ``size`` (row, col, value) triples.

        The joint law is P(i, j) = |M(i, j)|^2 / ||M||_F^2, a row by
        `rows_at` followed by a column by `sample_entry_in_row`.  Each
        draw scales one uniform to ``u`` in [0, total) and returns entry
        ``searchsorted(cum, u, side="right")`` of the row-major running
        sum ``cum``; the guide table reaches that exact index by a bucket
        lookup and a fixed number of branchless steps instead of a binary
        search.
        """
        if self.total_mass() <= 0.0:
            raise ZeroMassError("matrix has zero Frobenius mass")
        total, scale, start, steps = self._guide_table()
        u = rng.random(size) * total
        idx = start.take((u * scale).astype(np.intp))
        for s, shifted in steps:
            idx += s * (shifted.take(idx) <= u)
        self.touches += size
        return self._rows.take(idx), self._cols.take(idx), self._vals.take(idx)

    @property
    def nnz(self) -> int:
        return int(self._cols.shape[0])

    # -- text format ---------------------------------------------------

    def save(self, path: str) -> None:
        """Write the upper triangle in the 1-based text format."""
        lines = [f"n {self.n} rank {self.rank_hint}"]
        upper = self._cols >= self._rows
        for i, c, v in zip(
            self._rows[upper].tolist(), self._cols[upper].tolist(), self._vals[upper].tolist()
        ):
            lines.append(f"{i + 1} {c + 1} {format(v.real, '.17g')} {format(v.imag, '.17g')}")
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
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ManifestError(
                    f"{path}:{lineno}: entry ({i}, {j}) has a non-finite value"
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
            # With indices and values checked above, build only rejects a
            # repeated key; name its lines here rather than track keys per line.
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

    def rows_at(self, u: np.ndarray) -> np.ndarray:
        return self.base.rows_at(u)

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
