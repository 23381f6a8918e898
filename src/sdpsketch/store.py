"""Hermitian matrix store with squared-magnitude sampling access.

The program reads a store through two protocols, the whole contract a
new store type meets.  The sketch makes the *summand reads* on each
distinct store of a `MatrixSum`, views unwrapped: ``n``,
``frobenius_norm``, ``row_masses``, ``rows_at``, ``cols_at``, ``block``
and ``row_columns``.  The trace estimator, the constraint checks, the
problems and the dense reference make the eight *constraint reads* on a
store or a view as a whole: ``n``, ``rank_hint``, ``nnz``,
``frobenius_norm``, ``total_mass``, ``trace`` (Tr A, which a check
against the maximally mixed candidate reads in place of an estimate),
``entries`` and ``sample_entries``.  `SampledMatrix` answers both, and
`NegatedView` the constraint reads.

A matrix is static and row-major: each row's stored entries sit
together, sorted by column, beside the row's own running sum of squared
magnitudes, which restarts at zero at each row; a prefix array over the
squared row norms completes it.  Every law is drawn by one search,
``searchsorted(prefix, u * total, side="right")`` for a uniform ``u`` in
[0, 1): a row by squared norm on the row prefix (`rows_at`), and a
column within a row by squared magnitude on that row's own running sum
(`cols_at`), so a light row keeps its law in full however heavy the
rows stored before it.

Nothing held grows with n.  The store keeps the sorted ids of its
nonempty rows and where each one's entries start, and finds a row by
searching those ids; a row with no stored entries is not among them and
reads as an empty span.  A row's slot is its position among those ids,
and each stored entry has one int64 key, row slot x R + column slot for
R nonempty rows: a Hermitian store's stored columns are its nonempty
rows, row-major order sorts the keys, and R <= nnz keeps every key
clear of n.  Reads and draws over many rows are bulk numpy calls, never
a loop per row or per draw: one search pair over the row ids gives
every requested row's span (`_spans`; a store with no empty row indexes
its bounds by row instead), `row_masses` indexes the running sums, and
`block` maps its rows and columns to slots and finds every requested
key in one search of the keys.  `cols_at` searches the running sums of
every span at once by a vectorized bisection (`_segment_search`), one
numpy step per bit of the longest row's length.  An entry draw
(`sample_entries`) is the same two searches in turn, a row by `rows_at`
and then a column in it by `cols_at`, so no law has a second copy; the
drawn row's span is read off the row draw, with no search.

Input data lists one triangle only; the store mirrors the conjugate so the
matrix is Hermitian by construction.  Indices are 0-based in this API; the
text file format (see `save`/`load`) is 1-based.

A store is built in whole-array passes too.  One stable sort of the
listed entries and their mirrors finds repeated keys and pairs listed in
both triangles and gives the row-major order (`_mirrored`); the keys
follow from it with no second sort.  Each row's running sum is one
``np.cumsum`` along the rows of a 2-D array per distinct row length
(`_running_sums`), and `load` reads a file once, converts each column
with one call and checks every line with masks.  A malformed file's
error names the first bad line in file order, as a line-by-line reader
would, and a ``sha256`` pin is checked against the very bytes parsed.
"""
from __future__ import annotations

import bisect
import hashlib
import math
import re

import numpy as np

from .errors import HermiticityError, InternalError, ManifestError, ZeroMassError

# Diagonal entries and mirror conflicts beyond this are rejected as
# non-Hermitian rather than silently repaired.
HERMITICITY_TOL = 1e-12

# A comment runs from '#' to the end of its line.  `read_text` has made
# every "\r" a "\n"; the other characters here are the rest of the line
# boundaries `str.splitlines` splits at.
_COMMENT = re.compile("#[^\n\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


def _segment_search(keys, lo, hi, targets, side: str) -> np.ndarray:
    """``lo + searchsorted(keys[lo:hi], t, side)`` for each ``(lo, hi, t)``.

    ``lo``, ``hi`` and ``targets`` broadcast together, and each span
    ``keys[lo:hi]`` must be sorted.  A branchless bisection run on all
    spans at once: each step halves every span's length, rounding up, so
    the longest span of length L shrinks to one entry after
    ceil(log2 L) steps, and a last comparison settles it.
    """
    before = np.less_equal if side == "right" else np.less
    zero = np.zeros(np.shape(targets), dtype=np.int64)
    base = lo + zero
    length = (hi - lo) + zero
    if not length.any():
        return base
    for _ in range(int(length.max() - 1).bit_length()):
        half = length >> 1
        mid = base + half
        # An empty span may start one past the end of keys; its half is
        # 0, so what it reads there is never used.
        base = np.where(before(keys.take(mid, mode="clip"), targets), mid, base)
        length -= half
    return base + (length & before(keys.take(base, mode="clip"), targets))


def _running_sums(run: np.ndarray, bounds: np.ndarray) -> None:
    """Replace each span ``run[bounds[k]:bounds[k + 1]]`` by its running sum.

    Spans of one length are summed together, as the rows of one 2-D
    array: ``np.cumsum`` along a row adds left to right, as it does on
    each span alone, so the bits are those of one call per span.  One
    pass per distinct length, of which a store of e entries has fewer
    than sqrt(2e); a diagonal store has nothing to add.
    """
    lengths = bounds[1:] - bounds[:-1]
    spans = np.flatnonzero(lengths > 1)
    if not spans.size:
        return
    spans = spans[lengths[spans].argsort()]
    sizes = lengths[spans]
    cuts = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), spans.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        at = bounds[spans[lo:hi], np.newaxis] + np.arange(sizes[lo])
        run[at] = np.cumsum(run[at], axis=1)


def _mass_overflows(i, j, real, imag) -> np.ndarray:
    """Mask of the listed entries from which on the squared Frobenius norm,
    summed in listed order with each off-diagonal entry counted with its
    mirror, is not finite: every draw law divides by that norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = real * real + imag * imag
        return ~np.isfinite(np.cumsum(np.where(i == j, sq, 2.0 * sq)))


def _mirrored(i: np.ndarray, j: np.ndarray, v: np.ndarray, n: int):
    """Validated entry arrays with each off-diagonal entry's conjugate added.

    Returns rows, columns and values in row-major order.  A pair listed
    in both triangles must agree conjugately within tolerance; its
    first-listed value is kept.  Raises IndexError for an index outside
    [0, n), ValueError for a repeated key or a non-finite value, and
    HermiticityError for an imaginary diagonal or a non-conjugate pair,
    each naming the first offending entry listed.

    One stable sort by (row, column) of the listed entries followed by
    the mirrors of the off-diagonal ones both finds repeats and pairs and
    gives the stored order: each key's listed entries come first, in
    listed order, then its mirrors.  No key is a product with n, so any
    int64 dimension works.
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
    m = i.shape[0]
    off = i != j
    rows = np.concatenate([i, j[off]])
    cols = np.concatenate([j, i[off]])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    # Sorted positions k and k + 1 share a key for each k in `at`; a
    # listed entry at k + 1 repeats an earlier listed one.
    at = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
    repeat = np.zeros(rows.shape[0], dtype=bool)
    repeat[order[at + 1]] = True
    bad = repeat[:m]
    if bad.any():
        a, b, _ = first(bad)
        raise ValueError(f"duplicate entry key ({a}, {b})")
    bad = ~off & (np.abs(v.imag) > HERMITICITY_TOL)
    if bad.any():
        a, _, k = first(bad)
        raise HermiticityError(
            f"diagonal entry ({a}, {a}) has imaginary part {float(v.imag[k])!r}"
        )
    v = np.where(off, v, v.real)
    values = np.concatenate([v, np.conj(v[off])])[order]
    # With no repeat, a shared key at k, k + 1 is a listed entry x
    # followed by the mirror of the listed entry y at x's transpose.  Each
    # pair shows up once from each side; the later-listed of the two is
    # its second, and it is dropped with its mirror.
    if not at.size:
        return rows, cols, values
    x = order[at]
    y = np.flatnonzero(off)[order[at + 1] - m]
    bad = np.zeros(m, dtype=bool)
    bad[x[(x > y) & (np.abs(v[x] - np.conj(v[y])) > HERMITICITY_TOL)]] = True
    if bad.any():
        a, b, _ = first(bad)
        raise HermiticityError(f"entries ({a}, {b}) and ({b}, {a}) are not conjugate")
    keep = np.ones(rows.shape[0], dtype=bool)
    keep[np.where(x > y, at, at + 1)] = False
    return rows[keep], cols[keep], values[keep]


class SampledMatrix:
    """Static Hermitian n-by-n matrix held row-major for sampling.

    Construct through `build`, `from_dense`, or `load`, or from entry
    arrays directly.  ``touches`` counts the stored entries read by
    `block`, `entries` and `sample_entries`.
    """

    def __init__(self, rows, cols, vals, n: int, rank_hint: int):
        """Store M(rows[k], cols[k]) = vals[k] and the conjugate mirror.

        Either triangle or both may be listed, under the rules and errors
        of `_mirrored`.  Values whose squared Frobenius norm is not finite
        raise ValueError naming the listed entry at which it overflows
        (`_mass_overflows`): every draw law divides by that norm.
        """
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        if rank_hint < 1:
            raise ValueError(f"rank hint must be positive, got {rank_hint}")
        self.n = n
        self.rank_hint = rank_hint
        self.touches = 0
        listed = (
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.complex128),
        )
        rows, self._cols, self._vals = _mirrored(*listed, n)
        # The sorted ids of the nonempty rows, and where each one's entries
        # start followed by the entry count: row _row_ids[k] spans
        # [_bounds[k], _bounds[k + 1]).  A row with no stored entries has
        # no id here, so nothing held grows with n.
        starts = np.empty(self.nnz + 1, dtype=bool)
        starts[0] = starts[-1] = True
        np.not_equal(rows[1:], rows[:-1], out=starts[1:-1])
        self._bounds = np.flatnonzero(starts)
        self._row_ids = rows[self._bounds[:-1]]
        # Tr A, one masked numpy sum over the stored diagonal, which is
        # real; the mask copies no value.
        self._trace = float(self._vals.real.sum(where=rows == self._cols))
        del rows
        # One key per entry, row slot x R + column slot, a slot being a
        # position in `_row_ids`: a Hermitian store's stored columns are
        # its nonempty rows, and row-major order sorts the keys.  R is at
        # most nnz, so no key is a product with n.
        self._keys = (np.cumsum(starts[:-1]) - 1) * self._row_ids.shape[0]
        self._keys += self._row_ids.searchsorted(self._cols)
        # What `row_support` gives an empty row, made once: most rows of a
        # wide sparse store are empty.
        self._no_entries = (self._cols[:0], self._vals[:0])
        with np.errstate(over="ignore"):
            self._run = np.abs(self._vals) ** 2
            _running_sums(self._run, self._bounds)
            # Over nonempty rows only: an empty row adds nothing and is never
            # drawn.
            self._row_prefix = np.cumsum(self._run[self._bounds[1:] - 1])
        if not math.isfinite(self.total_mass()):
            i, j, v = listed
            bad = _mass_overflows(i, j, v.real, v.imag)
            k = int(np.argmax(bad)) if bad.any() else bad.shape[0] - 1
            raise ValueError(
                f"entry ({int(i[k])}, {int(j[k])}) takes the squared Frobenius norm "
                "past the float range"
            )

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

    # -- access -------------------------------------------------------

    def _checked(self, ids, what: str = "row") -> np.ndarray:
        """``ids`` as an int64 array, or IndexError naming the first outside [0, n).

        One comparison: read as unsigned, a negative id lies past n.
        """
        ids = np.asarray(ids, dtype=np.int64)
        bad = ids.view(np.uint64) >= self.n
        if bad.any():
            raise IndexError(f"{what} {int(ids[bad][0])} outside [0, {self.n})")
        return ids

    def _spans(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Positions [a, b) of each given row's stored entries, as arrays.

        A row with no stored entries is found between the nonempty rows
        around it, so its span is empty (a == b).
        """
        rows = self._checked(rows)
        if self._row_ids.shape[0] == self.n:
            # Every row is stored, so row i is nonempty row i: no search.
            return self._bounds[rows], self._bounds[rows + 1]
        return (
            self._bounds[self._row_ids.searchsorted(rows, "left")],
            self._bounds[self._row_ids.searchsorted(rows, "right")],
        )

    def _slot(self, i: int):
        """Index k of in-range row i in `_row_ids`, or None if it stores nothing.

        One scalar search of the row ids and a hit check: `row_support`
        takes it rather than `_spans`, whose array set-up costs several
        times more for one row.
        """
        ids = self._row_ids.data
        k = bisect.bisect_left(ids, i)
        return k if k < len(ids) and ids[k] == i else None

    def frobenius_norm(self) -> float:
        return math.sqrt(self.total_mass())

    def row_masses(self, rows) -> np.ndarray:
        """Squared row norms of the given rows, the last of each running sum."""
        return self._masses(*self._spans(rows))

    def _masses(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Squared row norms of the rows spanning [a, b)."""
        out = np.zeros(a.shape, dtype=np.float64)
        nonempty = b > a
        out[nonempty] = self._run[b[nonempty] - 1]
        return out

    def total_mass(self) -> float:
        """Squared Frobenius norm, the last entry of the row prefix."""
        return float(self._row_prefix[-1]) if self._row_prefix.size else 0.0

    def trace(self) -> float:
        """Tr A, the stored diagonal summed once when the store is built."""
        return self._trace

    def row_support(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted column indices and values of row ``i`` (views, do not mutate).

        In neither protocol: it serves callers that walk a wide store
        row by row (the benchmark's `sparse_wide` check, 10^5 calls per
        constraint), where `_slot` costs less than numpy's scalar
        ``searchsorted`` and hit check (0.5 against 1.3 us a stored row,
        0.7 against 0.9 us an empty one, Python 3.11 and numpy 2.4).
        """
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} outside [0, {self.n})")
        k = self._slot(i)
        if k is None:
            return self._no_entries
        a, b = self._bounds[k], self._bounds[k + 1]
        return self._cols[a:b], self._vals[a:b]

    def block(self, rows, cols) -> np.ndarray:
        """Values at every (row, col) of the given rows and columns.

        A ``len(rows)`` by ``len(cols)`` array, zero where unstored; the
        count of stored entries read is added to ``touches``.  Rows and
        columns map to their slots, and every (row, col) key is found by
        one search of the sorted keys; a row or column that stores nothing
        has no slot and reads zero.  A row or column outside [0, n)
        raises IndexError.
        """
        rows = self._checked(rows)
        cols = self._checked(cols, "column")
        width = self._row_ids.shape[0]
        if not width:
            return np.zeros((rows.shape[0], cols.shape[0]), dtype=np.complex128)
        r, stored_rows = self._slots(rows)
        c, stored_cols = self._slots(cols)
        key = (r * width)[:, np.newaxis] + c
        stored = stored_rows[:, np.newaxis] & stored_cols
        pos = self._keys.searchsorted(key)
        hit = (self._keys.take(pos, mode="clip") == key) & stored
        out = np.where(hit, self._vals.take(pos, mode="clip"), 0j)
        self.touches += int(np.count_nonzero(hit))
        return out

    def _slots(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each id's position in `_row_ids`, and whether it is there at all."""
        at = self._row_ids.searchsorted(ids)
        return at, self._row_ids.take(at, mode="clip") == ids

    def row_columns(self, rows) -> np.ndarray:
        """Stored column indices of the given rows, concatenated in order."""
        a, b = self._spans(rows)
        width = b - a
        start = np.repeat(a - (np.cumsum(width) - width), width)
        return self._cols[start + np.arange(start.shape[0])]

    # -- sampling -----------------------------------------------------

    def rows_at(self, u: np.ndarray) -> np.ndarray:
        """Row index for each uniform in ``u``, drawn by squared row norm.

        Row i comes with probability ||row i||^2 / ||M||_F^2: the
        nonempty row at ``searchsorted(row_prefix, u * total, side="right")``.
        """
        return self._row_ids[self._row_slots(u)]

    def _row_slots(self, u) -> np.ndarray:
        """For each uniform, the index in `_row_ids` of the row `rows_at` draws."""
        total = self.total_mass()
        if total <= 0.0:
            raise ZeroMassError("matrix has zero Frobenius mass")
        k = np.searchsorted(self._row_prefix, np.asarray(u) * total, side="right")
        if k.size and int(k.max()) >= self._row_ids.shape[0]:
            raise InternalError("row draw landed past the last row")
        return k

    def cols_at(self, rows, u) -> np.ndarray:
        """Column drawn in ``rows[k]`` by squared magnitude, for each ``u[k]``.

        Column j of row i comes with probability |M(i, j)|^2 / ||row i||^2:
        the entry at ``searchsorted(run, u * mass, side="right")`` on row
        i's own running sum ``run``, whose last value is ``mass``.
        """
        return self._cols[self._positions_at(rows, *self._spans(rows), u)]

    def _positions_at(self, rows, a, b, u) -> np.ndarray:
        """Stored position of the entry `cols_at` draws for each (row, u).

        ``a`` and ``b`` are the rows' spans, as `_spans` gives them.
        """
        mass = self._masses(a, b)
        if np.any(mass <= 0.0):
            raise ZeroMassError(
                f"row {int(np.asarray(rows)[mass <= 0.0][0])} has zero mass"
            )
        pos = _segment_search(self._run, a, b, np.asarray(u) * mass, "right")
        if np.any(pos >= b):
            raise InternalError("in-row draw landed past the row's last entry")
        return pos

    def sample_entries(self, u):
        """(row, col, value) triples drawn from the rows of uniforms ``u``.

        ``u`` has shape (k, 2).  Draw k takes its row from ``u[k, 0]`` by
        `rows_at`, then its column in that row from ``u[k, 1]`` by
        `cols_at`, so the joint law is P(i, j) = |M(i, j)|^2 / ||M||_F^2.
        Adds k to ``touches``.
        """
        u = np.asarray(u, dtype=np.float64)
        k = self._row_slots(u[:, 0])
        rows = self._row_ids[k]
        # A drawn row's span is read off its slot, with no search.
        pos = self._positions_at(rows, self._bounds[k], self._bounds[k + 1], u[:, 1])
        self.touches += pos.shape[0]
        return rows, self._cols[pos], self._vals[pos]

    def entries(self):
        """Row indices, column indices and values of every stored entry.

        In row-major order.  The row indices are derived from the keys in
        one O(nnz) pass; the columns and values are views of the stored
        arrays, do not mutate them.
        """
        self.touches += self.nnz
        return self._entry_rows(), self._cols, self._vals

    def _entry_rows(self) -> np.ndarray:
        """Row index of every stored entry, read off its key's row slot."""
        return self._row_ids[self._keys // max(self._row_ids.shape[0], 1)]

    @property
    def nnz(self) -> int:
        return int(self._cols.shape[0])

    # -- text format ---------------------------------------------------

    def save(self, path: str) -> None:
        """Write the upper triangle in the 1-based text format."""
        lines = [f"n {self.n} rank {self.rank_hint}"]
        rows = self._entry_rows()
        upper = self._cols >= rows
        for i, c, v in zip(
            rows[upper].tolist(), self._cols[upper].tolist(), self._vals[upper].tolist()
        ):
            lines.append(f"{i + 1} {c + 1} {format(v.real, '.17g')} {format(v.imag, '.17g')}")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str, sha256: str | None = None) -> "SampledMatrix":
        """Read the 1-based upper-triangle text format.

        Every malformed line raises `ManifestError` (or `HermiticityError`
        for an imaginary diagonal) naming ``path:line``: the first bad
        line in file order, under the first rule it breaks.  ``sha256``,
        if given, pins the bytes that are parsed (`read_text`).

        The file is read once, then split, converted and checked in
        whole-array passes: one ``np.array`` call per column (accepting
        what ``int`` and ``float`` accept) and one mask per rule.  Only a
        field that does not convert sends it line by line, to find that
        line.
        """
        text = _COMMENT.sub("", read_text(path, sha256))
        # Each line is split once to count its fields and the whole text
        # once for the fields themselves, so no list is kept per line.
        width = np.fromiter(map(len, map(str.split, text.splitlines())), dtype=np.int64)
        tokens = text.split()
        del text
        nonblank = np.flatnonzero(width)
        if not nonblank.size:
            raise ManifestError(f"{path}: missing header line")
        head = int(nonblank[0])
        header = tokens[: width[head]]
        if len(header) != 4 or header[0] != "n" or header[2] != "rank":
            raise ManifestError(f"{path}:{head + 1}: expected header 'n <dim> rank <r>'")
        try:
            n, rank_hint = int(header[1]), int(header[3])
        except ValueError as exc:
            raise ManifestError(f"{path}:{head + 1}: bad header numbers") from exc
        if min(n, rank_hint) < 1:
            raise ManifestError(f"{path}:{head + 1}: dimension and rank must be positive")
        # The first line that fails before the checks (a field count, then
        # a conversion), if any; the checks cover the entry lines above it.
        stop = None
        lines = nonblank[1:] + 1
        short = np.flatnonzero(width[lines - 1] != 4)
        if short.size:
            stop = (int(lines[short[0]]), "expected 'i j re im'")
            lines = lines[: short[0]]
        # Four fields per entry line, after the header's four.
        tokens = tokens[4 : 4 * (lines.shape[0] + 1)]
        try:
            i, j = (np.array(tokens[c::4], dtype=np.int64) for c in (0, 1))
            real, imag = (np.array(tokens[c::4], dtype=np.float64) for c in (2, 3))
        except (ValueError, OverflowError):
            i, j, real, imag = _scan_entries(tokens)
            if i.shape[0] < lines.shape[0]:
                stop = (int(lines[i.shape[0]]), "bad entry fields")
                lines = lines[: i.shape[0]]
        _check_entries(path, lines, i, j, real, imag, n)
        if stop is not None:
            raise ManifestError(f"{path}:{stop[0]}: {stop[1]}")
        vals = np.empty(real.shape, dtype=np.complex128)
        vals.real, vals.imag = real, imag
        try:
            return cls(i - 1, j - 1, vals, n, rank_hint)
        except ValueError as exc:
            # With indices and values checked above, the constructor only
            # rejects a repeated key, then a squared norm that overflows;
            # name their lines here rather than track keys or mass per line.
            first = {}
            for lineno, key in zip(lines.tolist(), zip(i.tolist(), j.tolist())):
                if key in first:
                    raise ManifestError(
                        f"{path}:{lineno}: duplicate entry ({key[0]}, {key[1]}), "
                        f"first listed on line {first[key]}"
                    ) from exc
                first[key] = lineno
            bad = _mass_overflows(i, j, real, imag)
            if bad.any():
                k = int(np.argmax(bad))
                raise ManifestError(
                    f"{path}:{lines[k]}: entry ({i[k]}, {j[k]}) takes the squared "
                    "Frobenius norm past the float range"
                ) from exc
            raise


def _scan_entries(tokens: list[str]):
    """Entry columns up to the first line that ``int`` or ``float`` rejects.

    ``tokens`` holds four fields per line.  Indices come back as Python
    ints in object arrays, so an index past int64 reaches the checks of
    `_check_entries` unchanged rather than overflowing.
    """
    ints, floats = [], []
    for k in range(0, len(tokens), 4):
        try:
            pair = int(tokens[k]), int(tokens[k + 1])
            value = float(tokens[k + 2]), float(tokens[k + 3])
        except ValueError:
            break
        ints.append(pair)
        floats.append(value)
    i, j = np.array(ints, dtype=object).reshape(-1, 2).T
    real, imag = np.array(floats, dtype=np.float64).reshape(-1, 2).T
    return i, j, real, imag


def _check_entries(path: str, lines, i, j, real, imag, n: int) -> None:
    """Raise for the first entry, in file order, that breaks a format rule.

    Entry k, read from 1-based line ``lines[k]``, is tested against each
    rule in turn, and the error names the first rule it breaks.
    """
    rules = (
        (i < 1) | (j < 1),
        j < i,
        j > n,
        ~(np.isfinite(real) & np.isfinite(imag)),
        (i == j) & (np.abs(imag) > HERMITICITY_TOL),
    )
    bad = np.logical_or.reduce(rules)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    a, b, at = int(i[k]), int(j[k]), f"{path}:{lines[k]}"
    if rules[0][k]:
        raise ManifestError(f"{at}: indices are 1-based")
    if rules[1][k]:
        raise ManifestError(
            f"{at}: lower-triangle entry ({a}, {b}); list the upper triangle only"
        )
    if rules[2][k]:
        raise ManifestError(f"{at}: entry ({a}, {b}) outside [1, {n}]")
    if rules[3][k]:
        raise ManifestError(f"{at}: entry ({a}, {b}) has a non-finite value")
    raise HermiticityError(
        f"{at}: diagonal entry ({a}, {a}) has imaginary part {float(imag[k])!r}"
    )


class NegatedView:
    """Sign-flipping view of a store, answering the constraint reads.

    Norms and draws are the base's (|-x|^2 = |x|^2); only returned values
    and the trace change sign.  The sketch never reads a view:
    `MatrixSum` unwraps it.
    """

    def __init__(self, base):
        self.base = base

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def rank_hint(self) -> int:
        return self.base.rank_hint

    @property
    def nnz(self) -> int:
        return self.base.nnz

    def frobenius_norm(self) -> float:
        return self.base.frobenius_norm()

    def total_mass(self) -> float:
        return self.base.total_mass()

    def trace(self) -> float:
        return -self.base.trace()

    def entries(self):
        r, c, v = self.base.entries()
        return r, c, -v

    def sample_entries(self, u):
        r, c, v = self.base.sample_entries(u)
        return r, c, -v


def unwrap(a) -> tuple:
    """The store under any `NegatedView`s of ``a``, and the sign they apply."""
    sign = 1
    while isinstance(a, NegatedView):
        a, sign = a.base, -sign
    return a, sign


def file_sha256(path: str) -> str:
    """Hex digest of a file's bytes, for report provenance."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_bytes(path: str) -> bytes:
    """A file's bytes in one read; every matrix, manifest and report is read here."""
    with open(path, "rb") as fh:
        return fh.read()


def read_text(path: str, sha256: str | None = None) -> str:
    """A text file decoded as UTF-8, line ends read as text mode reads them.

    The file is read once.  If ``sha256`` is given, those bytes must hash
    to it, or `ManifestError` reports the mismatch before anything is
    decoded, so the pin covers exactly the bytes that are parsed.
    """
    data = read_bytes(path)
    if sha256 is not None:
        actual = hashlib.sha256(data).hexdigest()
        if actual != sha256:
            raise ManifestError(
                f"{path}: sha256 mismatch (manifest pins {sha256}, file is {actual})"
            )
    return decode_text(path, data)


def decode_text(path: str, data: bytes) -> str:
    """``data`` decoded as UTF-8 with every line end made "\\n".

    Invalid bytes raise `ManifestError` naming ``path:line``.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ManifestError(
            f"{path}:{line}: invalid UTF-8 byte 0x{data[exc.start]:02x}"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
