"""Sampling-store tests: exact laws, prefix arrays, file round trips."""
import cmath
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpsketch import rng as rngmod
from sdpsketch import store as store_mod
from sdpsketch.errors import (
    HermiticityError,
    ManifestError,
    ZeroMassError,
)
from sdpsketch.oracle import dense_store
from sdpsketch.store import HERMITICITY_TOL, NegatedView, SampledMatrix, read_text


def build(entries: dict, n: int, rank_hint: int) -> SampledMatrix:
    triples = [(i, j, v) for (i, j), v in entries.items()]
    return SampledMatrix.build(triples, n=n, rank_hint=rank_hint)


def prefix_law(prefix) -> dict[int, Fraction]:
    """Exact law of ``searchsorted(prefix, u * prefix[-1], side="right")``.

    For u uniform on [0, 1), index k comes with the probability of its
    step, (prefix[k] - prefix[k - 1]) / prefix[-1], in exact rationals;
    indices whose step is zero never come.
    """
    out = {}
    previous = Fraction(0)
    points = [Fraction(float(x)) for x in prefix]
    for k, point in enumerate(points):
        if point > previous:
            out[k] = (point - previous) / points[-1]
        previous = point
    return out


def row_slice(store: SampledMatrix, i: int) -> slice:
    """Row i's stored positions, as the store's own bulk lookup finds them."""
    a, b = store._spans([i])
    return slice(int(a[0]), int(b[0]))


def row_law(store: SampledMatrix) -> dict[int, Fraction]:
    """Law of the row search; the row prefix runs over nonempty rows."""
    return {int(store._row_ids[k]): p for k, p in prefix_law(store._row_prefix).items()}


def entry_law(store: SampledMatrix) -> dict[tuple[int, int], Fraction]:
    """Two-stage law P(i) * P(j | i) of the row and in-row searches."""
    law = {}
    for i, p_row in row_law(store).items():
        span = row_slice(store, i)
        cols = store._cols[span]
        for pos, p_col in prefix_law(store._run[span]).items():
            law[(i, int(cols[pos]))] = p_row * p_col
    return law


def diagonal_store(values) -> SampledMatrix:
    """Store whose row k holds values[k] on the diagonal."""
    return build(
        {(k, k): float(v) for k, v in enumerate(values)}, n=len(values), rank_hint=1
    )


class TestPrefixArrays:
    def test_masses_read_back(self):
        store = diagonal_store([1.0, 2.0, 3.0, 4.0])
        assert store.total_mass() == 30.0
        assert store.row_masses(np.arange(4)).tolist() == [1.0, 4.0, 9.0, 16.0]

    def test_row_draw_boundaries(self):
        store = diagonal_store([1.0, 2.0, 3.0, 4.0])
        assert store._row_prefix.tolist() == [1.0, 5.0, 14.0, 30.0]
        targets = np.array([0.0, 0.999, 1.0, 4.999, 5.0, 13.999, 14.0, 29.999])
        got = store.rows_at(targets / 30.0)
        assert got.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_prefix_law_equals_weights(self):
        values = [0.5, 0.25, 8.0, 1.0, 0.125, 2.0, 0.0, 4.0]
        store = diagonal_store(values)
        law = row_law(store)
        total = sum(Fraction(v) ** 2 for v in values)
        assert law == {i: Fraction(v) ** 2 / total for i, v in enumerate(values) if v}

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_total_matches_sum(self, weights):
        store = diagonal_store(np.sqrt(weights))
        assert store.total_mass() == pytest.approx(sum(weights), rel=1e-12, abs=1e-300)
        assert np.all(np.diff(store._row_prefix) >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    def test_running_sums_equal_row_loop(self, n, seed):
        gen = np.random.default_rng(seed)
        rows, cols = np.nonzero(np.triu(gen.random((n, n)) < 0.5))
        vals = 10.0 ** (8.0 * (gen.random(rows.shape[0]) - 0.5))
        store = SampledMatrix(rows, cols, vals, n, rank_hint=1)
        masses = {}
        for i in range(n):
            want = np.cumsum(np.abs(store.row_support(i)[1]) ** 2)
            assert np.array_equal(store._run[row_slice(store, i)], want)
            assert store.row_masses([i])[0] == (float(want[-1]) if want.size else 0.0)
            if want.size:
                masses[i] = float(want[-1])
        assert store._row_ids.tolist() == list(masses)
        assert np.array_equal(store._row_prefix, np.cumsum(list(masses.values())))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([1, 2, 3, 5, 24, 40, 2_000]), max_size=30),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_running_sums_equal_cumsum_per_span(self, lengths, seed):
        """Bit for bit one np.cumsum per span, spans of many lengths mixed.

        One long span among many short ones is an arrow matrix's shape.
        """
        gen = np.random.default_rng(seed)
        gen.shuffle(lengths)
        bounds = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        squares = 10.0 ** (8.0 * (gen.random(int(bounds[-1])) - 0.5))
        want = np.concatenate(
            [np.zeros(0)] + [np.cumsum(squares[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        )
        run = squares.copy()
        store_mod._running_sums(run, bounds)
        assert np.array_equal(run, want)

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=33),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_row_draw_lands_on_positive_row(self, weights, raw):
        if sum(weights) == 0:
            return
        store = diagonal_store(np.sqrt(weights))
        row = int(store.rows_at(np.array([raw / 2**32]))[0])
        assert 0 <= row < len(weights)
        assert weights[row] > 0


def diag_fixture() -> SampledMatrix:
    return build({(0, 0): 1.0, (1, 1): 2.0}, n=2, rank_hint=2)


def row34_fixture() -> SampledMatrix:
    # row 0 holds (3, 4): within-row column law is (9/25, 16/25)
    return build({(0, 0): 3.0, (0, 1): 4.0, (1, 1): 0.5}, n=2, rank_hint=2)


class TestExactLaws:
    def test_row_probability_diag(self):
        store = diag_fixture()
        law = row_law(store)
        assert law[1] == Fraction(4, 5)
        assert law[0] == Fraction(1, 5)

    def test_column_probability_in_row(self):
        store = row34_fixture()
        row_law = prefix_law(store._run[row_slice(store, 0)])
        assert row_law[1] == Fraction(16, 25)
        assert row_law[0] == Fraction(9, 25)

    def test_in_row_law_of_light_row_after_heavy_row(self):
        # Row 1 holds (3, 4) * 2^-35 after row 0's unit mass, about 2e-20 of
        # the total.  On a running sum over all rows its steps round to zero.
        tiny = 2.0**-35
        store = build({(0, 0): 1.0, (1, 1): 3 * tiny, (1, 2): 4 * tiny}, n=3, rank_hint=2)
        assert prefix_law(store._run[row_slice(store, 1)]) == {
            0: Fraction(9, 25),
            1: Fraction(16, 25),
        }
        u = [0.0, 0.359, 0.361, 1.0 - 2.0**-53]
        assert store.cols_at([1] * 4, u).tolist() == [1, 1, 2, 2]

    def test_entry_law_equals_definition(self):
        # entries whose squared magnitudes are exact dyadics, so the
        # two-stage law must equal |M(i,j)|^2 / ||M||_F^2 exactly
        store = build(
            {(0, 0): 2.0, (0, 1): 3.0 + 4.0j, (1, 1): -0.5, (2, 2): 4.0},
            n=3,
            rank_hint=3,
        )
        law = entry_law(store)
        total = Fraction(store.total_mass())
        dense = dense_store(store)
        for (i, j), prob in law.items():
            mass = Fraction(abs(dense[i, j].real) ** 2) + Fraction(
                abs(dense[i, j].imag) ** 2
            )
            assert prob == mass / total
        assert sum(law.values()) == 1

    def test_flat_table_law_matches_two_stage(self):
        store = build(
            {(0, 0): 2.0, (0, 1): 3.0 + 4.0j, (1, 1): -0.5, (2, 2): 4.0},
            n=3,
            rank_hint=3,
        )
        # Bulk draws search this running sum (see TestBulkDrawExactness).
        rows, cols, vals = store.entries()
        law = entry_law(store)
        for k, prob in prefix_law(np.cumsum(np.abs(vals) ** 2)).items():
            assert law[(int(rows[k]), int(cols[k]))] == prob
        assert len(law) == rows.shape[0]

    def test_empirical_tv_distance(self):
        rng = rngmod.substream(0, rngmod.INSTANCE, 40)
        dense = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        dense = dense + dense.conj().T
        store = SampledMatrix.from_dense(dense, rank_hint=16)
        draws = 100_000
        sampler = rngmod.substream(0, rngmod.INSTANCE, 41)
        counts = np.bincount(store.rows_at(sampler.random(draws)), minlength=16)
        truth = store.row_masses(np.arange(16))
        truth /= truth.sum()
        tv = 0.5 * np.abs(counts / draws - truth).sum()
        assert tv <= 0.02


def reference_mirror(entries, n: int) -> dict[tuple[int, int], complex]:
    """Fully mirrored entries of an entry list, one entry at a time.

    The rules `SampledMatrix` applies with array operations: indices in
    [0, n), finite values, no repeated key, a real diagonal, and a pair
    listed in both triangles agreeing conjugately, its first value kept.
    """
    seen: set[tuple[int, int]] = set()
    mirrored: dict[tuple[int, int], complex] = {}
    for i, j, v in entries:
        v = complex(v)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"entry ({i}, {j}) outside [0, {n})")
        if not cmath.isfinite(v):
            raise ValueError(f"entry ({i}, {j}) is not finite")
        if (i, j) in seen:
            raise ValueError(f"duplicate entry key ({i}, {j})")
        seen.add((i, j))
        if i == j:
            if abs(v.imag) > HERMITICITY_TOL:
                raise HermiticityError(f"diagonal entry ({i}, {i}) is not real")
            mirrored[(i, i)] = complex(v.real, 0.0)
        elif (j, i) in seen:
            if abs(mirrored[(j, i)] - v.conjugate()) > HERMITICITY_TOL:
                raise HermiticityError(f"entries ({i}, {j}) and ({j}, {i}) are not conjugate")
        else:
            mirrored[(i, j)] = v
            mirrored[(j, i)] = v.conjugate()
    return mirrored


@st.composite
def entry_lists(draw):
    """Valid entry lists: explicit zeros, pairs in both triangles that
    agree within tolerance, in any order."""
    n = draw(st.integers(min_value=1, max_value=6))
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            unique_by=lambda k: (min(k), max(k)),
            max_size=14,
        )
    )
    values = st.one_of(
        st.just(0j), st.complex_numbers(max_magnitude=1e3, allow_nan=False)
    )
    entries = []
    for i, j in keys:
        v = draw(values)
        if i == j:
            entries.append((i, i, complex(v.real, draw(st.sampled_from([0.0, 1e-13])))))
            continue
        entries.append((i, j, v))
        if draw(st.booleans()):
            entries.append((j, i, v.conjugate() + draw(st.sampled_from([0.0, 1e-13]))))
    return n, draw(st.permutations(entries))


def stored_dict(store: SampledMatrix) -> dict[tuple[int, int], complex]:
    rows, cols, vals = store.entries()
    return {(int(r), int(c)): complex(v) for r, c, v in zip(rows, cols, vals)}


class TestBuildValidation:
    @settings(max_examples=80, deadline=None)
    @given(entry_lists())
    def test_matches_dict_reference(self, case):
        n, entries = case
        want = reference_mirror(entries, n)
        store = SampledMatrix.build(entries, n=n, rank_hint=1)
        assert stored_dict(store) == want
        rows, cols, _ = store.entries()
        assert list(zip(rows.tolist(), cols.tolist())) == sorted(want)
        for i in range(n):
            mass = sum(abs(v) ** 2 for (r, _), v in want.items() if r == i)
            assert store.row_masses([i])[0] == pytest.approx(mass, rel=1e-12, abs=1e-300)

    @settings(max_examples=60, deadline=None)
    @given(
        entry_lists(),
        st.sampled_from(["duplicate", "out_of_range", "imaginary_diagonal", "conflict", "nan"]),
        st.randoms(use_true_random=False),
    )
    def test_bad_input_raises_reference_error(self, case, defect, rand):
        n, entries = case
        # Index n is new to the valid entries, so each defect is the only one.
        bad = {
            "duplicate": [(n, 0, 1.0), (n, 0, 1.0)],
            "out_of_range": [(n + 1, 0, 1.0)],
            "imaginary_diagonal": [(n, n, 1.0 + 0.5j)],
            "conflict": [(n, 0, 1.0 + 2.0j), (0, n, 1.0 + 2.0j)],
            "nan": [(0, n, complex(math.nan, 0.0))],
        }[defect]
        entries = list(entries)
        for entry in bad:
            entries.insert(rand.randint(0, len(entries)), entry)
        with pytest.raises(Exception) as want:
            reference_mirror(entries, n + 1)
        with pytest.raises(want.type):
            SampledMatrix.build(entries, n=n + 1, rank_hint=1)

    @settings(max_examples=80, deadline=None)
    @given(
        entry_lists(),
        st.sampled_from(["none", "duplicate", "out_of_range", "conflict"]),
        st.integers(min_value=2**33, max_value=2**62),
        st.randoms(use_true_random=False),
    )
    def test_huge_coordinates_match_dict_reference(self, case, defect, n, rand):
        # The small case's indices map in order onto coordinates of a
        # dimension where i * n + j would wrap in int64.  Index `small` is
        # new to the valid entries, so each defect is the only one, and
        # `small + 1` maps past the last coordinate.
        small, entries = case
        entries = list(entries)
        for entry in {
            "none": [],
            "duplicate": [(small, 0, 1.0), (small, 0, 1.0)],
            "out_of_range": [(small + 1, 0, 1.0)],
            "conflict": [(small, 0, 1.0 + 2.0j), (0, small, 1.0 + 2.0j)],
        }[defect]:
            entries.insert(rand.randint(0, len(entries)), entry)
        coords = sorted(rand.sample(range(n), small + 1)) + [n]
        entries = [(coords[i], coords[j], v) for i, j, v in entries]
        try:
            want = reference_mirror(entries, n)
        except (IndexError, ValueError, HermiticityError) as exc:
            # These defects have the same message in both, naming the
            # same first offending entry.
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                SampledMatrix.build(entries, n=n, rank_hint=1)
            return
        store = SampledMatrix.build(entries, n=n, rank_hint=1)
        assert stored_dict(store) == want
        rows, cols, _ = store.entries()
        assert list(zip(rows.tolist(), cols.tolist())) == sorted(want)

    def test_mirror_is_conjugate(self):
        store = build({(0, 1): 1.0 + 2.0j}, n=2, rank_hint=1)
        assert store.block([1, 0], [0, 1]).tolist() == [[1.0 - 2.0j, 0j], [0j, 1.0 + 2.0j]]

    def test_imaginary_diagonal_rejected(self):
        with pytest.raises(HermiticityError):
            build({(0, 0): 1.0 + 0.1j}, n=1, rank_hint=1)

    def test_conflicting_mirror_rejected(self):
        with pytest.raises(HermiticityError):
            build({(0, 1): 1.0 + 2.0j, (1, 0): 1.0 + 2.0j}, n=2, rank_hint=1)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError):
            SampledMatrix.build([(0, 1, 1.0), (0, 1, 2.0)], n=2, rank_hint=1)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            build({(0, 5): 1.0}, n=2, rank_hint=1)

    # numpy warns while `from_dense` measures the Hermitian defect of inf - inf.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^entry \(0, 1\) has non-finite value"):
            build({(0, 0): 1.0, (0, 1): bad}, n=2, rank_hint=1)
        dense = np.eye(2, dtype=np.complex128)
        dense[0, 1], dense[1, 0] = bad, np.conj(bad)
        with pytest.raises(ValueError, match="non-finite"):
            SampledMatrix.from_dense(dense, rank_hint=1)

    def test_from_dense_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            SampledMatrix.from_dense(np.array([[0.0, 1.0], [2.0, 0.0]]), rank_hint=1)

    def test_zero_mass_sampling(self):
        store = build({}, n=2, rank_hint=1)
        rng = rngmod.substream(0, rngmod.INSTANCE, 0)
        with pytest.raises(ZeroMassError):
            store.rows_at(rng.random(1))
        with pytest.raises(ZeroMassError):
            store.cols_at([0], rng.random(1))


class TestArrayFootprint:
    def test_bytes_per_entry_and_build_peak(self):
        # A rank-2 dense store at n = 1,000 holds 10^6 entries: an 8-byte
        # key, an 8-byte column, a 16-byte value and an 8-byte running sum
        # each.  `entries` derives the row indices it returns from the keys
        # and keeps none of them.
        rng = rngmod.substream(0, rngmod.INSTANCE, 90)
        g = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
        q, _ = np.linalg.qr(g)
        dense = (q * np.array([1.0, -0.5])) @ q.conj().T
        tracemalloc.start()
        try:
            store = SampledMatrix.from_dense(dense, rank_hint=2)
            _, build_peak = tracemalloc.get_traced_memory()
            store.entries()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.nnz == 10**6
        assert held / store.nnz <= 41
        assert build_peak < 347e6 / 2


class TestWideStore:
    """A store holds O(stored entries) at any n; empty rows read as empty."""

    N = 10**7
    COORDS = [5, 17, 2_500_000, 2_500_001, 7_000_000, N - 3]
    PAIRS = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5), (0, 5)]
    # Before the first stored row, between stored rows, after the last.
    EMPTY = [0, 4, 6, 16, 18, 2_499_999, 2_500_002, 6_999_999, N - 2, N - 1]

    def store(self) -> SampledMatrix:
        """Six diagonal entries and nine mirrored pairs: 24 stored entries."""
        c = np.array(self.COORDS)
        a, b = np.array(self.PAIRS).T
        rows = np.concatenate([c, c[a]])
        cols = np.concatenate([c, c[b]])
        vals = np.arange(1, rows.shape[0] + 1) * (1.0 + 0.5j)
        vals[: c.shape[0]] = vals[: c.shape[0]].real
        return SampledMatrix(rows, cols, vals, self.N, rank_hint=2)

    def test_held_bytes_do_not_grow_with_n(self):
        store = self.store()
        assert store.nnz == 24
        held = sum(a.nbytes for a in vars(store).values() if isinstance(a, np.ndarray))
        assert held < 1e6

    def test_empty_rows_read_empty(self):
        store = self.store()
        empty = np.array(self.EMPTY)
        assert np.array_equal(store.row_masses(empty), np.zeros(empty.shape[0]))
        assert np.array_equal(
            store.block(empty, self.COORDS), np.zeros((empty.shape[0], len(self.COORDS)))
        )
        assert store.row_columns(empty).shape == (0,)
        for i in self.EMPTY:
            cols, vals = store.row_support(i)
            assert cols.shape == vals.shape == (0,)
            assert not store.block(self.COORDS + [i], [i]).any()
        assert store.touches == 0

    def test_cols_at_on_empty_row_names_it(self):
        store = self.store()
        for r in self.EMPTY:
            with pytest.raises(ZeroMassError, match=f"row {r} has zero mass"):
                store.cols_at([self.COORDS[0], r], [0.5, 0.5])


class TestHugeDimension:
    """Entries at coordinates where i * n + j wraps in int64 are stored
    and read like any others."""

    N = 2**40
    BIG = 2**24 + 1

    def test_store_reads_and_round_trip(self, tmp_path):
        store = SampledMatrix([1, self.BIG], [self.BIG, self.BIG], [1.0, 2.0], self.N, 1)
        rows, cols, vals = store.entries()
        assert rows.tolist() == [1, self.BIG, self.BIG]
        assert cols.tolist() == [self.BIG, 1, self.BIG]
        assert vals.tolist() == [1.0, 1.0, 2.0]
        got = store.block([1, self.BIG, 0, self.N - 1], [self.BIG, 1, self.N - 1])
        assert got.tolist() == [[1, 0, 0], [2, 1, 0], [0, 0, 0], [0, 0, 0]]
        cols, vals = store.row_support(self.BIG)
        assert cols.tolist() == [1, self.BIG] and vals.tolist() == [1.0, 2.0]
        path = str(tmp_path / "huge.mat")
        store.save(path)
        back = SampledMatrix.load(path)
        assert back.n == self.N
        assert all(
            np.array_equal(x, y) for x, y in zip(back.entries(), store.entries())
        )


class TestAccessorCost:
    """``touches`` counts stored entries read; no draw or norm reads one."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33, 128])
    def test_sample_and_query_within_bound(self, n):
        rng = rngmod.substream(0, rngmod.INSTANCE, 50 + n)
        dense = rng.standard_normal((n, n))
        dense = dense + dense.T
        if n > 1:
            dense[0, n - 1] = dense[n - 1, 0] = 0.0
        store = SampledMatrix.from_dense(dense, rank_hint=n)
        i = int(store.rows_at(rng.random(1))[0])
        j = int(store.cols_at([i], rng.random(1))[0])
        store.row_masses([i])
        store.row_columns([i])
        store.row_support(i)
        store.frobenius_norm()
        assert store.touches == 0
        store.block([i], [j])
        assert store.touches == 1
        if n > 1:
            store.block([0], [n - 1])
            assert store.touches == 1
        store.block([i], np.arange(n))
        assert store.touches == 1 + store.row_support(i)[0].shape[0]
        before = store.touches
        store.entries()
        store.sample_entries(rng.random((7, 2)))
        assert store.touches == before + store.nnz + 7


class TestUpdatesAndViews:
    def test_zero_mass_bulk_draws(self):
        rng = rngmod.substream(0, 1, 11)
        with pytest.raises(ZeroMassError):
            build({}, n=2, rank_hint=1).sample_entries(rng.random((4, 2)))
        with pytest.raises(ZeroMassError):
            build({(0, 0): 0.0, (0, 1): 0.0}, n=2, rank_hint=1).sample_entries(
                rng.random((4, 2))
            )

    def test_negated_view_laws(self):
        rng = rngmod.substream(0, rngmod.INSTANCE, 60)
        dense = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        dense = dense + dense.conj().T
        store = SampledMatrix.from_dense(dense, rank_hint=6)
        view = NegatedView(store)
        assert view.n == store.n
        assert view.rank_hint == store.rank_hint
        assert view.nnz == store.nnz
        assert view.frobenius_norm() == store.frobenius_norm()
        assert view.total_mass() == store.total_mass()
        for got, want, sign in zip(view.entries(), store.entries(), (1, 1, -1)):
            assert np.array_equal(got, sign * want)
        pairs = rngmod.substream(0, 1, 7).random((64, 2))
        rows_v, cols_v, vals_v = view.sample_entries(pairs)
        rows_s, cols_s, vals_s = store.sample_entries(pairs)
        assert np.array_equal(rows_v, rows_s)
        assert np.array_equal(cols_v, cols_s)
        assert np.array_equal(vals_v, -vals_s)

    def test_negated_view_answers_only_constraint_reads(self):
        """A view holds its base and forwards the constraint reads, no more."""
        public = {name for name in vars(NegatedView) if not name.startswith("_")}
        assert public == {
            "n", "rank_hint", "nnz", "frobenius_norm", "total_mass", "trace", "entries",
            "sample_entries",
        }
        store = diag_fixture()
        assert vars(NegatedView(store)) == {"base": store}


class TestTrace:
    """``trace()`` is Tr A for every way a store is made; a view's is minus its base's."""

    def test_trace_matches_dense(self, tmp_path):
        rng = rngmod.substream(0, rngmod.INSTANCE, 61)
        dense = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        dense = dense + dense.conj().T
        made = SampledMatrix.from_dense(dense, rank_hint=7)
        path = str(tmp_path / "a.mat")
        made.save(path)
        stores = {
            "built": build({(0, 0): 1.5, (0, 3): 2 - 1j, (4, 4): -0.25, (5, 2): 3.0}, 6, 2),
            "from_dense": made,
            "loaded": SampledMatrix.load(path),
            "hollow": build({(0, 1): 1.0, (2, 3): 1j}, n=5, rank_hint=2),
            "empty": build({}, n=3, rank_hint=1),
        }
        for name, store in stores.items():
            before = store.touches
            got = store.trace()
            assert type(got) is float, name
            assert NegatedView(store).trace() == -got, name
            assert NegatedView(NegatedView(store)).trace() == got, name
            assert store.touches == before, name
            want = float(np.trace(dense_store(store)).real)
            assert got == pytest.approx(want, rel=1e-15, abs=0.0), name
        assert stores["built"].trace() == 1.25
        assert stores["loaded"].trace() == stores["from_dense"].trace()
        assert stores["hollow"].trace() == stores["empty"].trace() == 0.0


def uniforms_hitting(targets: np.ndarray, total: float) -> np.ndarray:
    """Uniforms in [0, 1) that the store scales onto the targets.

    ``x * total`` equals the target wherever ``target / total`` or one of
    its float neighbours reaches it exactly, and lies within an ulp of it
    elsewhere.
    """
    x = targets / total
    for y in (np.nextafter(x, 0.0), np.nextafter(x, 1.0)):
        x = np.where((x * total != targets) & (y * total == targets), y, x)
    return x[(x >= 0.0) & (x < 1.0)]


class TestEntryDraws:
    """``sample_entries(u)`` draws each row by `rows_at` on ``u[:, 0]``,
    then its column by `cols_at` on ``u[:, 1]``, and returns the values
    stored there."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        density=st.sampled_from([0.05, 0.3, 1.0]),
        zero_frac=st.sampled_from([0.0, 0.3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_row_then_column(self, n, density, zero_frac, seed):
        gen = np.random.default_rng(seed)
        store = random_entry_store(gen, n, density, zero_frac)
        # 0, 1 - 2^-53, every row-prefix boundary and its neighbours, and
        # random uniforms; the column uniforms are the same, shuffled.
        edges = uniforms_hitting(store._row_prefix, store.total_mass())
        x = np.concatenate([
            [0.0, 1.0 - 2.0**-53],
            edges,
            np.nextafter(edges, 0.0),
            np.nextafter(edges, 1.0),
            gen.random(256),
        ])
        x = x[(x >= 0.0) & (x < 1.0)]
        u = np.column_stack([x, gen.permutation(x)])
        rows = store.rows_at(u[:, 0])
        cols = store.cols_at(rows, u[:, 1])
        stored = stored_dict(store)
        vals = np.array([stored.get(key, 0j) for key in zip(rows.tolist(), cols.tolist())])
        got_r, got_c, got_v = store.sample_entries(u)
        assert np.array_equal(got_r, rows)
        assert np.array_equal(got_c, cols)
        assert np.array_equal(got_v, vals)
        neg_r, neg_c, neg_v = NegatedView(store).sample_entries(u)
        assert np.array_equal(neg_r, rows)
        assert np.array_equal(neg_c, cols)
        assert np.array_equal(neg_v, -vals)

    def test_draws_hold_no_memory(self):
        # A draw searches the store's own arrays and builds nothing that
        # outlives the call.
        rng = rngmod.substream(0, rngmod.INSTANCE, 91)
        dense = rng.standard_normal((300, 300))
        store = SampledMatrix.from_dense(dense + dense.T, rank_hint=2)
        u = rng.random((4096, 2))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            store.sample_entries(u)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.nnz == 300**2
        assert (held - before) / store.nnz < 1


def random_entry_store(gen, n: int, density: float, zero_frac: float) -> SampledMatrix:
    """Upper-triangle store with empty rows, explicit zeros and magnitudes
    over eight decades; entry (n - 1, n - 1) keeps one row nonempty."""
    iu, ju = np.triu_indices(n)
    keep = gen.random(iu.shape[0]) < density
    keep[-1] = True
    i, j = iu[keep], ju[keep]
    v = (gen.standard_normal(i.shape[0]) + 1j * gen.standard_normal(i.shape[0])) * 10.0 ** (
        8 * (gen.random(i.shape[0]) - 0.5)
    )
    v[i == j] = v[i == j].real
    v[gen.random(i.shape[0]) < zero_frac] = 0.0
    v[-1] = 1.0
    return SampledMatrix(i, j, v, n, rank_hint=1)


class TestInRowDraws:
    """``cols_at`` returns, for each (row, u), the column at
    ``searchsorted(run, u * mass, "right")`` on the row's own running sum."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        density=st.sampled_from([0.05, 0.3, 1.0]),
        zero_frac=st.sampled_from([0.0, 0.3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bulk_draw_equals_per_row_searchsorted(self, n, density, zero_frac, seed):
        gen = np.random.default_rng(seed)
        store = random_entry_store(gen, n, density, zero_frac)
        rows, us, want = [], [], []
        for r in range(n):
            span = row_slice(store, r)
            run = store._run[span]
            if not run.size or run[-1] <= 0.0:
                continue
            mass = float(run[-1])
            # 0, 1 - 2^-53, every running-sum boundary and its neighbours.
            u = np.concatenate([[0.0, 1.0 - 2.0**-53], uniforms_hitting(run, mass)])
            u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
            u = u[(u >= 0.0) & (u < 1.0)]
            rows.append(np.full(u.shape[0], r))
            us.append(u)
            want.append(store._cols[span][np.searchsorted(run, u * mass, side="right")])
        order = gen.permutation(sum(u.shape[0] for u in us))
        rows, us, want = (np.concatenate(x)[order] for x in (rows, us, want))
        assert np.array_equal(store.cols_at(rows, us), want)

    def test_zero_mass_row_raises(self):
        # Row 0 stores explicit zeros, row 1 their mirror, row 3 nothing.
        store = SampledMatrix([0, 0, 2], [0, 1, 2], [0.0, 0.0, 1.0], 4, rank_hint=1)
        assert store.cols_at([2], [0.5]).tolist() == [2]
        for r in (0, 1, 3):
            with pytest.raises(ZeroMassError, match=f"row {r} has zero mass"):
                store.cols_at([2, r], [0.5, 0.5])

    def test_out_of_range_row_raises(self):
        store = diag_fixture()
        for r in (-1, 2):
            with pytest.raises(IndexError):
                store.cols_at([0, r], [0.5, 0.5])


def row_gather(store: SampledMatrix, i: int, cols: np.ndarray) -> np.ndarray:
    """Row ``i`` at the given columns, zeros where unstored, read one by one."""
    stored = dict(zip(*(a.tolist() for a in store.row_support(i))))
    return np.array([stored.get(j, 0j) for j in cols.tolist()], dtype=np.complex128)


class TestBlockGather:
    """``block`` equals stacked per-row gathers in values and in ``touches``."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        density=st.sampled_from([0.05, 0.3, 1.0]),
        sizes=st.tuples(st.integers(0, 60), st.integers(0, 60)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_block_equals_stacked_row_gather(self, n, density, sizes, seed):
        gen = np.random.default_rng(seed)
        store = random_entry_store(gen, n, density, 0.3)
        # Repeated, unsorted rows and columns, empty rows included.
        rows = gen.integers(n, size=sizes[0])
        cols = gen.integers(n, size=sizes[1])
        want = np.array([row_gather(store, int(i), cols) for i in rows])
        want = want.reshape(rows.shape[0], cols.shape[0])
        before = store.touches
        got = store.block(rows, cols)
        assert np.array_equal(got, want)
        assert store.touches - before == np.count_nonzero(
            [np.isin(cols, store.row_support(int(i))[0]) for i in rows]
        )
        masses = [np.cumsum(np.abs(store.row_support(int(i))[1]) ** 2) for i in rows]
        assert np.array_equal(
            store.row_masses(rows), np.array([m[-1] if m.size else 0.0 for m in masses])
        )
        assert np.array_equal(
            store.row_columns(rows),
            np.concatenate([np.zeros(0, np.int64)] + [store.row_support(int(i))[0] for i in rows]),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(["huge", "every_row"]),
        n=st.integers(min_value=1, max_value=2**62),
        k=st.integers(min_value=1, max_value=12),
        density=st.sampled_from([0.1, 0.5, 1.0]),
        sizes=st.tuples(st.integers(0, 30), st.integers(0, 30)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_block_and_query_on_any_layout(self, layout, n, k, density, sizes, seed):
        gen = np.random.default_rng(seed)
        if layout == "every_row":
            # Every coordinate of a small dimension stores its diagonal.
            n = k
            coords = np.arange(n)
        else:
            coords = np.unique(gen.integers(n, size=k))
        a, b = np.triu_indices(coords.shape[0])
        keep = (a == b) if layout == "every_row" else np.zeros(a.shape[0], dtype=bool)
        keep |= gen.random(a.shape[0]) < density
        vals = gen.standard_normal(a.shape[0]) + 1j * gen.standard_normal(a.shape[0])
        vals[a == b] = vals[a == b].real
        store = SampledMatrix(coords[a[keep]], coords[b[keep]], vals[keep], n, rank_hint=1)
        if layout == "every_row":
            assert store._row_ids.shape[0] == n
        # Stored coordinates, their neighbours and the ends of [0, n).
        near = np.concatenate([coords, coords - 1, coords + 1, [0, n - 1]])
        near = near[(near >= 0) & (near < n)]
        rows = gen.choice(near, size=sizes[0])
        cols = gen.choice(near, size=sizes[1])
        want = np.array([row_gather(store, int(i), cols) for i in rows])
        want = want.reshape(rows.shape[0], cols.shape[0])
        before = store.touches
        assert np.array_equal(store.block(rows, cols), want)
        assert store.touches - before == np.count_nonzero(want != 0)

    def test_out_of_range_row_raises(self):
        store = diag_fixture()
        for r in (-1, 2):
            with pytest.raises(IndexError):
                store.block([0, r], [0, 1])
            with pytest.raises(IndexError):
                store.row_masses([r])

    def test_out_of_range_column_raises(self):
        """A column outside [0, n) raises as a row does, naming it."""
        store = diag_fixture()
        for c in (-1, 2):
            with pytest.raises(IndexError, match=f"column {c} outside"):
                store.block([0], [0, c])


class TestFileFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = rngmod.substream(0, rngmod.INSTANCE, 70)
        dense = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        dense = dense + dense.conj().T
        store = SampledMatrix.from_dense(dense, rank_hint=3)
        path = tmp_path / "m.mat"
        store.save(str(path))
        loaded = SampledMatrix.load(str(path))
        assert loaded.n == store.n
        assert loaded.rank_hint == store.rank_hint
        assert loaded.nnz == store.nnz
        assert np.array_equal(dense_store(loaded), dense_store(store))

    def test_header_and_one_based_upper_triangle(self, tmp_path):
        store = build({(0, 1): 1.0 - 2.0j, (1, 1): 3.0}, n=2, rank_hint=1)
        path = tmp_path / "m.mat"
        store.save(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].split() == ["n", "2", "rank", "1"]
        body = [ln.split() for ln in lines[1:] if not ln.startswith("#")]
        assert ["1", "2", "1", "-2"] in body
        assert ["2", "2", "3", "0"] in body
        for row in body:
            assert int(row[0]) <= int(row[1])

    def test_load_rejects_lower_triangle(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("n 2 rank 1\n2 1 1 0\n")
        with pytest.raises(ManifestError):
            SampledMatrix.load(str(path))

    def test_load_rejects_garbage_header(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("rows 2 cols 2\n")
        with pytest.raises(ManifestError):
            SampledMatrix.load(str(path))

    @pytest.mark.parametrize(
        "body, where",
        [
            ("n 3 rank 1\n1 1 1 0\n2 4 1 0\n", ":3: entry (2, 4) outside [1, 3]"),
            (
                "n 3 rank 1\n1 2 1 0\n\n1 2 1 0\n",
                ":4: duplicate entry (1, 2), first listed on line 2",
            ),
            ("# dims\nn 0 rank 1\n", ":2: dimension and rank must be positive"),
            ("n 3 rank 1\n1 2 nan 0\n", ":2: entry (1, 2) has a non-finite value"),
            ("n 3 rank 1\n1 1 1 0\n2 3 0 -inf\n", ":3: entry (2, 3) has a non-finite value"),
        ],
    )
    def test_load_names_file_and_line(self, tmp_path, body, where):
        path = tmp_path / "bad.mat"
        path.write_text(body)
        with pytest.raises(ManifestError) as info:
            SampledMatrix.load(str(path))
        assert str(info.value) == f"{path}{where}"

    def test_load_rejects_imaginary_diagonal_with_line(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("n 2 rank 1\n1 2 1 0\n2 2 1 0.5\n")
        with pytest.raises(HermiticityError, match=f"^{path}:3: "):
            SampledMatrix.load(str(path))

    def test_load_accepts_comments_and_blanks(self, tmp_path):
        path = tmp_path / "ok.mat"
        path.write_text("# header comment\nn 2 rank 1\n\n1 1 1.5 0\n# tail\n")
        store = SampledMatrix.load(str(path))
        assert store.block([0], [0]).tolist() == [[1.5]]


def reference_load(path: str) -> SampledMatrix:
    """The line-at-a-time loader that `SampledMatrix.load` must match.

    Every rule and message of the text format, one line and one check at
    a time, then `SampledMatrix.build` on the entry list.
    """
    header = None
    entries = []
    lines = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if header is None:
            if len(fields) != 4 or fields[0] != "n" or fields[2] != "rank":
                raise ManifestError(f"{path}:{lineno}: expected header 'n <dim> rank <r>'")
            try:
                header = (int(fields[1]), int(fields[3]))
            except ValueError as exc:
                raise ManifestError(f"{path}:{lineno}: bad header numbers") from exc
            if min(header) < 1:
                raise ManifestError(f"{path}:{lineno}: dimension and rank must be positive")
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
            raise ManifestError(f"{path}:{lineno}: entry ({i}, {j}) outside [1, {header[0]}]")
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ManifestError(f"{path}:{lineno}: entry ({i}, {j}) has a non-finite value")
        if i == j and abs(im) > HERMITICITY_TOL:
            raise HermiticityError(
                f"{path}:{lineno}: diagonal entry ({i}, {i}) has imaginary part {im!r}"
            )
        entries.append((i - 1, j - 1, complex(re, im)))
        lines.append(lineno)
    if header is None:
        raise ManifestError(f"{path}: missing header line")
    try:
        return SampledMatrix.build(entries, *header)
    except ValueError as exc:
        first = {}
        for lineno, (i, j, _) in zip(lines, entries):
            if (i, j) in first:
                raise ManifestError(
                    f"{path}:{lineno}: duplicate entry ({i + 1}, {j + 1}), "
                    f"first listed on line {first[i, j]}"
                ) from exc
            first[i, j] = lineno
        raise


STORE_ARRAYS = ("_keys", "_cols", "_vals", "_run", "_row_prefix", "_bounds", "_row_ids")


def load_outcome(load, path: str):
    """A loaded store's arrays as dtype and bytes, or its error's type and message."""
    try:
        store = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = [getattr(store, name) for name in STORE_ARRAYS]
    return store.n, store.rank_hint, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


# Index fields: in range, past it, signed, underscored, non-ASCII digits,
# a float, a 20-digit index and garbage.
INDEX_TOKENS = ["1", "2", "3", "4", "0", "-1", "+3", "1_0", "٢", "３", "1.0",
                "12345678901234567890", "x"]
VALUE_TOKENS = ["0", "1", "-0.0", "0.5", "-2.25e3", "1e-13", "2e-12", "+1_0.5", "١.٥",
                "infinity", "-inf", "nan", "1e400", "0x1p3", "y"]


@st.composite
def matrix_files(draw):
    """Matrix-file texts, mostly valid, with every kind of line fault."""
    lines = []
    for _ in range(draw(st.integers(0, 2))):
        lines.append(draw(st.sampled_from(["", "   ", "\t", "# comment"])))
    lines.append(draw(st.sampled_from(
        ["n 4 rank 2"] * 8 + ["n 3 rank 1", "n +4 rank 1", "n 4 rank 1 # header"]
        + ["n 3 rank 0", "n 3 rank", "n x rank 1", "m 3 rank 1"]
    )))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["entry"] * 8 + ["fields", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " \t ", "\x1f"])))
            continue
        if kind == "comment":
            lines.append("#" + draw(st.sampled_from(["", " 1 2 3 4", "#"])))
            continue
        width = 4 if kind == "entry" else draw(st.sampled_from([3, 5, 1]))
        i = draw(st.integers(1, 4))
        j = draw(st.integers(i, 4))
        fields = [str(i), str(j), str(draw(st.sampled_from([0.5, -1.0, 2.0]))), "0"]
        if draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(0, 3))
            fields[k] = draw(st.sampled_from(INDEX_TOKENS if k < 2 else VALUE_TOKENS))
        fields = (fields + ["7"])[:width]
        tail = draw(st.sampled_from(["", "", " # note", "# 1 2"]))
        lines.append(" ".join(fields) + tail)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


class TestBulkLoadParity:
    """`load` gives the reference's stores byte for byte, or its error."""

    def check(self, path, text: str):
        path.write_bytes(text.encode("utf-8"))
        want = load_outcome(reference_load, str(path))
        assert load_outcome(SampledMatrix.load, str(path)) == want
        return want

    @settings(max_examples=300, deadline=None)
    @given(matrix_files())
    def test_random_files_match_reference(self, tmp_path_factory, text):
        self.check(tmp_path_factory.getbasetemp() / "parity.mat", text)

    @pytest.mark.parametrize(
        "text, kind",
        [
            # A 3-field and a 5-field line: 8 fields, as two good lines have.
            pytest.param("n 3 rank 1\n1 1 1\n2 2 1 0 0\n", ManifestError, id="three_five"),
            pytest.param("n 3 rank 1\n1 1 1 0 0\n2 2 1\n", ManifestError, id="five_three"),
            # A lower-triangle line before a 3-field one is named first.
            pytest.param("n 3 rank 1\n2 1 1 0\n1 1 1\n", ManifestError, id="lower_before_three"),
            pytest.param("n 3 rank 1\n1 1.0 1 0\n", ManifestError, id="float_col"),
            pytest.param(
                "n 3 rank 1\n3 1 1 0\n1.0 2 1 0\n",
                ManifestError,
                id="lower_before_float",
            ),
            pytest.param("n 3 rank 1\n1 12345678901234567890 1 0\n", ManifestError, id="big_col"),
            pytest.param("n 3 rank 1\n12345678901234567890 2 1 0\n", ManifestError, id="big_row"),
            pytest.param(
                "n 3 rank 1\n-12345678901234567890 2 1 0\n",
                ManifestError,
                id="big_negative",
            ),
            pytest.param(
                "n 3 rank 1\n1 1 1 0\n99999999999999999999 1 1 0\nx 2 1 0\n",
                ManifestError,
                id="big_before_garbage",
            ),
            pytest.param(
                "n 3 rank 1\nx 2 1 0\n99999999999999999999 1 1 0\n",
                ManifestError,
                id="garbage_before_big",
            ),
            pytest.param(
                "n 3 rank 1\n+3 +3 +1_0 0\n1_0 2 1 0\n",
                ManifestError,
                id="plus_underscore_outside",
            ),
            pytest.param(
                "n 3 rank 1\n١ ٢ ١.٥ 0\n٣ ３ 1 0\n+1 1_0 1 0\n",
                ManifestError,
                id="non_ascii_outside",
            ),
            pytest.param("n 3 rank 1\n١ ٢ ١.٥ 0\n٣ ３ 1 0\n+1 +1 1_0 0\n", None, id="non_ascii_ok"),
            pytest.param(
                "n 3 rank 1\r\n1 1 1 0\r\n2 3 1 1\r\n3 1 1 0\r\n",
                ManifestError,
                id="crlf",
            ),
            pytest.param(
                "n 3 rank 1 # hdr\n1 1 1 0# x\n2 3 1 1 #\n#\n   \t \n",
                None,
                id="comments_ok",
            ),
            pytest.param("n 3 rank 1\n1 1 1 # 0\n", ManifestError, id="comment_cuts_fields"),
            pytest.param(
                "n 3 rank 1\n1 1 1 0 # c\x852 2 1 0\n3 1 1 0\n",
                ManifestError,
                id="next_line_separator",
            ),
            pytest.param("", ManifestError, id="empty"),
            pytest.param("\n  \n# only a comment\n", ManifestError, id="blank_only"),
            pytest.param("n 3 rank 1\n", None, id="header_only"),
            pytest.param(
                "n 3 rank 1\n1 2 1 0\n2 2 1 0\n2 2 1 0\n1 2 3 0\n",
                ManifestError,
                id="duplicate",
            ),
            pytest.param(
                "n 3 rank 1\n1 1 1 1e-13\n2 2 1 -1e-12\n3 3 1 2e-12\n",
                HermiticityError,
                id="imaginary_diagonal",
            ),
            pytest.param(
                "n 3 rank 1\n1 1 -0.0 -0.0\n1 2 -0.0 -0.0\n2 3 0 -0.0\n",
                None,
                id="signed_zeros",
            ),
            # Non-finite, lower-triangle, short and garbage lines: the first
            # (line 3) is named, though each rule is found in bulk.
            pytest.param(
                "n 3 rank 1\n1 1 1 0\n1 2 nan 0\n2 1 1 0\n1 1\nx 1 1 0\n",
                ManifestError,
                id="several_bad_lines",
            ),
        ],
    )
    def test_named_cases_match_reference(self, tmp_path, text, kind):
        want = self.check(tmp_path / "case.mat", text)
        if kind is None:
            assert isinstance(want[0], int)
        else:
            assert want[0] is kind


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
def test_random_store_matches_dense_mirror(n, seed):
    rng = rngmod.substream(seed, rngmod.INSTANCE, 80)
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense = dense + dense.conj().T
    store = SampledMatrix.from_dense(dense, rank_hint=n)
    back = dense_store(store)
    assert np.allclose(back, back.conj().T, atol=0)
    assert np.abs(back - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())
    assert store.frobenius_norm() == pytest.approx(np.linalg.norm(dense), rel=1e-12)
