"""Sampling-store tests: exact laws, prefix arrays, file round trips."""
import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpsketch import rng as rngmod
from sdpsketch.errors import (
    HermiticityError,
    ManifestError,
    ZeroMassError,
)
from sdpsketch.oracle import dense_store
from sdpsketch.store import HERMITICITY_TOL, NegatedView, SampledMatrix


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
    return slice(int(store._indptr[i]), int(store._indptr[i + 1]))


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


class FixedUniforms:
    """Stand-in generator whose ``random`` returns prescribed uniforms."""

    def __init__(self, x):
        self.x = np.atleast_1d(np.asarray(x, dtype=np.float64))

    def random(self, size=None):
        if size is None:
            return float(self.x[0])
        assert size == self.x.shape[0]
        return self.x.copy()


class TestPrefixArrays:
    def test_masses_read_back(self):
        store = diagonal_store([1.0, 2.0, 3.0, 4.0])
        assert store.total_mass() == 30.0
        assert [store.row_mass(i) for i in range(4)] == [1.0, 4.0, 9.0, 16.0]

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
            assert store.row_mass(i) == (float(want[-1]) if want.size else 0.0)
            if want.size:
                masses[i] = float(want[-1])
        assert store._row_ids.tolist() == list(masses)
        assert np.array_equal(store._row_prefix, np.cumsum(list(masses.values())))

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
        assert store.sample_entry_in_row(1, FixedUniforms(0.0)) == 1
        assert store.sample_entry_in_row(1, FixedUniforms(0.359)) == 1
        assert store.sample_entry_in_row(1, FixedUniforms(0.361)) == 2
        assert store.sample_entry_in_row(1, FixedUniforms(1.0 - 2.0**-53)) == 2

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
        truth = np.array([store.row_mass(i) for i in range(16)])
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
            assert store.row_mass(i) == pytest.approx(mass, rel=1e-12, abs=1e-300)

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

    def test_mirror_is_conjugate(self):
        store = build({(0, 1): 1.0 + 2.0j}, n=2, rank_hint=1)
        assert store.query(1, 0) == (1.0 - 2.0j)
        assert store.query(0, 1) == (1.0 + 2.0j)

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
            store.sample_entry_in_row(0, rng)


class TestArrayFootprint:
    def test_bytes_per_entry_and_build_peak(self):
        # A rank-2 dense store at n = 1,000 holds 10^6 entries: 8-byte
        # columns, 16-byte values, 8-byte running sums and, once
        # `entries` has run, 8-byte row indices.
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
        j = store.sample_entry_in_row(i, rng)
        store.row_mass(i)
        store.row_support(i)
        store.frobenius_norm()
        assert store.touches == 0
        store.query(i, j)
        assert store.touches == 1
        if n > 1:
            store.query(0, n - 1)
            assert store.touches == 1
        store.row_gather(i, np.arange(n))
        assert store.touches == 1 + store.row_support(i)[0].shape[0]
        before = store.touches
        store.entries()
        store.sample_entries(7, rng)
        assert store.touches == before + store.nnz + 7


class TestUpdatesAndViews:
    def test_zero_mass_bulk_draws(self):
        rng = rngmod.substream(0, 1, 11)
        with pytest.raises(ZeroMassError):
            build({}, n=2, rank_hint=1).sample_entries(4, rng)
        with pytest.raises(ZeroMassError):
            build({(0, 0): 0.0, (0, 1): 0.0}, n=2, rank_hint=1).sample_entries(4, rng)

    def test_negated_view_laws(self):
        rng = rngmod.substream(0, rngmod.INSTANCE, 60)
        dense = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        dense = dense + dense.conj().T
        store = SampledMatrix.from_dense(dense, rank_hint=6)
        view = NegatedView(store)
        assert view.n == store.n
        assert view.rank_hint == store.rank_hint
        assert view.frobenius_norm() == store.frobenius_norm()
        for i in range(6):
            assert view.row_mass(i) == store.row_mass(i)
            for j in range(6):
                assert view.query(i, j) == -store.query(i, j)
        u = rngmod.substream(0, rngmod.INSTANCE, 61).random(50)
        assert np.array_equal(view.rows_at(u), store.rows_at(u))
        rows_v, cols_v, vals_v = view.sample_entries(64, rngmod.substream(0, 1, 7))
        rows_s, cols_s, vals_s = store.sample_entries(64, rngmod.substream(0, 1, 7))
        assert np.array_equal(rows_v, rows_s)
        assert np.array_equal(cols_v, cols_s)
        assert np.array_equal(vals_v, -vals_s)


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


class TestBulkDrawExactness:
    """Bulk draws return exactly ``searchsorted(cum, u, "right")`` on the
    row-major running sum ``cum`` of all stored squared magnitudes."""

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=2000),
        zero_frac=st.sampled_from([0.0, 0.3, 0.9]),
        span=st.floats(min_value=0.0, max_value=30.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_guide_lookup_equals_searchsorted(self, size, zero_frac, span, seed):
        gen = np.random.default_rng(seed)
        weights = 10.0 ** (span * (gen.random(size) - 0.5))
        weights[gen.random(size) < zero_frac] = 0.0
        if not weights.any():
            weights[-1] = 1.0
        # A diagonal store's running sum adds the weights in order.
        store = diagonal_store(np.sqrt(weights))
        rows, cols, vals = store.entries()
        cum = np.cumsum(np.abs(vals) ** 2)
        total = float(cum[-1])
        scale = store._guide_table()[1]
        buckets = round(scale * total)
        edges = np.concatenate([
            np.arange(buckets + 1) * (total / buckets),
            np.arange(buckets + 1) / scale,
        ])
        targets = np.concatenate([cum, edges, gen.random(4096) * total])
        targets = np.concatenate([
            targets,
            np.nextafter(targets, -np.inf),
            np.nextafter(targets, np.inf),
        ])
        x = uniforms_hitting(targets, total)
        want = np.searchsorted(cum, x * total, side="right")
        got_r, got_c, got_v = store.sample_entries(x.shape[0], FixedUniforms(x))
        assert np.array_equal(got_r, rows[want])
        assert np.array_equal(got_c, cols[want])
        neg_r, neg_c, neg_v = NegatedView(store).sample_entries(
            x.shape[0], FixedUniforms(x)
        )
        assert np.array_equal(neg_r, got_r)
        assert np.array_equal(neg_c, got_c)
        assert np.array_equal(neg_v, -got_v)


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
        for i in range(5):
            for j in range(5):
                assert loaded.query(i, j) == store.query(i, j)

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
        assert store.query(0, 0) == 1.5


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
