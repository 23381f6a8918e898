"""Sampling-store tests: exact laws, tree invariants, file round trips."""
import math
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
from sdpsketch.store import NegatedView, SampledMatrix, SumTree


def build(entries: dict, n: int, rank_hint: int) -> SampledMatrix:
    triples = [(i, j, v) for (i, j), v in entries.items()]
    return SampledMatrix.build(triples, n=n, rank_hint=rank_hint)


def tree_leaf_ratios(tree: SumTree) -> dict[int, Fraction]:
    """Per-leaf probability as the exact product of branch ratios.

    Each step contributes child_sum / parent_sum over the stored node
    values; the product telescopes, so this is the law the descent
    procedure is meant to realize.
    """
    out = {}
    def walk(node: int, acc: Fraction) -> None:
        if node >= tree.capacity:
            idx = node - tree.capacity
            if idx < tree.size:
                out[idx] = acc
            return
        parent = Fraction(tree.nodes[node])
        if parent == 0:
            return
        for child in (2 * node, 2 * node + 1):
            mass = Fraction(tree.nodes[child])
            if mass > 0:
                walk(child, acc * mass / parent)
    walk(1, Fraction(1))
    return out


def descent_measures(tree: SumTree) -> dict[int, Fraction]:
    """Exact leaf-selection measure of the running-subtraction descent.

    Models the implemented algorithm in exact arithmetic: at each node
    the running coordinate u branches on u < left_sum and the right
    branch continues with u - left_sum.  For dyadic node values float
    subtraction is exact, so this is the implemented law verbatim.
    """
    out: dict[int, Fraction] = {}

    def walk(node: int, lo: Fraction, hi: Fraction) -> None:
        if hi <= lo:
            return
        if node >= tree.capacity:
            idx = node - tree.capacity
            out[idx] = out.get(idx, Fraction(0)) + (hi - lo)
            return
        left_sum = Fraction(tree.nodes[2 * node])
        walk(2 * node, lo, min(hi, left_sum))
        walk(2 * node + 1, max(lo, left_sum) - left_sum, hi - left_sum)

    total = Fraction(tree.nodes[1])
    walk(1, Fraction(0), total)
    return {k: v / total for k, v in out.items()}


def entry_law(store: SampledMatrix) -> dict[tuple[int, int], Fraction]:
    """Two-stage law P(i) * P(j | i) as exact branch-ratio products."""
    row_probs = tree_leaf_ratios(store._norm_tree)
    law = {}
    for i, p_row in row_probs.items():
        row = store._rows.get(i)
        if row is None:
            continue
        for pos, p_col in tree_leaf_ratios(row.tree).items():
            law[(i, int(row.cols[pos]))] = p_row * p_col
    return law


class TestSumTree:
    def test_total_and_leaves(self):
        tree = SumTree([1.0, 2.0, 3.0, 4.0])
        assert tree.total == 10.0
        assert [tree.leaf(i) for i in range(4)] == [1.0, 2.0, 3.0, 4.0]

    def test_descend_boundaries(self):
        tree = SumTree([1.0, 2.0, 3.0, 4.0])
        assert tree.descend(0.0) == 0
        assert tree.descend(0.999) == 0
        assert tree.descend(1.0) == 1
        assert tree.descend(2.999) == 1
        assert tree.descend(3.0) == 2
        assert tree.descend(5.999) == 2
        assert tree.descend(6.0) == 3
        assert tree.descend(9.999) == 3

    def test_update_rewrites_path(self):
        tree = SumTree([1.0, 2.0, 3.0, 4.0])
        tree.update(2, 5.0)
        assert tree.total == 12.0
        assert tree.leaf(2) == 5.0
        assert tree.max_sum_defect() == 0.0

    def test_ratio_product_telescopes(self):
        weights = [0.5, 0.25, 8.0, 1.0, 0.125, 2.0, 0.0, 4.0]
        tree = SumTree(weights)
        law = tree_leaf_ratios(tree)
        total = Fraction(tree.nodes[1])
        for i, w in enumerate(weights):
            if w > 0:
                assert law[i] == Fraction(w) / total

    def test_descent_measure_matches_ratios_on_dyadic(self):
        weights = [0.5, 0.25, 8.0, 1.0, 0.125, 2.0, 0.0, 4.0]
        tree = SumTree(weights)
        assert descent_measures(tree) == tree_leaf_ratios(tree)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_sums_consistent(self, weights):
        tree = SumTree(weights)
        assert tree.max_sum_defect() <= 1e-12
        assert tree.total == pytest.approx(sum(weights), rel=1e-12, abs=1e-300)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e300, allow_nan=False),
            min_size=0,
            max_size=70,
        ),
        st.floats(min_value=-1e-9, max_value=1e-9),
    )
    def test_level_rebuild_equals_node_loop(self, weights, jitter):
        tree = SumTree(weights)
        nodes = tree.nodes.copy()
        for node in range(tree.capacity - 1, 0, -1):
            nodes[node] = nodes[2 * node] + nodes[2 * node + 1]
        assert np.array_equal(tree.nodes, nodes)

        tree.nodes[1 : tree.capacity] *= 1.0 + jitter
        worst = 0.0
        for node in range(1, tree.capacity):
            expect = tree.nodes[2 * node] + tree.nodes[2 * node + 1]
            err = abs(tree.nodes[node] - expect)
            if err > 0.0:
                worst = max(worst, err / max(abs(expect), 1.0))
        assert tree.max_sum_defect() == worst

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=33),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_descend_lands_on_positive_leaf(self, weights, raw):
        if sum(weights) == 0:
            return
        tree = SumTree([float(w) for w in weights])
        u = (raw / 2**32) * tree.total
        idx = tree.descend(u)
        assert 0 <= idx < tree.size
        assert weights[idx] > 0


def diag_fixture() -> SampledMatrix:
    return build({(0, 0): 1.0, (1, 1): 2.0}, n=2, rank_hint=2)


def row34_fixture() -> SampledMatrix:
    # row 0 holds (3, 4): within-row column law is (9/25, 16/25)
    return build({(0, 0): 3.0, (0, 1): 4.0, (1, 1): 0.5}, n=2, rank_hint=2)


class TestExactLaws:
    def test_row_probability_diag(self):
        store = diag_fixture()
        law = tree_leaf_ratios(store._norm_tree)
        assert law[1] == Fraction(4, 5)
        assert law[0] == Fraction(1, 5)

    def test_column_probability_in_row(self):
        store = row34_fixture()
        row_law = tree_leaf_ratios(store._rows[0].tree)
        assert row_law[1] == Fraction(16, 25)
        assert row_law[0] == Fraction(9, 25)

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
        rows, cols, vals, cum = store._flat_table()
        law = entry_law(store)
        total = Fraction(float(cum[-1]))
        previous = Fraction(0)
        for k in range(rows.shape[0]):
            width = Fraction(float(cum[k])) - previous
            previous = Fraction(float(cum[k]))
            assert law[(int(rows[k]), int(cols[k]))] == width / total

    def test_empirical_tv_distance(self):
        rng = rngmod.substream(0, rngmod.INSTANCE, 40)
        dense = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        dense = dense + dense.conj().T
        store = SampledMatrix.from_dense(dense, rank_hint=16)
        draws = 100_000
        sampler = rngmod.substream(0, rngmod.INSTANCE, 41)
        counts = np.zeros(16)
        for _ in range(draws):
            counts[store.sample_row(sampler)] += 1
        truth = np.array([store.row_mass(i) for i in range(16)])
        truth /= truth.sum()
        tv = 0.5 * np.abs(counts / draws - truth).sum()
        assert tv <= 0.02


class TestBuildValidation:
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

    def test_from_dense_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            SampledMatrix.from_dense(np.array([[0.0, 1.0], [2.0, 0.0]]), rank_hint=1)

    def test_zero_mass_sampling(self):
        store = build({}, n=2, rank_hint=1)
        rng = rngmod.substream(0, rngmod.INSTANCE, 0)
        with pytest.raises(ZeroMassError):
            store.sample_row(rng)
        with pytest.raises(ZeroMassError):
            store.sample_entry_in_row(0, rng)


class TestAccessorCost:
    def bound(self, n: int) -> int:
        return 2 * math.ceil(math.log2(n)) + 2 if n > 1 else 2

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33, 128])
    def test_sample_and_query_within_bound(self, n):
        rng = rngmod.substream(0, rngmod.INSTANCE, 50 + n)
        dense = rng.standard_normal((n, n))
        dense = dense + dense.T
        store = SampledMatrix.from_dense(dense, rank_hint=n)
        limit = self.bound(n)
        store.reset_touches()
        i = store.sample_row(rng)
        assert store.touches <= limit
        store.reset_touches()
        store.sample_entry_in_row(i, rng)
        assert store.touches <= limit
        store.reset_touches()
        store.query(i, (i + 1) % n)
        assert store.touches <= limit
        store.reset_touches()
        store.row_norm(i)
        assert store.touches <= limit
        store.reset_touches()
        store.frobenius_norm()
        assert store.touches <= limit


class TestUpdatesAndViews:
    def test_set_entry_updates_mirror_and_trees(self):
        store = build({(0, 1): 1.0}, n=3, rank_hint=1)
        store.set_entry(0, 2, 2.0 - 1.0j)
        assert store.query(2, 0) == (2.0 + 1.0j)
        assert store.max_sum_defect() <= 1e-12
        expected = math.sqrt(2 * (1.0 + 5.0))
        assert store.frobenius_norm() == pytest.approx(expected, rel=1e-12)

    def test_set_entry_in_place_path(self):
        store = build({(0, 1): 1.0}, n=2, rank_hint=1)
        store.set_entry(0, 1, 3.0)
        assert store.query(0, 1) == 3.0
        assert store.query(1, 0) == 3.0
        assert store.total_mass() == pytest.approx(18.0, rel=1e-12)

    def test_set_entry_invalidates_flat_table(self):
        store = build({(0, 0): 1.0}, n=2, rank_hint=1)
        store._flat_table()
        store.sample_entries(8, rngmod.substream(0, 1, 8))
        store.set_entry(1, 1, 2.0)
        rows, cols, vals, cum = store._flat_table()
        assert rows.shape[0] == 2
        assert float(cum[-1]) == pytest.approx(5.0, rel=1e-15)
        got_r, got_c, _ = store.sample_entries(4096, rngmod.substream(0, 1, 9))
        u = rngmod.substream(0, 1, 9).random(4096) * float(cum[-1])
        want = np.searchsorted(cum, u, side="right")
        assert np.array_equal(got_r, rows[want])
        assert np.array_equal(got_c, cols[want])
        assert set(got_r.tolist()) == {0, 1}

    def test_rebuild_drops_guide_table(self):
        store = build({(0, 0): 1.0, (1, 1): 2.0}, n=2, rank_hint=1)
        store.sample_entries(8, rngmod.substream(0, 1, 10))
        flat, guide = store._flat, store._guide
        store.rebuild()
        assert store._flat is None and store._guide is None
        store.sample_entries(8, rngmod.substream(0, 1, 10))
        assert store._flat is not flat and store._guide is not guide

    def test_zero_mass_bulk_draws(self):
        rng = rngmod.substream(0, 1, 11)
        with pytest.raises(ZeroMassError):
            build({}, n=2, rank_hint=1).sample_entries(4, rng)
        with pytest.raises(ZeroMassError):
            build({(0, 0): 0.0, (0, 1): 0.0}, n=2, rank_hint=1).sample_entries(4, rng)
        store = build({(0, 1): 1.0}, n=2, rank_hint=1)
        store.sample_entries(4, rng)
        store.set_entry(0, 1, 0.0)
        with pytest.raises(ZeroMassError):
            store.sample_entries(4, rng)

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
        r1 = rngmod.substream(0, rngmod.INSTANCE, 61)
        r2 = rngmod.substream(0, rngmod.INSTANCE, 61)
        assert [view.sample_row(r1) for _ in range(50)] == [
            store.sample_row(r2) for _ in range(50)
        ]
        rows_v, cols_v, vals_v = view.sample_entries(64, rngmod.substream(0, 1, 7))
        rows_s, cols_s, vals_s = store.sample_entries(64, rngmod.substream(0, 1, 7))
        assert np.array_equal(rows_v, rows_s)
        assert np.array_equal(cols_v, cols_s)
        assert np.array_equal(vals_v, -vals_s)


class FixedUniforms:
    """Stand-in generator whose ``random`` returns prescribed uniforms."""

    def __init__(self, x: np.ndarray):
        self.x = x

    def random(self, size: int) -> np.ndarray:
        assert size == self.x.shape[0]
        return self.x.copy()


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
    """Bulk draws return exactly ``searchsorted(cum, u, "right")``."""

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
        # A diagonal store's flat table lists the weights in order.
        store = build(
            {(k, k): float(np.sqrt(w)) for k, w in enumerate(weights)},
            n=size,
            rank_hint=1,
        )
        rows, cols, _, cum = store._flat_table()
        total = float(cum[-1])
        scale = store._guide_table()[0]
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
