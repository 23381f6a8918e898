"""Row-sampled sketching: mixture laws, the rescaled core, and filtering."""

import math

import numpy as np
import pytest

from sdpsketch import linalg
from sdpsketch.errors import EmptySketch, InternalError, ShapeError
from sdpsketch.instances import random_low_rank, random_matrix_sum
from sdpsketch.oracle import dense_basis, dense_realize, dense_sketch_rows
from sdpsketch.rng import substream
from sdpsketch.sketch import (
    BasisSketch,
    MatrixSum,
    SketchParams,
    build_sketch,
    sample_cols,
    sample_rows,
)
from sdpsketch.store import NegatedView, SampledMatrix


def build(entries: dict, n: int, rank: int = 1) -> SampledMatrix:
    """Upper-triangle dict -> store, mirroring test_store's helper."""
    return SampledMatrix.build(
        [(i, j, v) for (i, j), v in entries.items()], n, rank_hint=rank
    )


def two_summands() -> MatrixSum:
    """Small fixed pair with overlapping and disjoint support."""
    a = build({(0, 0): 1.0, (0, 1): 2.0}, 3)
    b = build({(1, 2): 3 + 4j, (2, 2): -0.5}, 3)
    return MatrixSum([a, b], rank=2)


class TestMatrixSum:
    def test_dimensions_and_mass(self):
        ms = two_summands()
        assert (ms.n, ms.tau, ms.rank) == (3, 2, 2)
        expect = sum(s.frobenius_norm() ** 2 for s in ms.summands)
        assert ms.total_mass() == pytest.approx(expect, rel=1e-15)

    def test_row_mass_matches_dense(self):
        ms = two_summands()
        for i in range(ms.n):
            expect = sum(
                np.abs(dense_realize(MatrixSum([s], rank=1))[i]) ** 2
            for s in ms.summands).sum()
            assert ms.row_mass(i) == pytest.approx(expect, rel=1e-14)

    def test_row_probabilities_sum_to_one(self):
        ms = two_summands()
        assert sum(ms.row_probability(i) for i in range(ms.n)) == pytest.approx(1.0)

    def test_query_adds_summands(self):
        ms = two_summands()
        dense = dense_realize(ms)
        for i in range(3):
            for j in range(3):
                assert ms.query(i, j) == pytest.approx(dense[i, j], abs=1e-15)

    def test_opposing_summands_cancel_in_query(self):
        a = build({(0, 1): 2.0}, 2)
        ms = MatrixSum([a, NegatedView(a)], rank=1)
        assert ms.query(0, 1) == 0j
        assert ms.total_mass() == pytest.approx(16.0)  # masses do not cancel

    def test_terms_group_summands_by_store(self):
        a = build({(0, 1): 2.0}, 3)
        b = build({(2, 2): 1.0}, 3)
        ms = MatrixSum([a, b, NegatedView(a), NegatedView(NegatedView(b)), a], rank=1)
        assert [(id(s), c, k) for s, c, k in ms.terms] == [(id(a), 3, 1), (id(b), 2, 2)]
        for i in range(3):
            assert ms.row_mass(i) == pytest.approx(
                sum(s.row_mass(i) for s in ms.summands), rel=1e-15
            )

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ShapeError):
            MatrixSum([], rank=1)
        with pytest.raises(ShapeError):
            MatrixSum([build({(0, 0): 1.0}, 2), build({(0, 0): 1.0}, 3)], rank=1)
        with pytest.raises(ValueError):
            MatrixSum([build({(0, 0): 1.0}, 2)], rank=0)

    def test_summand_selection_follows_mass(self):
        # Masses 1.0 and 4.0, each summand on its own row, so the row
        # drawn names the summand.
        ms = MatrixSum(
            [build({(0, 0): 1.0}, 2), build({(1, 1): 2.0}, 2)], rank=1
        )
        rows, _ = sample_rows(ms, 4000, substream(11, 1))
        assert abs(np.mean(rows == 1) - 0.8) < 0.03


class TestSketchParams:
    def test_scaled_preset_frozen_values(self):
        sp = SketchParams.scaled(tau=2, rank=2, eps=0.5)
        assert sp.p == 3200
        assert sp.gamma == 0.25 / 480.0
        assert SketchParams.scaled(tau=1, rank=1, eps=0.5).p == 200

    def test_presets_shrink_gamma_with_accuracy(self):
        loose = SketchParams.scaled(tau=1, rank=2, eps=0.5)
        tight = SketchParams.scaled(tau=1, rank=2, eps=0.1)
        assert tight.p > loose.p
        assert tight.gamma < loose.gamma

    def test_validation(self):
        with pytest.raises(ValueError):
            SketchParams(p=0, gamma=0.1)
        with pytest.raises(ValueError):
            SketchParams(p=10, gamma=0.0)
        with pytest.raises(ValueError):
            SketchParams(p=10, gamma=-1.0)

    def test_gamma_must_be_finite(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="gamma"):
                SketchParams(p=10, gamma=bad)


class TestDenseCap:
    def test_p_above_cap_rejected_before_allocation(self, monkeypatch):
        import tracemalloc

        from sdpsketch import linalg
        from sdpsketch.errors import ConfigError

        # A lowered cap keeps a regression cheap: p = 800 would allocate
        # about 40 p^2 = 25.6 MB of p-by-p arrays before the SVD rejects it.
        monkeypatch.setattr(linalg, "MAX_DENSE_DIM", 799)
        ms = MatrixSum([random_low_rank(8, 2, substream(29, 1))], rank=2)
        params = SketchParams.scaled(tau=1, rank=2, eps=0.5)
        assert params.p == 800
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="dense size cap 799"):
                build_sketch(ms, params, substream(29, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRowSampling:
    def test_reported_probabilities_are_exact(self):
        ms = two_summands()
        rows, probs = sample_rows(ms, 50, substream(3, 1))
        for t in range(50):
            assert probs[t] == ms.row_probability(int(rows[t]))

    def test_row_law_single_summand(self):
        # diag(1, 2): row masses 1 and 4, so P(row 1) = 4/5.
        ms = MatrixSum([build({(0, 0): 1.0, (1, 1): 2.0}, 2)], rank=2)
        rows, _ = sample_rows(ms, 6000, substream(4, 1))
        assert abs(np.mean(rows == 1) - 0.8) < 0.03

    def test_row_law_mixture(self):
        # Summand masses 1 and 4; each is supported on a single distinct row.
        ms = MatrixSum(
            [build({(0, 0): 1.0}, 3), build({(2, 2): 2.0}, 3)], rank=1
        )
        rows, probs = sample_rows(ms, 6000, substream(5, 1))
        assert set(np.unique(rows)) <= {0, 2}
        assert abs(np.mean(rows == 2) - 0.8) < 0.03
        assert np.all(probs[rows == 2] == pytest.approx(0.8))

    def test_column_law_conditioned_on_row(self):
        # Row 0 is (3, 4): entry law 9/25, 16/25 given that row.
        ms = MatrixSum([build({(0, 0): 3.0, (0, 1): 4.0}, 2)], rank=2)
        rows = np.zeros(6000, dtype=np.int64)
        cols = sample_cols(ms, rows, 6000, substream(6, 1))
        assert abs(np.mean(cols == 1) - 16 / 25) < 0.03

    def test_column_law_mixes_summands(self):
        # On row 0, summand weights 9 vs 16; each owns one column.
        ms = MatrixSum(
            [build({(0, 1): 3.0}, 3), build({(0, 2): 4.0}, 3)], rank=1
        )
        rows = np.zeros(4000, dtype=np.int64)
        cols = sample_cols(ms, rows, 4000, substream(7, 1))
        assert set(np.unique(cols)) <= {1, 2}
        assert abs(np.mean(cols == 2) - 16 / 25) < 0.04

    def test_sample_cols_requires_matching_length(self):
        ms = two_summands()
        with pytest.raises(ShapeError):
            sample_cols(ms, np.zeros(3, dtype=np.int64), 5, substream(8, 1))

    def test_vector_draws_equal_sequential_loop(self):
        # One draw at a time: a uniform picks the summand by squared
        # Frobenius norm, the next uniform a row of that summand.
        a = random_low_rank(7, 2, substream(12, 1))
        b = random_low_rank(7, 1, substream(12, 2))
        ms = MatrixSum([a, b, NegatedView(a), a, NegatedView(b)], rank=2)
        rows, probs = sample_rows(ms, 300, substream(12, 3))
        rng = substream(12, 3)
        masses = np.cumsum([s.frobenius_norm() ** 2 for s in ms.summands])
        want, picked = [], set()
        for _ in range(300):
            k = int(np.searchsorted(masses, rng.random() * masses[-1], side="right"))
            picked.add(k)
            want.append(int(ms.summands[k].rows_at(np.array([rng.random()]))[0]))
        assert picked == set(range(5))
        assert np.array_equal(rows, want)
        assert np.array_equal(probs, [ms.row_probability(i) for i in want])

    def test_sampling_is_deterministic_per_stream(self):
        ms = two_summands()
        r1, p1 = sample_rows(ms, 40, substream(9, 1))
        r2, p2 = sample_rows(ms, 40, substream(9, 1))
        assert np.array_equal(r1, r2) and np.array_equal(p1, p2)
        c1 = sample_cols(ms, r1, 40, substream(9, 2))
        c2 = sample_cols(ms, r2, 40, substream(9, 2))
        assert np.array_equal(c1, c2)


class TestRowSampleMoments:
    def test_single_row_expectation_is_exact(self):
        # With one sampled row the rescaled sketch satisfies
        # E[S^dagger S] = sum_i P_i (M_i,: ^dagger M_i,:) / P_i = M^dagger M
        # identically; enumerating the law must reproduce it to float noise.
        ms = two_summands()
        m = dense_realize(ms)
        target = m.conj().T @ m
        acc = np.zeros_like(target)
        for i in range(ms.n):
            prob = ms.row_probability(i)
            if prob == 0.0:
                continue
            s = dense_sketch_rows(ms, np.array([i]), np.array([prob]))
            acc += prob * (s.conj().T @ s)
        assert np.linalg.norm(acc - target) <= 1e-12

    def test_monte_carlo_second_moment_bound(self):
        ms = random_matrix_sum(8, tau=2, rank=2, rng=substream(10, 1))
        m = dense_realize(ms)
        target = m.conj().T @ m
        mass = ms.total_mass()
        p = 6
        rng = substream(10, 2)
        errs = []
        for _ in range(120):
            rows, probs = sample_rows(ms, p, rng)
            s = dense_sketch_rows(ms, rows, probs)
            errs.append(np.linalg.norm(target - s.conj().T @ s) ** 2)
        bound = (ms.tau + 1) ** 2 * mass**2 / p
        assert np.mean(errs) <= 1.5 * bound

    def test_frobenius_sandwich_on_sampled_rows(self):
        # Per-summand mass of the rescaled row sketch stays within
        # [1/(tau+1), (2 tau+1)/(tau+1)] of the true summand mass, up to a
        # small failure rate over independent draws.
        tau, p, trials = 2, 200, 60
        ms = random_matrix_sum(12, tau=tau, rank=2, rng=substream(12, 1))
        mass = ms.total_mass()
        lo = mass / (tau + 1)
        hi = mass * (2 * tau + 1) / (tau + 1)
        rng = substream(12, 2)
        bad = 0
        for _ in range(trials):
            rows, probs = sample_rows(ms, p, rng)
            scale = 1.0 / (p * probs)
            sketched = sum(
                float(np.dot(scale, [s.row_mass(int(i)) for i in rows]))
                for s in ms.summands
            )
            if not lo <= sketched <= hi:
                bad += 1
        assert bad / trials <= 0.15


class TestBuildSketch:
    def make(self, n=16, tau=2, rank=2, p=80, gamma=1e-6, seed=20):
        ms = random_matrix_sum(n, tau=tau, rank=rank, rng=substream(seed, 1))
        v = build_sketch(ms, SketchParams(p=p, gamma=gamma), substream(seed, 2))
        return ms, v

    def test_shapes_and_ordering(self):
        ms, v = self.make()
        assert v.rows.shape == (80,)
        assert v.row_probs.shape == (80,)
        assert 1 <= v.r_tilde <= ms.tau * ms.rank
        assert v.left_vectors.shape == (80, v.r_tilde)
        assert np.all(v.singular_values > 0)
        assert np.all(np.diff(v.singular_values) <= 0)

    def test_rank_one_summand_caps_directions(self):
        ms = MatrixSum(
            [random_low_rank(12, 1, substream(21, 1))], rank=1
        )
        v = build_sketch(ms, SketchParams(p=40, gamma=1e-9), substream(21, 2))
        assert v.r_tilde == 1

    def test_deterministic_per_stream(self):
        _, a = self.make(seed=22)
        _, b = self.make(seed=22)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.singular_values, b.singular_values)
        assert np.array_equal(a.left_vectors, b.left_vectors)

    def test_overtight_filter_raises(self):
        ms = random_matrix_sum(8, tau=1, rank=2, rng=substream(23, 1))
        with pytest.raises(EmptySketch):
            build_sketch(ms, SketchParams(p=30, gamma=1e6), substream(23, 2))

    def test_cancelling_sum_raises(self):
        a = random_low_rank(8, 2, substream(24, 1))
        ms = MatrixSum([a, NegatedView(a)], rank=2)
        with pytest.raises(EmptySketch):
            build_sketch(ms, SketchParams(p=30, gamma=1e-6), substream(24, 2))

    def test_filter_is_monotone_in_gamma(self):
        ms = random_matrix_sum(16, tau=2, rank=2, rng=substream(25, 1))
        kept = []
        for gamma in (1e-9, 1e-4, 1e-2, 0.3):
            try:
                v = build_sketch(
                    ms, SketchParams(p=60, gamma=gamma), substream(25, 2)
                )
                kept.append(v.r_tilde)
            except EmptySketch:
                kept.append(0)
        assert kept == sorted(kept, reverse=True)
        assert kept[0] >= 1

    def test_basis_matches_dense_reconstruction(self):
        ms, v = self.make(n=12, p=50, seed=26)
        db = dense_basis(v)
        assert db.shape == (12, v.r_tilde)
        for i in range(12):
            assert np.allclose(v.row(i), db[i], atol=1e-10)
        assert v.row(3)[0] == pytest.approx(complex(db[3, 0]), abs=1e-10)
        assert np.allclose(v.rows_dense([2, 7, 7]), db[[2, 7, 7]], atol=1e-10)

    def test_row_and_entry_bounds(self):
        _, v = self.make(n=8, p=30, seed=27)
        with pytest.raises(IndexError):
            v.row(8)
        with pytest.raises(IndexError):
            v.row(-1)
        with pytest.raises(IndexError):
            v.row(0)[v.r_tilde]

    def test_left_vectors_orthonormal(self):
        _, v = self.make(n=16, p=80, seed=28)
        gram = v.left_vectors.conj().T @ v.left_vectors
        assert np.allclose(gram, np.eye(v.r_tilde), atol=1e-10)

    def test_basis_near_orthonormal_at_moderate_budget(self):
        ms = MatrixSum([random_low_rank(32, 2, substream(29, 1))], rank=2)
        v = build_sketch(ms, SketchParams(p=300, gamma=1e-4), substream(29, 2))
        vd = dense_basis(v)
        assert np.linalg.norm(vd.conj().T @ vd - np.eye(v.r_tilde)) <= 0.25

    def test_projection_error_small_at_moderate_budget(self):
        ms = MatrixSum([random_low_rank(32, 2, substream(30, 1))], rank=2)
        a = dense_realize(ms)
        v = build_sketch(ms, SketchParams(p=300, gamma=1e-4), substream(30, 2))
        vd = dense_basis(v)
        err = np.linalg.norm(a @ vd @ vd.conj().T - a)
        assert err <= 0.3 * np.linalg.norm(a)

    def test_rejects_inconsistent_description(self):
        ms, v = self.make(n=8, p=30, seed=31)
        with pytest.raises(InternalError):
            BasisSketch(
                ms, v.rows, np.zeros_like(v.row_probs),
                v.singular_values, v.left_vectors,
            )
        with pytest.raises(ShapeError):
            BasisSketch(
                ms, v.rows, v.row_probs,
                v.singular_values, v.left_vectors[:-1],
            )


def pxp_core(ms, rows, row_probs, cols):
    """The p-by-p rescaled core and its summand mass, one summand at a time."""
    p = rows.shape[0]
    sq = np.zeros((p, p))
    vals = np.zeros((p, p), dtype=np.complex128)
    for s in ms.summands:
        g = np.array([s.row_gather(int(i), cols) for i in rows])
        vals += g
        sq += np.abs(g) ** 2
    row_mass = np.array([ms.row_mass(int(i)) for i in rows])
    col_probs = (sq / row_mass[:, np.newaxis]).mean(axis=0)
    denom = p * np.sqrt(np.outer(row_probs, col_probs))
    return vals / denom, float((sq / denom**2).sum())


def repeated_sum(cancel: bool) -> MatrixSum:
    """A repeated, sign-flipped store: A + B + A - A, or the cancelling A - A."""
    a = random_low_rank(10, 2, substream(32, 1))
    if cancel:
        return MatrixSum([a, NegatedView(a)], rank=2)
    b = random_low_rank(10, 2, substream(32, 2))
    return MatrixSum([a, b, a, NegatedView(a)], rank=2)


class TestDistinctCore:
    """The core on distinct rows and columns against the p-by-p formula."""

    @pytest.mark.parametrize("cancel", [False, True], ids=["mixed", "cancelling"])
    def test_matches_pxp_core(self, monkeypatch, cancel):
        ms = repeated_sum(cancel)
        rng = substream(33, 1)
        rows, probs = sample_rows(ms, 120, rng)
        cols = sample_cols(ms, rows, 120, rng)
        assert np.unique(rows).shape[0] <= 10
        core, core_mass = pxp_core(ms, rows, probs, cols)
        ref_u, ref_sigma, _ = np.linalg.svd(core)
        seen = []

        def spy(*args):
            seen.append(sample_cols(*args))
            return seen[-1]

        monkeypatch.setattr("sdpsketch.sketch.sample_cols", spy)
        gamma = 1e-12
        if cancel:
            assert not np.any(ref_sigma)
            with pytest.raises(EmptySketch):
                build_sketch(ms, SketchParams(p=120, gamma=gamma), substream(33, 1))
            return
        v = build_sketch(ms, SketchParams(p=120, gamma=gamma), substream(33, 1))
        assert np.array_equal(v.rows, rows)
        assert np.array_equal(v.row_probs, probs)
        assert np.array_equal(seen[0], cols)
        k = v.r_tilde
        assert k == int((ref_sigma[: ms.tau * ms.rank] ** 2 >= gamma * core_mass).sum())
        assert np.allclose(v.singular_values, ref_sigma[:k], rtol=1e-10, atol=0)
        ref_proj = ref_u[:, :k] @ ref_u[:, :k].conj().T
        proj = v.left_vectors @ v.left_vectors.conj().T
        assert np.abs(proj - ref_proj).max() <= 1e-10
        # A floor between the second and third squared values keeps two,
        # which holds only if the core mass matches too.
        gamma = ref_sigma[1] * ref_sigma[2] / core_mass
        v = build_sketch(ms, SketchParams(p=120, gamma=gamma), substream(33, 1))
        assert v.r_tilde == 2

    def test_basis_rows_match_p_form(self):
        ms = repeated_sum(cancel=False)
        v = build_sketch(ms, SketchParams(p=120, gamma=1e-12), substream(34, 1))
        assert np.unique(v.rows).shape[0] < v.p
        scale = 1.0 / np.sqrt(v.p * v.row_probs)
        for i in range(ms.n):
            mirror = np.array([np.conj(ms.query(int(r), i)) for r in v.rows])
            expect = (mirror * scale) @ v.left_vectors / v.singular_values
            assert np.abs(v.row(i) - expect).max() <= 1e-12

    def test_large_p_stays_small(self):
        import tracemalloc

        # One p-by-p complex array at p = 5,000 is 400 MB.
        ms = MatrixSum([random_low_rank(32, 2, substream(35, 1))], rank=2)
        tracemalloc.start()
        try:
            v = build_sketch(ms, SketchParams(p=5000, gamma=1e-6), substream(35, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.p == 5000
        assert peak < 16 << 20

    def test_svd_sees_only_the_distinct_grid(self, monkeypatch):
        ms = MatrixSum([random_low_rank(32, 2, substream(36, 1))], rank=2)
        rng = substream(36, 2)
        rows, _ = sample_rows(ms, 5000, rng)
        cols = sample_cols(ms, rows, 5000, rng)
        shapes = []
        original = linalg.svd

        def spy(a):
            shapes.append(a.shape)
            return original(a)

        monkeypatch.setattr(linalg, "svd", spy)
        build_sketch(ms, SketchParams(p=5000, gamma=1e-6), substream(36, 2))
        assert shapes == [(np.unique(rows).shape[0], np.unique(cols).shape[0])]
        assert max(shapes[0]) <= 32
