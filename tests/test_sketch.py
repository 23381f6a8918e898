"""Row-sampled sketching: mixture laws, the rescaled core, and filtering."""

import math

import numpy as np
import pytest

from sdpsketch import linalg
from sdpsketch.errors import EmptySketch, InternalError, ShapeError, ZeroMassError
from sdpsketch.instances import planted_around_state, random_low_rank, random_matrix_sum
from sdpsketch.oracle import dense_basis, dense_realize, dense_sketch_rows, dense_store
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
        expect = sum(
            (np.abs(dense_realize(MatrixSum([s], rank=1))) ** 2).sum(axis=1)
            for s in ms.summands
        )
        assert ms.row_masses(np.arange(ms.n)) == pytest.approx(expect, rel=1e-14)

    def test_row_probabilities_sum_to_one(self):
        ms = two_summands()
        probs = ms.row_masses(np.arange(ms.n)) / ms.total_mass()
        assert probs.sum() == pytest.approx(1.0)

    def test_query_adds_summands(self):
        ms = two_summands()
        everywhere = np.arange(3)
        summed = sum(coef * s.block(everywhere, everywhere) for s, _, coef in ms.terms)
        assert summed == pytest.approx(dense_realize(ms), abs=1e-15)

    def test_opposing_summands_cancel_in_query(self):
        a = build({(0, 1): 2.0}, 2)
        ms = MatrixSum([a, NegatedView(a)], rank=1)
        assert dense_realize(ms)[0, 1] == 0j
        assert [coef for _, _, coef in ms.terms] == [0]
        assert ms.total_mass() == pytest.approx(16.0)  # masses do not cancel

    def test_terms_group_summands_by_store(self):
        a = build({(0, 1): 2.0}, 3)
        b = build({(2, 2): 1.0}, 3)
        ms = MatrixSum([a, b, NegatedView(a), NegatedView(NegatedView(b)), a], rank=1)
        assert [(id(s), c, k) for s, c, k in ms.terms] == [(id(a), 3, 1), (id(b), 2, 2)]
        for i in range(3):
            assert ms.row_masses([i])[0] == pytest.approx(
                sum(np.sum(np.abs(dense_store(s)[i]) ** 2) for s in ms.summands), rel=1e-15
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


class TestSketchBudget:
    """The byte budget on the p-length draw arrays and the distinct core."""

    def test_core_above_budget_rejected_before_allocation(self, monkeypatch):
        import re
        import tracemalloc

        from sdpsketch import sketch
        from sdpsketch.errors import ConfigError

        # About 400 x 400 distinct rows and columns: a 2.5 MB complex core,
        # over a budget lowered to 1 MB that the 2,000 draws meet.
        ms = MatrixSum([random_low_rank(400, 2, substream(29, 1))], rank=2)
        # numpy imports numpy.ma (about 1 MB) on the first sketch.
        build_sketch(ms, SketchParams(p=20, gamma=1e-6), substream(29, 3))
        monkeypatch.setattr(sketch, "MAX_SKETCH_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="sketch core") as info:
                build_sketch(ms, SketchParams(p=2000, gamma=1e-6), substream(29, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        shape = re.search(r"of (\d+) distinct rows x (\d+) distinct columns", str(info.value))
        rows, cols = int(shape[1]), int(shape[2])
        assert f"({rows * cols * 16:,} bytes)" in str(info.value)
        assert "budget of 1,048,576 bytes" in str(info.value)
        assert rows * cols * 16 > 1 << 20
        assert peak < 1 << 20

    def test_draws_above_budget_rejected_before_draws(self, monkeypatch):
        from sdpsketch import sketch
        from sdpsketch.errors import ConfigError

        # A repeated and a negated summand over one store: one distinct store.
        a = random_low_rank(8, 2, substream(29, 1))
        ms = MatrixSum([a, NegatedView(a), a], rank=2)
        need = 2000 * (sketch._DRAW_BYTES + sketch._DRAW_BYTES_PER_STORE)
        monkeypatch.setattr(sketch, "MAX_SKETCH_BYTES", need - 1)
        rng = substream(29, 2)
        with pytest.raises(
            ConfigError, match=rf"p=2000 over 1 distinct stores needs {need:,} bytes of draw"
        ):
            build_sketch(ms, SketchParams(p=2000, gamma=1e-6), rng)
        assert rng.random() == substream(29, 2).random()
        monkeypatch.setattr(sketch, "MAX_SKETCH_BYTES", need)
        assert build_sketch(ms, SketchParams(p=2000, gamma=1e-6), rng).p == 2000

    @pytest.mark.parametrize("stores", [1, 4])
    def test_largest_admitted_p_peaks_under_budget(self, stores):
        import tracemalloc

        from sdpsketch import sketch
        from sdpsketch.errors import ConfigError

        problem, _ = planted_around_state(n=32, m=4, rank=2, eps=0.2, rng=substream(3, 5))
        ms = MatrixSum(problem.constraints[:stores], rank=2)
        per_draw = sketch._DRAW_BYTES + sketch._DRAW_BYTES_PER_STORE * stores
        p = sketch.MAX_SKETCH_BYTES // per_draw
        with pytest.raises(ConfigError, match="draw arrays"):
            build_sketch(ms, SketchParams(p=p + 1, gamma=1e-6), substream(37, 1))
        # numpy imports numpy.ma (about 1 MB) on the first sketch.
        build_sketch(ms, SketchParams(p=20, gamma=1e-6), substream(37, 1))
        tracemalloc.start()
        try:
            build_sketch(ms, SketchParams(p=p, gamma=1e-6), substream(37, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sketch.MAX_SKETCH_BYTES

    def test_core_wider_than_svd_cap_rejected(self, monkeypatch):
        from sdpsketch.errors import ConfigError

        # The core check fires before linalg.svd's own ValueError.
        ms = MatrixSum([random_low_rank(32, 2, substream(29, 1))], rank=2)
        monkeypatch.setattr(linalg, "MAX_DENSE_DIM", 20)
        with pytest.raises(ConfigError, match="and 20 per side"):
            build_sketch(ms, SketchParams(p=400, gamma=1e-6), substream(29, 2))


class TestRowSampling:
    def test_reported_probabilities_are_exact(self):
        ms = two_summands()
        rows, probs = sample_rows(ms, 50, substream(3, 1))
        total = ms.total_mass()
        for t in range(50):
            mass = sum(s.row_masses(rows[t : t + 1])[0] for s in ms.summands)
            assert probs[t] == mass / total

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

    def test_column_frequencies_match_mixture(self):
        # tau = 3: one store twice plus a negated one.  Given the sampled
        # rows i_s, a column draw has the exact law
        # (1/p) sum_s sum_t c_t |A_t(i_s, j)|^2 / sum_t c_t ||A_t(i_s, .)||^2.
        n, p = 10, 20_000
        a = random_low_rank(n, 2, substream(40, 1))
        b = random_low_rank(n, 1, substream(40, 2))
        ms = MatrixSum([a, a, NegatedView(b)], rank=2)
        rows, _ = sample_rows(ms, p, substream(40, 3))
        cols = sample_cols(ms, rows, p, substream(40, 4))
        sq = sum(np.abs(dense_realize(MatrixSum([s], rank=1))) ** 2 for s in ms.summands)
        law = (sq[rows] / sq[rows].sum(axis=1, keepdims=True)).mean(axis=0)
        assert np.all(law > 0)
        counts = np.bincount(cols, minlength=n)
        chi2 = float(((counts - p * law) ** 2 / (p * law)).sum())
        # The 0.999 quantile of chi-square with n - 1 = 9 degrees of freedom.
        assert chi2 < 27.88

    def test_zero_mass_row_raises(self):
        ms = MatrixSum([build({(0, 0): 1.0}, 3), build({(0, 1): 2.0}, 3)], rank=1)
        with pytest.raises(ZeroMassError, match="row 2 has zero mass"):
            sample_cols(ms, np.full(4, 2), 4, substream(8, 2))

    def test_sample_cols_requires_matching_length(self):
        ms = two_summands()
        with pytest.raises(ShapeError):
            sample_cols(ms, np.zeros(3, dtype=np.int64), 5, substream(8, 1))

    def test_vector_draws_equal_sequential_loop(self):
        # One draw at a time: a uniform picks the store by count times
        # squared Frobenius norm, the next uniform a row of that store.
        a = random_low_rank(7, 2, substream(12, 1))
        b = random_low_rank(7, 1, substream(12, 2))
        ms = MatrixSum([a, b, NegatedView(a), a, NegatedView(b)], rank=2)
        rows, probs = sample_rows(ms, 300, substream(12, 3))
        rng = substream(12, 3)
        stores, counts = [a, b], [3, 2]
        masses = np.cumsum([c * s.frobenius_norm() ** 2 for s, c in zip(stores, counts)])
        want, picked = [], set()
        for _ in range(300):
            k = int(np.searchsorted(masses, rng.random() * masses[-1], side="right"))
            picked.add(k)
            want.append(int(stores[k].rows_at(np.array([rng.random()]))[0]))
        assert picked == {0, 1}
        assert np.array_equal(rows, want)
        assert np.array_equal(probs, ms.row_masses(want) / ms.total_mass())

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
            prob = float(ms.row_masses([i])[0]) / ms.total_mass()
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
                float(np.dot(scale, s.row_masses(rows)))
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
        d = v.rows.shape[0]
        assert np.all(np.diff(v.rows) > 0)
        assert v.row_probs.shape == v.counts.shape == (d,)
        assert v.p == v.counts.sum() == 80
        assert 1 <= v.r_tilde <= ms.tau * ms.rank
        assert v.left_vectors.shape == (d, v.r_tilde)
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
                ms, v.rows, np.zeros_like(v.row_probs), v.counts,
                v.singular_values, v.left_vectors,
            )
        with pytest.raises(InternalError):
            BasisSketch(
                ms, v.rows, v.row_probs, 0 * v.counts,
                v.singular_values, v.left_vectors,
            )
        with pytest.raises(ShapeError):
            BasisSketch(
                ms, v.rows, v.row_probs, v.counts,
                v.singular_values, v.left_vectors[:-1],
            )
        with pytest.raises(ShapeError):
            BasisSketch(
                ms, v.rows[::-1], v.row_probs, v.counts,
                v.singular_values, v.left_vectors,
            )


def pxp_core(ms, rows, row_probs, cols):
    """The p-by-p rescaled core and its summand mass, one summand at a time."""
    p = rows.shape[0]
    sq = np.zeros((p, p))
    vals = np.zeros((p, p), dtype=np.complex128)
    for s in ms.summands:
        g = dense_store(s)[np.ix_(rows, cols)]
        vals += g
        sq += np.abs(g) ** 2
    row_mass = ms.row_masses(rows)
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
        # The p-form rows, probabilities and left vectors, in sorted order.
        order = np.argsort(rows, kind="stable")
        assert np.array_equal(np.repeat(v.rows, v.counts), rows[order])
        assert np.array_equal(np.repeat(v.row_probs, v.counts), probs[order])
        assert np.array_equal(seen[0], cols)
        k = v.r_tilde
        # A + B + A - A has two stores with coef != 0, so rank at most 2 x 2.
        assert k == int((ref_sigma[: 2 * ms.rank] ** 2 >= gamma * core_mass).sum())
        assert np.allclose(v.singular_values, ref_sigma[:k], rtol=1e-10, atol=0)
        ref_proj = ref_u[order, :k] @ ref_u[order, :k].conj().T
        left = np.repeat(v.left_vectors / np.sqrt(v.counts)[:, np.newaxis], v.counts, axis=0)
        proj = left @ left.conj().T
        assert np.abs(proj - ref_proj).max() <= 1e-10
        # A floor between the second and third squared values keeps two,
        # which holds only if the core mass matches too.
        gamma = ref_sigma[1] * ref_sigma[2] / core_mass
        v = build_sketch(ms, SketchParams(p=120, gamma=gamma), substream(33, 1))
        assert v.r_tilde == 2

    def test_basis_rows_match_p_form(self):
        ms = repeated_sum(cancel=False)
        v = build_sketch(ms, SketchParams(p=120, gamma=1e-12), substream(34, 1))
        assert v.rows.shape[0] < v.p
        # Each distinct row repeated by its count, with left vectors
        # u / sqrt(count): the p sampled rows of the sketch.
        rows = np.repeat(v.rows, v.counts)
        scale = 1.0 / np.sqrt(v.p * np.repeat(v.row_probs, v.counts))
        left = np.repeat(v.left_vectors / np.sqrt(v.counts)[:, np.newaxis], v.counts, axis=0)
        dense = dense_realize(ms)
        for i in range(ms.n):
            mirror = np.conj(dense[rows, i])
            expect = (mirror * scale) @ left / v.singular_values
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

    def test_holds_no_p_length_array(self):
        ms = MatrixSum([random_low_rank(32, 2, substream(35, 1))], rank=2)
        v = build_sketch(ms, SketchParams(p=5000, gamma=1e-6), substream(35, 2))
        v.fill(v.support())
        held = [a for a in vars(v).values() if isinstance(a, np.ndarray)]
        assert len(held) == 9
        assert all(v.p not in a.shape for a in held)

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


class TestKeptScales:
    def test_filter_keeps_more_at_a_larger_multiple(self):
        """Scaling every count by c scales sigma by c but the summand mass the
        filter compares sigma^2 to only by c, so a direction dropped at c = 1
        can be kept at c = 2; `kept_scales` says where the choice holds."""
        a = random_low_rank(16, 2, substream(96, 1))
        probe = build_sketch(MatrixSum([a], rank=2), SketchParams(p=300, gamma=1e-12),
                             substream(96, 2))
        assert probe.r_tilde == 2
        floor = probe.kept_scales[0] * probe.singular_values[-1] ** 2
        # A filter floor of 1.5 sigma_2^2: dropped at c = 1, kept at c = 2.
        gamma = 1e-12 * 1.5 * probe.singular_values[-1] ** 2 / floor
        params = SketchParams(p=300, gamma=gamma)
        one = build_sketch(MatrixSum([a], rank=2), params, substream(96, 2))
        two = build_sketch(MatrixSum([a, a], rank=2), params, substream(96, 2))
        assert (one.r_tilde, two.r_tilde) == (1, 2)
        lo, hi = one.kept_scales
        assert lo <= 1.0 < hi < 2.0
        assert hi == pytest.approx(1.5)
        np.testing.assert_allclose(two.singular_values[:1], 2 * one.singular_values)
        np.testing.assert_array_equal(two.rows, one.rows)
