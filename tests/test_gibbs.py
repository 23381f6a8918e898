"""Gibbs-weighted candidate: normalization, queries, and trace estimates."""

import tracemalloc

import numpy as np
import pytest

from sdpsketch import linalg
from sdpsketch.errors import ShapeError
from sdpsketch.gibbs import (
    GibbsDescription,
    estimate_constraint_trace,
    make_gibbs,
)
from sdpsketch.instances import random_low_rank, random_matrix_sum
from sdpsketch.oracle import dense_basis, dense_realize, dense_solution, dense_store
from sdpsketch.rng import substream
from sdpsketch.sketch import BasisSketch, MatrixSum, SketchParams, build_sketch
from sdpsketch.spectral import SpectralSurrogate, decompose, estimate_vav
from sdpsketch.store import NegatedView, SampledMatrix
from sdpsketch.trace import EstimatorConfig, estimate_trace_product


def candidate(n=16, tau=1, rank=2, p=120, beta=1.0, seed=60):
    ms = random_matrix_sum(n, tau=tau, rank=rank, rng=substream(seed, 1))
    v = build_sketch(ms, SketchParams(p=p, gamma=1e-6), substream(seed, 2))
    core = estimate_vav(v, ms, eps_s=0.2 * v.r_tilde, delta=0.05,
                        rng=substream(seed, 3))
    return ms, make_gibbs(v, decompose(core, basis=v), beta=beta)


def surrogate_with(d):
    d = np.asarray(d, dtype=float)
    return SpectralSurrogate(u=np.eye(d.shape[0], dtype=complex), d=d)


def queried(g):
    """Every entry of the candidate, as its queries answer them."""
    return np.array([[g.query(i, j) for j in range(g.n)] for i in range(g.n)])


class Untouchable:
    """A stand-in stream that fails on any attribute read."""

    def __getattribute__(self, name):
        raise AssertionError(f"stream attribute {name!r} read")


def weighted_basis(v, w):
    """V diag(w / sum w) V^dagger on the materialized basis (U = I)."""
    vd = dense_basis(v)
    return (vd * (np.asarray(w) / np.sum(w))) @ vd.conj().T


class TestBatchIndependentQueries:
    def test_query_after_bulk_fill_equals_fresh_candidate(self):
        ms = random_matrix_sum(20, tau=3, rank=2, rng=substream(64, 1))
        v = build_sketch(ms, SketchParams(p=150, gamma=1e-6), substream(64, 2))
        core = estimate_vav(v, ms, eps_s=0.2 * v.r_tilde, delta=0.05, rng=substream(64, 3))
        s = decompose(core, basis=v)
        g = make_gibbs(v, s, beta=1.5)
        # One batch over the whole support, then a sampled bulk read.
        g.frobenius_norm()
        pairs = np.random.default_rng(64).integers(20, size=(40, 2))
        g.bulk_entries(pairs[:, 0], pairs[:, 1])
        for i, j in pairs.tolist():
            assert make_gibbs(v, s, beta=1.5).query(i, j) == g.query(i, j)


def wide_round(n, seed=65):
    """A round's sketch, compression and candidate on 12 coordinates of n.

    The coordinates and values do not depend on n, except that the last
    coordinate is n - 1.
    """
    rng = substream(seed, 1)
    coords = np.append(np.sort(rng.choice(900, 11, replace=False)), n - 1)
    stores = []
    for block in (random_low_rank(12, 2, rng) for _ in range(2)):
        a, b, vals = block.entries()
        stores.append(SampledMatrix(coords[a], coords[b], vals, n, 2))
    ms = MatrixSum([stores[0], NegatedView(stores[1]), stores[0]], rank=2)
    v = build_sketch(ms, SketchParams(p=80, gamma=1e-9), substream(seed, 2))
    core = estimate_vav(v, ms, eps_s=0.5 * v.r_tilde * ms.tau, delta=0.1,
                        rng=substream(seed, 3))
    return v, decompose(core, basis=v), coords


def arrow_round(width):
    """A one-direction round whose basis support is width rows.

    The store couples row 0 with each of rows 1..width, and row 0 is the
    basis's one sampled row, so its support is rows 1..width.
    """
    entries = [(0, j, 1.0 / np.sqrt(width)) for j in range(1, width + 1)]
    ms = MatrixSum([SampledMatrix.build(entries, width + 1, 2)], rank=2)
    v = BasisSketch(ms, [0], [1.0], [1], [1.0], [[1.0 + 0j]])
    return v, surrogate_with([0.5])


class TestWideCandidate:
    """The basis table holds |support| + 1 rows, whatever n; the candidate none."""

    @pytest.mark.parametrize("n", [1000, 10**7])
    def test_row_caches_sized_by_support(self, n):
        wide_round(n)  # first-call allocations (imports, LAPACK set-up)
        tracemalloc.start()
        try:
            v, s, coords = wide_round(n)
            g = make_gibbs(v, s, beta=1.0)
            g.query(int(coords[0]), 0)
            g.bulk_entries(np.array([0, n - 1, 3]), coords[:3])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        shape = (v.support().shape[0] + 1, v.r_tilde)
        assert v.table.shape == shape
        assert v._filled.shape == shape[:1]
        # One n-row complex array alone would take 16 n bytes.
        assert peak < 1e6

    def test_make_gibbs_allocates_no_row_table(self):
        """Assembling a candidate allocates its core, not a row per support row."""
        v, s = arrow_round(2500)
        assert v.support().shape[0] == 2500
        make_gibbs(v, s, beta=1.0)  # first-call allocations
        tracemalloc.start()
        try:
            make_gibbs(v, s, beta=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One complex128 value per support row alone would take 40 KB.
        assert peak < 8 << 10

    def test_fresh_query_equals_query_after_bulk_fill(self):
        n = 10**7
        v, s, coords = wide_round(n)
        g = make_gibbs(v, s, beta=1.5)
        rng = np.random.default_rng(65)
        # Support rows, and rows off it before, between and after them.
        pick = np.concatenate([coords, [0, coords[0] + 1, n // 2, n - 2]])
        pairs = rng.choice(pick, size=(60, 2))
        g.bulk_entries(pairs[:, 0], pairs[:, 1])
        g.frobenius_norm()
        for i, j in pairs.tolist():
            assert make_gibbs(v, s, beta=1.5).query(i, j) == g.query(i, j)
        on = np.isin(pairs, v.support()).all(axis=1)
        assert on.any() and not on.all()


class TestNormalizer:
    def test_frozen_two_level_value(self):
        ms, g = candidate(beta=0.0, seed=61)
        assert g.r_tilde == 2
        two = GibbsDescription(
            n=g.n, beta=np.log(2.0), basis=g.basis,
            surrogate=surrogate_with([1.0, -1.0]),
        )
        # exp(-log 2) and exp(+log 2), 0.5 and 2, normalize to 0.2 and 0.8.
        want = weighted_basis(g.basis, [0.2, 0.8])
        np.testing.assert_allclose(queried(two), want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(dense_solution(two), want, rtol=0, atol=1e-13)

    def test_extreme_exponents_stay_finite_internally(self):
        ms, g = candidate(beta=0.0, seed=62)
        assert g.r_tilde == 2
        wide = GibbsDescription(
            n=g.n, beta=1.0, basis=g.basis,
            surrogate=surrogate_with([1e5, -1e5]),
        )
        # exp(-1e5) and exp(+1e5) overflow unscaled; their ratio leaves
        # all the weight on the second direction.
        want = weighted_basis(g.basis, [0.0, 1.0])
        got = queried(wide)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        assert wide.frobenius_norm() == pytest.approx(np.linalg.norm(want), rel=1e-10)

    def test_beta_zero_weights_all_directions_equally(self):
        ms, g = candidate(beta=0.0, seed=63)
        # U is unitary, so equal weights leave V V^dagger / r_tilde.
        want = weighted_basis(g.basis, np.ones(g.r_tilde))
        np.testing.assert_allclose(queried(g), want, rtol=0, atol=1e-13)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            GibbsDescription(n=4, beta=-0.5, basis=None, surrogate=None)

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_non_finite_beta_rejected(self, beta):
        _, g = candidate(seed=63)
        with pytest.raises(ValueError, match="finite"):
            make_gibbs(g.basis, g.surrogate, beta=beta)
        with pytest.raises(ValueError, match="finite"):
            GibbsDescription(n=4, beta=beta, basis=None, surrogate=None)


class TestUniformFallback:
    def test_entries(self):
        g = GibbsDescription.uniform(5)
        assert g.uniform_fallback and g.r_tilde == 0
        assert g.query(2, 2) == complex(0.2)
        assert g.query(0, 3) == 0j
        assert g.query(4, 4) == complex(0.2)

    def test_norms_and_trace(self):
        g = GibbsDescription.uniform(4)
        assert g.frobenius_norm() == pytest.approx(0.5)
        np.testing.assert_array_equal(queried(g), np.eye(4) / 4)

    def test_trace_against_store(self):
        a = random_low_rank(8, 2, substream(64, 1))
        g = GibbsDescription.uniform(8)
        got = estimate_constraint_trace(g, a, eps=0.05, delta=0.05,
                                        rng=substream(64, 2))
        want = np.trace(dense_realize(MatrixSum([a], rank=2))).real / 8
        assert got == a.trace() / 8
        assert got == pytest.approx(want, rel=0, abs=1e-15)
        assert estimate_constraint_trace(g, NegatedView(a), 0.05, 0.05, None) == -got

    def test_trace_above_the_plan_reads_no_stream(self):
        """Tr[A I/n] = Tr(A)/n exactly, though the store is above its plan."""
        n, eps, delta = 64, 0.5, 0.1
        a = random_low_rank(n, 2, substream(64, 3))
        cfg = EstimatorConfig(eps=eps / 5.0, delta=delta)
        assert a.nnz > cfg.batch_count() * cfg.batch_size(a.total_mass(), 1.0 / n)
        before = a.touches
        got = estimate_constraint_trace(GibbsDescription.uniform(n), a, eps, delta, Untouchable())
        assert got == a.trace() / n
        assert a.touches == before

    def test_bad_arguments_rejected(self):
        a = random_low_rank(8, 2, substream(64, 4))
        with pytest.raises(ShapeError):
            estimate_constraint_trace(GibbsDescription.uniform(9), a, 0.05, 0.05, None)
        for eps, delta in ((0.0, 0.05), (0.05, 1.0)):
            with pytest.raises(ValueError):
                estimate_constraint_trace(GibbsDescription.uniform(8), a, eps, delta, None)

    def test_no_entry_oracle(self):
        """Nothing estimates against I/n, so it answers no bulk read."""
        with pytest.raises(ShapeError):
            GibbsDescription.uniform(4).bulk_entries(np.array([0]), np.array([0]))

    def test_out_of_range_query(self):
        g = GibbsDescription.uniform(3)
        with pytest.raises(IndexError):
            g.query(3, 0)


class TestAssembly:
    def test_empty_eigensystem_rejected(self):
        _, g = candidate(seed=65)
        # A basis keeps at least one direction, so no basis pairs with
        # the empty eigensystem; the uniform candidate has no basis.
        hollow = decompose(np.zeros((0, 0)), basis=g.basis)
        assert hollow.r_tilde == 0
        with pytest.raises(ShapeError):
            make_gibbs(g.basis, hollow, beta=2.0)

    def test_size_mismatch_rejected(self):
        _, g = candidate(seed=66)
        if g.r_tilde < 2:
            pytest.skip("needs at least two kept directions")
        with pytest.raises(ShapeError):
            make_gibbs(g.basis, surrogate_with(np.zeros(g.r_tilde + 1)), 1.0)


class TestQueriesAgainstDense:
    def test_entries_match_materialized_candidate(self):
        _, g = candidate(seed=67)
        rho = dense_solution(g)
        for i, j in [(0, 0), (3, 5), (5, 3), (15, 15), (2, 9)]:
            assert g.query(i, j) == pytest.approx(complex(rho[i, j]), abs=1e-10)

    def test_conjugate_symmetry_is_exact(self):
        _, g = candidate(seed=68)
        for i, j in [(1, 4), (0, 7), (6, 2)]:
            assert g.query(i, j) == g.query(j, i).conjugate()

    def test_frobenius_matches_dense(self):
        _, g = candidate(seed=69)
        rho = dense_solution(g)
        assert g.frobenius_norm() == pytest.approx(
            float(np.linalg.norm(rho)), rel=1e-10
        )

    def test_near_unit_trace_at_moderate_budget(self):
        _, g = candidate(p=200, seed=70)
        tr = sum(g.query(i, i).real for i in range(g.n))
        assert abs(tr - 1.0) <= 0.25

    def test_bulk_operator_agrees_with_entry_queries(self):
        _, g = candidate(seed=71)
        rows = np.array([0, 3, 5, 5, 12])
        cols = np.array([1, 3, 0, 5, 9])
        bulk = g.bulk_entries(rows, cols)
        singles = np.array([g.query(int(i), int(j)) for i, j in zip(rows, cols)])
        assert np.allclose(bulk, singles, atol=1e-13)

    def test_bulk_entries_with_repeats_lazy_and_filled(self, monkeypatch):
        """A fresh basis fills no row until the first bulk read, which fills each support row once."""
        _, g = candidate(seed=74)
        v = g.basis
        basis = BasisSketch(v.ms, v.rows, v.row_probs, v.counts,
                            v.singular_values, v.left_vectors)
        fresh = GibbsDescription(n=g.n, beta=g.beta, basis=basis,
                                 surrogate=g.surrogate)
        # No row is filled yet but the trailing zero row.
        assert np.flatnonzero(basis._filled).tolist() == [basis._filled.shape[0] - 1]
        built = []
        original = BasisSketch.rows_dense

        def counted(self, indices):
            built.extend(np.asarray(indices).tolist())
            return original(self, indices)

        monkeypatch.setattr(BasisSketch, "rows_dense", counted)
        rows = np.array([0, 3, 5, 5, 12, 3, 0, 15, 5])
        cols = np.array([1, 3, 0, 5, 9, 3, 1, 0, 12])
        bulk = fresh.bulk_entries(rows, cols)
        assert basis._filled.all()
        assert sorted(built) == basis.support().tolist()
        again = fresh.bulk_entries(rows, cols)
        assert sorted(built) == basis.support().tolist()
        monkeypatch.undo()
        singles = np.array([g.query(int(i), int(j)) for i, j in zip(rows, cols)])
        assert np.allclose(bulk, singles, atol=1e-13)
        assert np.array_equal(bulk[[0, 1]], bulk[[6, 5]])
        assert np.array_equal(again, bulk)
        assert np.array_equal(g.bulk_entries(rows, cols), bulk)


class TestTraceEstimates:
    def test_constraint_trace_matches_dense(self):
        ms, g = candidate(seed=72)
        a = random_low_rank(16, 2, substream(72, 5))
        got = estimate_constraint_trace(g=g, a=a, eps=0.15, delta=0.05,
                                        rng=substream(72, 6))
        rho = dense_solution(g)
        want = float(
            np.trace(dense_realize(MatrixSum([a], rank=2)) @ rho).real
        )
        assert got == pytest.approx(want, abs=0.15)

    def test_estimate_is_real_and_deterministic(self):
        ms, g = candidate(seed=73)
        a = ms.summands[0]
        x = estimate_constraint_trace(g, a, 0.2, 0.05, substream(73, 5))
        y = estimate_constraint_trace(g, a, 0.2, 0.05, substream(73, 5))
        assert isinstance(x, float)
        assert x == y


class TestOneEntryFormula:
    def test_query_has_the_bits_of_the_bulk_entry(self):
        """For i <= j a query is the entry a bulk read returns; for i > j its conjugate."""
        _, g = candidate(n=20, tau=3, seed=75)
        assert g.r_tilde > 1
        rows, cols = np.triu_indices(g.n)
        bulk = g.bulk_entries(rows, cols)
        for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
            fresh = make_gibbs(g.basis, g.surrogate, beta=g.beta)
            assert fresh.query(i, j) == bulk[k] == g.bulk_entries([i], [j])[0]
            if i < j:
                assert fresh.query(j, i) == bulk[k].conjugate()
        assert np.any(bulk.imag != 0)

    def test_diagonal_is_real(self):
        """rho is Hermitian: no diagonal entry keeps an imaginary rounding residue."""
        _, g = candidate(n=20, tau=3, seed=75)
        diag = np.arange(g.n)
        assert np.all(g.bulk_entries(diag, diag).imag == 0)
        fresh = make_gibbs(g.basis, g.surrogate, beta=g.beta)
        assert [fresh.query(i, i).imag for i in range(g.n)] == [0.0] * g.n


class TestExactConstraintTrace:
    """Checks against a store no larger than its plan: Re Tr[K V^dagger A V]."""

    @pytest.mark.parametrize("tau, rank", [(1, 1), (1, 2), (1, 3), (2, 2)])
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_equals_the_direct_sum_over_stored_entries(self, seed, tau, rank):
        """r_tilde 1-4, with a store, a negated view and a shadow pair E, -E:
        within 1e-14 ||A||_F ||rho||_F of sum A(i, j) rho(j, i) over the
        stored entries, and -E reads E's compression, negated."""
        n, eps, delta = 16, 0.05, 0.1
        _, g = candidate(n=n, tau=tau, rank=rank, p=200, seed=80 + seed)
        assert g.r_tilde == tau * rank
        a = random_low_rank(n, 2, substream(80 + seed, 5))
        e = random_low_rank(n, 1, substream(80 + seed, 6))
        rho_fro = g.frobenius_norm()
        for store in (a, NegatedView(a), e, NegatedView(e)):
            rows, cols, vals = store.entries()
            want = float(np.sum(vals * g.bulk_entries(cols, rows)).real)
            got = estimate_constraint_trace(g, store, eps, delta, Untouchable())
            assert abs(got - want) <= 1e-14 * store.frobenius_norm() * rho_fro
        touched = e.touches
        pair = [estimate_constraint_trace(g, s, eps, delta, Untouchable())
                for s in (e, NegatedView(e))]
        assert e.touches == touched
        assert pair[1] == -pair[0]

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_store_above_its_plan_keeps_the_sampled_value(self, seed):
        """The check is the sampled trace against the candidate, bit for bit,
        and forms no compression."""
        n, eps, delta = 64, 0.9, 0.3
        _, g = candidate(n=n, tau=2, rank=2, p=120, beta=1.0, seed=seed)
        a = random_low_rank(n, 2, substream(seed, 5))
        got = estimate_constraint_trace(g, a, eps, delta, substream(seed, 7))
        cfg = EstimatorConfig(eps=eps / 5, delta=delta)
        want = estimate_trace_product(a, g, cfg, substream(seed, 7))
        assert isinstance(want, complex) and got == want.real
        assert id(a) not in g.basis._compressions


class TestClosedForms:
    """The norm and exact checks read in the eigensystem's coordinates equal
    the r_tilde x r_tilde formulas on the core K that they replace."""

    @pytest.mark.parametrize(
        "tau, rank, p, seed",
        [(1, 1, 200, 70), (1, 2, 200, 70), (1, 3, 200, 71), (2, 2, 200, 70),
         (1, 5, 200, 71), (2, 3, 200, 70), (1, 3, 8, 71), (2, 2, 8, 70), (2, 3, 8, 71)],
        ids=["r1", "r2", "r3", "r4", "r5", "r6", "r3-small-p", "r4-small-p", "r6-small-p"],
    )
    def test_equal_the_core_formulas(self, tau, rank, p, seed):
        """r_tilde 1-6; at p = 8 the basis is far from orthonormal
        (max |G - I| above 1), so G is not the identity in either form."""
        n = 16
        _, g = candidate(n=n, tau=tau, rank=rank, p=p, seed=seed)
        assert g.r_tilde == tau * rank
        gram = g.basis.gram()
        if p == 8:
            assert np.abs(gram - np.eye(g.r_tilde)).max() > 1.0
        norm = g.frobenius_norm()
        assert "_core" not in g.__dict__
        k = g._core
        assert abs(norm - np.sqrt(np.trace(k @ gram @ k.conj().T @ gram).real)) <= 1e-12
        a = random_low_rank(n, 2, substream(seed, 5))
        e = random_low_rank(n, 1, substream(seed, 6))
        for store in (a, NegatedView(a), e, NegatedView(e)):
            got = estimate_constraint_trace(g, store, 0.05, 0.1, Untouchable())
            assert abs(got - np.vdot(k, g.basis.compression(store)).real) <= 1e-12

    @pytest.mark.parametrize("n", [16, 128, 512])
    def test_fro_bound_dominates_the_dense_norm(self, n):
        for seed in range(1, 4):
            _, g = candidate(n=n, tau=2, rank=2, p=200, seed=90 + seed)
            assert np.linalg.norm(dense_solution(g)) <= g.fro_bound


class TestSampledConstraintTrace:
    """Constraint checks that draw: a dense rank-2 store above its sampling plan."""

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_sampled_estimate_within_budget_and_repeatable(self, seed, monkeypatch):
        n, eps, delta = 64, 0.9, 0.3
        _, g = candidate(n=n, tau=2, rank=2, p=120, beta=1.0, seed=seed)
        constraints = [random_low_rank(n, 2, substream(seed, 5 + k)) for k in range(2)]
        formed, draws = [], []
        real_matmul, real_sample = linalg.rowwise_matmul, SampledMatrix.sample_entries

        def matmul(a, b):
            if b is g._core and a.shape[0] == g.basis.table.shape[0]:
                formed.append(a.shape[0])
            return real_matmul(a, b)

        def sample(self, u):
            out = real_sample(self, u)
            draws.append(out[0].shape[0])
            return out

        monkeypatch.setattr(linalg, "rowwise_matmul", matmul)
        monkeypatch.setattr(SampledMatrix, "sample_entries", sample)
        rho = dense_solution(g)
        for k, a in enumerate(constraints):
            got = []
            for _ in range(2):
                draws.clear()
                got.append(estimate_constraint_trace(g, a, eps, delta, substream(seed, 7, k)))
                assert sum(draws) > 0
            want = float(np.trace(dense_store(a) @ rho).real)
            assert got[0] == got[1]
            assert abs(got[0] - want) <= eps / 5
        # Two constraints, two passes each: one V K over the candidate's table.
        assert len(formed) == 1
