"""Trace-product estimator: exact expectation, variance bound, guarantees."""
import math

import numpy as np
import pytest

from sdpsketch import rng as rngmod
from sdpsketch import trace as tracemod
from sdpsketch.errors import ShapeError, ZeroMassError
from sdpsketch.gibbs import make_gibbs
from sdpsketch.instances import planted_infeasible, random_matrix_sum
from sdpsketch.oracle import dense_store
from sdpsketch.sketch import SketchParams, build_sketch
from sdpsketch.solver import SolverConfig
from sdpsketch.solver import test_feasibility as run_feasibility
from sdpsketch.spectral import decompose, estimate_vav
from sdpsketch.store import NegatedView, SampledMatrix
from sdpsketch.trace import (
    EstimatorConfig,
    QueryableOperator,
    _sampled_trace_product,
    estimate_trace_product,
)


def hermitian_store(n: int, key: int) -> SampledMatrix:
    rng = rngmod.substream(key, rngmod.INSTANCE, 100)
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense = dense + dense.conj().T
    dense /= np.linalg.norm(dense, 2)
    return SampledMatrix.from_dense(dense, rank_hint=n)


def oracle_from_dense(arr: np.ndarray) -> QueryableOperator:
    return QueryableOperator(
        n=arr.shape[0],
        bulk_entries=lambda rows, cols: arr[rows, cols],
        fro_bound=float(np.linalg.norm(arr)),
    )


def random_operator(n: int, key: int) -> QueryableOperator:
    rng = rngmod.substream(key, rngmod.INSTANCE, 104)
    arr = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return oracle_from_dense(arr / np.linalg.norm(arr, 2))


def random_stack(n: int, key: int, width: int) -> QueryableOperator:
    """A stack of ``width`` random operands, the draw axis last, bounded by
    the largest of their norms."""
    rng = rngmod.substream(key, rngmod.INSTANCE, 105)
    arr = rng.standard_normal((width, n, n)) + 1j * rng.standard_normal((width, n, n))
    return QueryableOperator(
        n=n,
        bulk_entries=lambda rows, cols: arr[:, rows, cols],
        fro_bound=float(np.linalg.norm(arr, axis=(1, 2)).max()),
        stack=(width,),
    )


def component(stack: QueryableOperator, k: int) -> QueryableOperator:
    """Component k of a stack as a scalar operand, under the stack's bound."""
    return QueryableOperator(
        n=stack.n,
        bulk_entries=lambda rows, cols: stack.bulk_entries(rows, cols)[k],
        fro_bound=stack.fro_bound,
    )


def plan(store, b: QueryableOperator, cfg: EstimatorConfig) -> tuple[int, int]:
    """Batch count and batch size of the estimator's sampling plan."""
    a_fro = store.frobenius_norm()
    return cfg.batch_count(), cfg.batch_size(a_fro * a_fro, b.fro_bound**2)


def planned_draws(store, b: QueryableOperator, cfg: EstimatorConfig) -> int:
    count, size = plan(store, b, cfg)
    return count * size


def sampled(store, b: QueryableOperator, cfg: EstimatorConfig, rng) -> complex:
    """The sampled estimate under the estimator's own plan."""
    return _sampled_trace_product(store, b, *plan(store, b, cfg), rng)


class CountingStore:
    """Store view that reports a chosen entry count and counts its draws
    and sampling calls."""

    def __init__(self, base, nnz: int):
        self.base = base
        self.n = base.n
        self.nnz = nnz
        self.draws = 0
        self.calls = 0

    def frobenius_norm(self) -> float:
        return self.base.frobenius_norm()

    def total_mass(self) -> float:
        return self.base.total_mass()

    def entries(self):
        return self.base.entries()

    def sample_entries(self, u):
        self.draws += len(u)
        self.calls += 1
        return self.base.sample_entries(u)


def enumerated_expectation(store: SampledMatrix, arr: np.ndarray) -> complex:
    """E[single sample] summed entry by entry over the sampling law.

    P(i, j) * B(j, i) ||A||_F^2 / conj(A(i, j)) collapses to
    B(j, i) A(i, j); summing over the support gives Tr[A B] exactly.
    Computed here from the stored entries, independent of the estimator.
    """
    total = 0j
    for i in range(store.n):
        cols, vals = store.row_support(i)
        for j, v in zip(cols, vals):
            total += complex(arr[int(j), i]) * complex(v)
    return total


class TestConfig:
    def test_frozen_budget_values(self):
        cfg = EstimatorConfig(eps=0.1, delta=0.01)
        assert cfg.batch_count() == 83  # ceil(18 ln 100)
        assert cfg.batch_size(2.0, 3.0) == 3600  # ceil(6 * 2 * 3 / 0.01)

    def test_minimums(self):
        cfg = EstimatorConfig(eps=10.0, delta=0.5)
        assert cfg.batch_count() >= 1
        assert cfg.batch_size(1e-8, 1e-8) >= 1

    def test_validation(self):
        with pytest.raises(Exception):
            EstimatorConfig(eps=0.0, delta=0.1)
        with pytest.raises(Exception):
            EstimatorConfig(eps=0.1, delta=1.5)


class TestExactExpectation:
    def test_diag_signs_cancel_exactly(self):
        store = SampledMatrix.build([(0, 0, 1.0), (1, 1, -1.0)], n=2, rank_hint=2)
        expectation = enumerated_expectation(store, np.eye(2, dtype=complex))
        assert expectation == 0j

    def test_diag_products(self):
        store = SampledMatrix.build([(0, 0, 1.0), (1, 1, 2.0)], n=2, rank_hint=2)
        b = np.diag([3.0, 5.0]).astype(complex)
        assert enumerated_expectation(store, b) == 13.0 + 0j

    def test_random_fixture_matches_dense_trace(self):
        store = hermitian_store(6, 7)
        rng = rngmod.substream(8, rngmod.INSTANCE, 101)
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        expectation = enumerated_expectation(store, b)
        truth = np.trace(dense_store(store) @ b)
        assert abs(expectation - truth) <= 1e-12 * max(1.0, abs(truth))


class TestEstimator:
    """Stores this small are summed exactly, so sampling is tested directly."""

    def test_unbiased_and_within_eps(self):
        store = hermitian_store(8, 9)
        dense_a = dense_store(store)
        rng = rngmod.substream(10, rngmod.INSTANCE, 102)
        arr = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        arr /= np.linalg.norm(arr, 2)
        truth = complex(np.trace(dense_a @ arr))
        b = oracle_from_dense(arr)
        cfg = EstimatorConfig(eps=0.2, delta=0.05)
        hits = 0
        for trial in range(50):
            est = sampled(store, b, cfg, rngmod.substream(trial, rngmod.TRACE, 0, 0))
            if abs(est - truth) <= 0.2:
                hits += 1
        assert hits >= 48

    def test_single_sample_variance_bound(self):
        store = hermitian_store(8, 11)
        dense_a = dense_store(store)
        rng = rngmod.substream(12, rngmod.INSTANCE, 103)
        arr = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        arr /= np.linalg.norm(arr, 2)
        truth = complex(np.trace(dense_a @ arr))
        a2 = store.total_mass()
        b2 = float(np.linalg.norm(arr)) ** 2
        draws = 200_000
        rows, cols, vals = store.sample_entries(rngmod.substream(0, 5, 0).random((draws, 2)))
        samples = arr[cols, rows] * a2 / np.conj(vals)
        spread = np.mean(np.abs(samples - truth) ** 2)
        assert np.mean(samples) == pytest.approx(truth, abs=4 * math.sqrt(a2 * b2 / draws))
        assert spread <= 1.1 * a2 * b2

    def test_deterministic_under_fixed_stream(self):
        store = hermitian_store(6, 13)
        arr = dense_store(hermitian_store(6, 14))
        b = oracle_from_dense(arr)
        cfg = EstimatorConfig(eps=0.3, delta=0.2)
        first = sampled(store, b, cfg, rngmod.substream(3, 1, 4))
        second = sampled(store, b, cfg, rngmod.substream(3, 1, 4))
        other = sampled(store, b, cfg, rngmod.substream(3, 1, 5))
        assert first == second
        assert first != other

    def test_bits_independent_of_batches_per_pass(self, monkeypatch):
        store = hermitian_store(6, 13)
        scalar = oracle_from_dense(dense_store(hermitian_store(6, 14)))
        count, size = 7, 50
        # One batch per pass, three (passes of 3, 3 and 1), all seven, and
        # a chunk below the batch size, so each batch spans four passes
        # (16 + 16 + 16 + 2 draws).  A pass holds _CHUNK stacked values,
        # so a stack of width w takes _CHUNK / w draws per pass.
        for b, width in ((scalar, 1), (random_stack(6, 14, 3), 3)):
            results = []
            for chunk, calls in ((size, 7), (3 * size, 3), (7 * size, 1), (16, 4 * 7)):
                monkeypatch.setattr(tracemod, "_CHUNK", chunk * width)
                counted = CountingStore(store, store.nnz)
                results.append(
                    _sampled_trace_product(counted, b, count, size, rngmod.substream(3, 1, 4))
                )
                assert counted.calls == calls
                assert counted.draws == count * size
            for other in results[1:]:
                assert np.array_equal(results[0], other)
            assert np.shape(results[0]) == (() if width == 1 else (width,))

    def test_sampled_branch_is_the_sampled_estimate(self):
        # The sampled branch is reached in estimate_trace_product by
        # reporting more entries than the plan draws.
        base = hermitian_store(6, 15)
        b = oracle_from_dense(dense_store(hermitian_store(6, 16)))
        cfg = EstimatorConfig(eps=0.5, delta=0.2)
        store = CountingStore(base, planned_draws(base, b, cfg) + 1)
        est = estimate_trace_product(store, b, cfg, rngmod.substream(0, 1, 6))
        assert store.draws > 0
        assert est == sampled(base, b, cfg, rngmod.substream(0, 1, 6))

    def test_zero_matrix_short_circuits(self):
        store = SampledMatrix.build([], n=4, rank_hint=1)
        b = oracle_from_dense(np.eye(4, dtype=complex))
        cfg = EstimatorConfig(eps=0.5, delta=0.2)
        assert estimate_trace_product(store, b, cfg, rngmod.substream(0, 1, 7)) == 0j

    def test_zero_operator_norm_rejected(self):
        store = hermitian_store(4, 17)
        b = oracle_from_dense(np.zeros((4, 4), dtype=complex))
        cfg = EstimatorConfig(eps=0.5, delta=0.2)
        with pytest.raises(ZeroMassError):
            estimate_trace_product(store, b, cfg, rngmod.substream(0, 1, 8))

    def test_dimension_mismatch_rejected(self):
        store = hermitian_store(4, 18)
        b = oracle_from_dense(np.eye(5, dtype=complex))
        cfg = EstimatorConfig(eps=0.5, delta=0.2)
        with pytest.raises(ShapeError):
            estimate_trace_product(store, b, cfg, rngmod.substream(0, 1, 9))


class TestStackedOperand:
    """A stacked B: one trace per component, from one set of draws."""

    @pytest.mark.parametrize("extra", [0, 1], ids=["exact", "sampled"])
    def test_components_equal_their_scalar_estimates(self, extra):
        """Component k has the bits of the scalar estimate against operand k
        under the same bound, on the same stream: the components share the
        scalar path's draws, sums and medians."""
        base = hermitian_store(6, 30)
        b = random_stack(6, 31, 4)
        cfg = EstimatorConfig(eps=2.0, delta=0.2)
        store = CountingStore(base, planned_draws(base, b, cfg) + extra)
        stacked = estimate_trace_product(store, b, cfg, rngmod.substream(5, 1, 1))
        assert stacked.shape == (4,)
        assert store.draws == extra * planned_draws(base, b, cfg)
        for k in range(4):
            scalar = estimate_trace_product(
                CountingStore(base, store.nnz), component(b, k), cfg, rngmod.substream(5, 1, 1)
            )
            assert stacked[k] == scalar

    def test_exact_sum_passes_hold_at_most_chunk_values(self, monkeypatch):
        """The exact sum reads B in passes of _CHUNK / width entries; a
        component's sum stays within rounding of the one-pass sum."""
        store = hermitian_store(6, 32)
        b = random_stack(6, 33, 3)
        cfg = EstimatorConfig(eps=0.01, delta=0.2)
        whole = estimate_trace_product(store, b, cfg, None)
        reads = []

        def counted(rows, cols):
            reads.append(rows.shape[0])
            return b.bulk_entries(rows, cols)

        monkeypatch.setattr(tracemod, "_CHUNK", 3 * 5)
        split = estimate_trace_product(
            store, QueryableOperator(b.n, counted, b.fro_bound, b.stack), cfg, None
        )
        assert max(reads) == 5 and sum(reads) == store.nnz
        assert np.allclose(split, whole, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("extra", [0, 1], ids=["exact", "sampled"])
    def test_stack_of_one_keeps_the_scalar_bits(self, extra):
        """An operand with one value per draw, the Gibbs candidate's kind,
        gets a plain complex with the scalar formulas' bits; a (1,)-stack
        gets the same bits in an array."""
        ms = random_matrix_sum(8, tau=2, rank=2, rng=rngmod.substream(34, 1))
        v = build_sketch(ms, SketchParams(p=60, gamma=1e-6), rngmod.substream(34, 2))
        core = estimate_vav(v, ms, 0.5, 0.1, rngmod.substream(34, 3))
        g = make_gibbs(v, decompose(core, basis=v), 2.0)
        base = hermitian_store(8, 35)
        cfg = EstimatorConfig(eps=0.5, delta=0.2)
        count, size = plan(base, g, cfg)
        store = CountingStore(base, count * size + extra)
        got = estimate_trace_product(store, g, cfg, rngmod.substream(5, 1, 2))
        assert isinstance(got, complex)
        if extra:
            want = reference_trace_product(base, g, count, size, rngmod.substream(5, 1, 2))
        else:
            rows, cols, vals = base.entries()
            want = complex((vals * g.bulk_entries(cols, rows)).sum())
        assert got == want
        one = QueryableOperator(
            g.n, lambda rows, cols: g.bulk_entries(rows, cols)[np.newaxis], g.fro_bound, (1,)
        )
        stacked = estimate_trace_product(store, one, cfg, rngmod.substream(5, 1, 2))
        assert stacked.shape == (1,) and stacked[0] == want


class RandomOnly:
    """Stand-in stream exposing only `random`, counting its calls and
    uniforms."""

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self.calls = 0
        self.uniforms = 0

    def random(self, shape):
        out = self._gen.random(shape)
        self.calls += 1
        self.uniforms += out.size
        return out


def reference_trace_product(a, b: QueryableOperator, count: int, size: int, rng) -> complex:
    """Median of batch means, with the batches cut batch-major from one
    block of 2 x count x size uniforms and each summed left to right."""
    u = rng.random((count * size, 2))
    a_fro_sq = a.total_mass()
    means = []
    for k in range(count):
        rows, cols, vals = a.sample_entries(u[k * size : (k + 1) * size])
        total = 0j
        for x in b.bulk_entries(cols, rows) * (a_fro_sq / np.conj(vals)):
            total += x
        means.append(total / size)
    means = np.array(means)
    return complex(np.median(means.real), np.median(means.imag))


class TestStreamOrder:
    """Every estimate reads the one stream it is given, in order."""

    @pytest.mark.parametrize("count, size", [(7, 50), (1, 3), (95, 1)])
    def test_sampled_batches_read_the_stream_batch_major(self, count, size):
        store = hermitian_store(6, 26)
        b = random_operator(6, 27)
        stream = RandomOnly(rngmod.substream(4, 1, 13))
        est = _sampled_trace_product(store, b, count, size, stream)
        ref_gen = rngmod.substream(4, 1, 13)
        assert est == reference_trace_product(store, b, count, size, ref_gen)
        assert stream.uniforms == 2 * count * size
        # Nothing past the plan was read.
        assert stream.random(3).tolist() == ref_gen.random(3).tolist()

    def test_vav_traces_share_the_stream(self):
        ms = random_matrix_sum(32, tau=2, rank=2, rng=rngmod.substream(95, 1))
        v = build_sketch(ms, SketchParams(p=120, gamma=1e-6), rngmod.substream(95, 2))
        # A budget this loose plans fewer draws than a store's 1,024
        # entries, so every store's trace samples, in one pass, and all
        # of the triangle's pairs read the same draws.
        args = (v, ms, 4.0 * v.r_tilde * ms.tau, 0.1)
        stream = RandomOnly(rngmod.substream(95, 3))
        core = estimate_vav(*args, rng=stream)
        assert v.r_tilde > 1
        assert stream.calls == len(ms.terms)
        assert np.array_equal(core, estimate_vav(*args, rng=rngmod.substream(95, 3)))


class TestExactBranch:
    @pytest.mark.parametrize("negated", [False, True], ids=["store", "negated_view"])
    def test_matches_dense_trace(self, negated):
        base = SampledMatrix.build(
            [(0, 0, 0.5), (0, 3, 1 - 2j), (2, 5, 0.25j), (4, 4, -1.5), (6, 1, 2.0)],
            n=7,
            rank_hint=3,
        )
        store = NegatedView(base) if negated else base
        b = random_operator(7, 19)
        arr = b.bulk_entries(*np.indices((7, 7)))
        truth = complex(np.trace(dense_store(store) @ arr))
        est = estimate_trace_product(
            store, b, EstimatorConfig(eps=0.3, delta=0.2), rngmod.substream(0, 1, 10)
        )
        assert abs(est - truth) <= 1e-12 * max(1.0, abs(truth))

    def test_independent_of_stream(self):
        store = hermitian_store(6, 20)
        b = random_operator(6, 21)
        cfg = EstimatorConfig(eps=0.3, delta=0.2)
        first = estimate_trace_product(store, b, cfg, rngmod.substream(3, 1, 4))
        other = estimate_trace_product(store, b, cfg, rngmod.substream(3, 1, 5))
        assert first == other
        truth = complex(np.trace(dense_store(store) @ b.bulk_entries(*np.indices((6, 6)))))
        assert abs(first - truth) <= 1e-12 * max(1.0, abs(truth))

    @pytest.mark.parametrize("extra, sampled", [(0, False), (1, True)],
                             ids=["nnz_equals_plan", "nnz_above_plan"])
    def test_threshold_is_the_planned_draw_count(self, extra, sampled):
        base = hermitian_store(6, 24)
        b = random_operator(6, 25)
        cfg = EstimatorConfig(eps=0.5, delta=0.2)
        plan = planned_draws(base, b, cfg)
        store = CountingStore(base, plan + extra)
        estimate_trace_product(store, b, cfg, rngmod.substream(0, 1, 12))
        assert store.draws == (plan if sampled else 0)

    def test_small_feasibility_run_draws_nothing(self, monkeypatch):
        draws = []
        original = SampledMatrix.sample_entries

        def counting(self, u):
            draws.append(len(u))
            return original(self, u)

        monkeypatch.setattr(SampledMatrix, "sample_entries", counting)
        problem = planted_infeasible(32, eps=0.3, rng=rngmod.substream(9, 1))
        cfg = SolverConfig(seed=9, t_override=4, sketch=SketchParams(p=200, gamma=1e-8))
        out = run_feasibility(problem, cfg)
        assert out.verdict == "infeasible"
        assert out.iterations_used == 4
        assert draws == []
