"""Trace-product estimator: exact expectation, variance bound, guarantees."""
import math

import numpy as np
import pytest

from sdpsketch import rng as rngmod
from sdpsketch.errors import ShapeError, ZeroMassError
from sdpsketch.oracle import dense_store
from sdpsketch.store import SampledMatrix
from sdpsketch.trace import EstimatorConfig, QueryableOperator, estimate_trace_product


def hermitian_store(n: int, key: int) -> SampledMatrix:
    rng = rngmod.substream(key, rngmod.INSTANCE, 100)
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense = dense + dense.conj().T
    dense /= np.linalg.norm(dense, 2)
    return SampledMatrix.from_dense(dense, rank_hint=n)


def operator_from_dense(arr: np.ndarray, hermitian: bool = False) -> QueryableOperator:
    return QueryableOperator(
        n=arr.shape[0],
        bulk_entries=lambda rows, cols: arr[rows, cols],
        fro_bound=float(np.linalg.norm(arr)),
        hermitian=hermitian,
    )


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
    def test_unbiased_and_within_eps(self):
        store = hermitian_store(8, 9)
        dense_a = dense_store(store)
        rng = rngmod.substream(10, rngmod.INSTANCE, 102)
        arr = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        arr /= np.linalg.norm(arr, 2)
        truth = complex(np.trace(dense_a @ arr))
        b = operator_from_dense(arr)
        cfg = EstimatorConfig(eps=0.2, delta=0.05)
        hits = 0
        for trial in range(50):
            est = estimate_trace_product(
                store, b, cfg, rngmod.substream(trial, rngmod.TRACE, 0, 0)
            )
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
        rows, cols, vals = store.sample_entries(draws, rngmod.substream(0, 5, 0))
        samples = arr[cols, rows] * a2 / np.conj(vals)
        spread = np.mean(np.abs(samples - truth) ** 2)
        assert np.mean(samples) == pytest.approx(truth, abs=4 * math.sqrt(a2 * b2 / draws))
        assert spread <= 1.1 * a2 * b2

    def test_deterministic_under_fixed_stream(self):
        store = hermitian_store(6, 13)
        arr = dense_store(hermitian_store(6, 14))
        b = operator_from_dense(arr, hermitian=True)
        cfg = EstimatorConfig(eps=0.3, delta=0.2)
        first = estimate_trace_product(store, b, cfg, rngmod.substream(3, 1, 4))
        second = estimate_trace_product(store, b, cfg, rngmod.substream(3, 1, 4))
        other = estimate_trace_product(store, b, cfg, rngmod.substream(3, 1, 5))
        assert first == second
        assert first != other

    def test_hermitian_pair_is_exactly_real(self):
        store = hermitian_store(6, 15)
        arr = dense_store(hermitian_store(6, 16))
        b = operator_from_dense(arr, hermitian=True)
        cfg = EstimatorConfig(eps=0.5, delta=0.2)
        est = estimate_trace_product(store, b, cfg, rngmod.substream(0, 1, 6))
        assert est.imag == 0.0

    def test_zero_matrix_short_circuits(self):
        store = SampledMatrix.build([], n=4, rank_hint=1)
        b = operator_from_dense(np.eye(4, dtype=complex))
        cfg = EstimatorConfig(eps=0.5, delta=0.2)
        assert estimate_trace_product(store, b, cfg, rngmod.substream(0, 1, 7)) == 0j

    def test_zero_operator_norm_rejected(self):
        store = hermitian_store(4, 17)
        b = operator_from_dense(np.zeros((4, 4), dtype=complex))
        cfg = EstimatorConfig(eps=0.5, delta=0.2)
        with pytest.raises(ZeroMassError):
            estimate_trace_product(store, b, cfg, rngmod.substream(0, 1, 8))

    def test_dimension_mismatch_rejected(self):
        store = hermitian_store(4, 18)
        b = operator_from_dense(np.eye(5, dtype=complex))
        cfg = EstimatorConfig(eps=0.5, delta=0.2)
        with pytest.raises(ShapeError):
            estimate_trace_product(store, b, cfg, rngmod.substream(0, 1, 9))
