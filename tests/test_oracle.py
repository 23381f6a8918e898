"""Dense reference implementations: realizations, states, and the exact loop."""

import numpy as np
import pytest

from sdpsketch.errors import ShapeError, SizeError
from sdpsketch.instances import (
    planted_infeasible,
    planted_one_update,
    projector_store,
    random_low_rank,
    random_matrix_sum,
    random_unit_vector,
)
from sdpsketch.oracle import (
    MAX_MMW_M,
    MAX_MMW_N,
    constraint_traces,
    dense_gibbs,
    dense_mmw,
    dense_realize,
    dense_store,
    fidelity,
    trace_norm,
)
from sdpsketch.rng import substream
from sdpsketch.sketch import MatrixSum
from sdpsketch.solver import FeasibilityProblem
from sdpsketch.store import NegatedView, SampledMatrix


def random_state(n, rng):
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = w @ w.conj().T
    return rho / np.trace(rho).real


def row_by_row(store):
    """The store filled one row at a time from `row_support`."""
    out = np.zeros((store.n, store.n), dtype=np.complex128)
    for i in range(store.n):
        cols, vals = store.row_support(i)
        out[i, cols] = vals
    return out


class TestRealization:
    def test_store_fills_both_triangles(self):
        s = SampledMatrix.build([(0, 1, 2 - 1j), (1, 1, 3.0)], 2, rank_hint=1)
        a = dense_store(s)
        assert a[0, 1] == 2 - 1j and a[1, 0] == 2 + 1j
        assert a[1, 1] == 3.0 and a[0, 0] == 0.0

    def test_negated_view_realizes_negated(self):
        s = SampledMatrix.build([(0, 0, 1.5)], 2, rank_hint=1)
        assert np.array_equal(dense_store(NegatedView(s)), -dense_store(s))
        # Rows 1, 2, 4 and 6 store nothing.
        s = SampledMatrix.build([(0, 3, 1 - 2j), (3, 3, 0.5), (5, 0, 2j)], 7, rank_hint=2)
        assert np.array_equal(dense_store(s), row_by_row(s))
        assert np.array_equal(dense_store(NegatedView(s)), -row_by_row(s))
        assert np.array_equal(dense_store(NegatedView(NegatedView(s))), row_by_row(s))

    def test_sum_realizes_summand_sum(self):
        ms = random_matrix_sum(8, tau=3, rank=2, rng=substream(100, 1))
        total = sum(dense_store(s) for s in ms.summands)
        assert np.allclose(dense_realize(ms), total, atol=1e-14)


class TestDenseGibbs:
    def test_frozen_two_level_state(self):
        # exp(-diag(0.2, 0.8)) normalized: diagonal e^{-0.2}, e^{-0.8} scaled.
        rho = dense_gibbs(np.diag([0.2, 0.8]).astype(complex), beta=1.0)
        z = np.exp(-0.2) + np.exp(-0.8)
        assert rho[0, 0] == pytest.approx(np.exp(-0.2) / z, rel=1e-12)
        assert rho[1, 1] == pytest.approx(np.exp(-0.8) / z, rel=1e-12)
        assert rho[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_unit_trace_and_psd(self):
        rng = substream(101, 1)
        w = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = 0.5 * (w + w.conj().T)
        rho = dense_gibbs(a, beta=2.0)
        assert np.trace(rho).real == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-14

    def test_huge_exponents_do_not_overflow(self):
        rho = dense_gibbs(np.diag([-2000.0, 2000.0]).astype(complex), beta=1.0)
        assert np.isfinite(rho).all()
        assert rho[0, 0].real == pytest.approx(1.0, rel=1e-12)

    def test_beta_zero_is_uniform(self):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        assert np.allclose(dense_gibbs(a, 0.0), np.eye(3) / 3, atol=1e-14)


class TestStateFunctionals:
    def test_trace_norm_of_signed_diagonal(self):
        assert trace_norm(np.diag([3.0, -4.0]).astype(complex)) == pytest.approx(7.0)

    def test_fidelity_extremes(self):
        rho = random_state(8, substream(102, 1))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
        e0 = np.zeros((4, 4), dtype=complex)
        e0[0, 0] = 1.0
        e1 = np.zeros((4, 4), dtype=complex)
        e1[1, 1] = 1.0
        assert fidelity(e0, e1) == pytest.approx(0.0, abs=1e-9)

    def test_fidelity_symmetric(self):
        rng = substream(103, 1)
        rho, sigma = random_state(6, rng), random_state(6, rng)
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-10)

    def test_fidelity_bounds_trace_distance(self):
        # One direction of the standard sandwich: D <= sqrt(1 - F^2).
        rng = substream(104, 1)
        for _ in range(20):
            rho, sigma = random_state(5, rng), random_state(5, rng)
            f = fidelity(rho, sigma)
            d = 0.5 * trace_norm(rho - sigma)
            assert d <= np.sqrt(max(0.0, 1.0 - f * f)) + 1e-9
            assert d >= 1.0 - f - 1e-9


class TestDenseLoop:
    def test_slack_problem_feasible_with_witness(self):
        problem = FeasibilityProblem(
            constraints=[random_low_rank(8, 2, substream(105, 1))],
            bounds=[1.5],
            eps=0.25,
        )
        out = dense_mmw(problem)
        assert out.feasible and out.iterations_used == 1
        rho = out.dense_witness
        assert rho is not None
        assert np.trace(rho).real == pytest.approx(1.0, rel=1e-12)
        assert constraint_traces(problem, rho)[0] <= 1.5

    def test_planted_update_instance_converges(self):
        problem, v = planted_one_update(16, eps=0.25, rng=substream(106, 1))
        out = dense_mmw(problem)
        assert out.feasible
        assert out.violation_log[0][:2] == (1, 0)
        rho = out.dense_witness
        # The dense loop mixes many small updates, so only require the
        # witness to satisfy the constraint within the working slack.
        assert constraint_traces(problem, rho)[0] <= problem.bounds[0] + 0.25

    def test_planted_infeasible_instance(self):
        problem = planted_infeasible(12, eps=0.4, rng=substream(107, 1))
        out = dense_mmw(problem, t_override=5)
        assert not out.feasible
        assert out.iterations_used == 5
        assert out.dense_witness is None

    def test_size_caps(self):
        big = FeasibilityProblem(
            constraints=[projector_store(random_unit_vector(MAX_MMW_N * 2,
                                                            substream(108, 1)))],
            bounds=[1.0],
            eps=0.2,
        )
        with pytest.raises(SizeError):
            dense_mmw(big)
        rng = substream(108, 2)
        crowded = FeasibilityProblem(
            constraints=[projector_store(random_unit_vector(4, rng))
                         for _ in range(MAX_MMW_M + 1)],
            bounds=[1.0] * (MAX_MMW_M + 1),
            eps=0.2,
        )
        with pytest.raises(SizeError):
            dense_mmw(crowded)

    def test_constraint_traces_shape_check(self):
        problem = FeasibilityProblem(
            constraints=[random_low_rank(8, 1, substream(109, 1))],
            bounds=[1.0],
            eps=0.2,
        )
        with pytest.raises(ShapeError):
            constraint_traces(problem, np.eye(4, dtype=complex) / 4)
