"""Generators for random and planted problems keep their advertised promises."""

import numpy as np
import pytest

from sdpsketch.instances import (
    planted_around_state,
    planted_feasible_at_uniform,
    planted_infeasible,
    planted_one_update,
    projector_store,
    random_low_rank,
    random_matrix_sum,
    random_unit_vector,
    shadow_instance,
)
from sdpsketch.oracle import dense_store
from sdpsketch.rng import substream


class TestRandomLowRank:
    def test_spectral_norm_and_rank(self):
        for seed in range(3):
            a = dense_store(random_low_rank(12, 3, substream(110, seed)))
            vals = np.linalg.eigvalsh(a)
            assert np.abs(vals).max() == pytest.approx(1.0, rel=1e-10)
            assert (np.abs(vals) > 1e-10).sum() == 3
            assert np.allclose(a, a.conj().T, atol=1e-14)

    def test_custom_norm(self):
        a = dense_store(random_low_rank(8, 2, substream(111, 1), norm=0.3))
        assert np.abs(np.linalg.eigvalsh(a)).max() == pytest.approx(0.3, rel=1e-10)

    def test_traceless_pins_plus_minus_pairs(self):
        a = dense_store(random_low_rank(10, 2, substream(112, 1), traceless=True))
        vals = np.sort(np.linalg.eigvalsh(a))
        assert np.trace(a).real == pytest.approx(0.0, abs=1e-12)
        assert vals[0] == pytest.approx(-1.0, rel=1e-10)
        assert vals[-1] == pytest.approx(1.0, rel=1e-10)

    def test_traceless_requires_even_rank(self):
        with pytest.raises(ValueError):
            random_low_rank(8, 3, substream(113, 1), traceless=True)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            random_low_rank(4, 0, substream(114, 1))
        with pytest.raises(ValueError):
            random_low_rank(4, 5, substream(114, 2))


class TestSmallBuilders:
    def test_matrix_sum_counts(self):
        ms = random_matrix_sum(8, tau=3, rank=2, rng=substream(115, 1))
        assert (ms.tau, ms.rank, ms.n) == (3, 2, 8)

    def test_unit_vector(self):
        v = random_unit_vector(16, substream(116, 1))
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)

    def test_projector(self):
        v = random_unit_vector(6, substream(117, 1))
        p = dense_store(projector_store(v))
        assert np.allclose(p, np.outer(v, v.conj()), atol=1e-14)
        neg = dense_store(projector_store(v, sign=-1.0))
        assert np.allclose(neg, -p, atol=1e-14)


class TestPlantedFamilies:
    def test_feasible_at_uniform_has_slack(self):
        problem = planted_feasible_at_uniform(12, 4, 2, 0.2, substream(118, 1))
        assert problem.m == 4
        for c, b in zip(problem.constraints, problem.bounds):
            uniform = np.trace(dense_store(c)).real / 12
            assert uniform == pytest.approx(b - 0.2, abs=1e-12)

    def test_one_update_instance_geometry(self):
        problem, v = planted_one_update(16, 0.25, substream(119, 1), extras=2)
        assert problem.m == 3
        witness = np.outer(v, v.conj())
        lead = dense_store(problem.constraints[0])
        # Violated at uniform, satisfied with slack by the planted state.
        assert np.trace(lead).real / 16 > problem.bounds[0] + 0.125
        assert np.trace(lead @ witness).real <= problem.bounds[0] + 1e-9
        for c, b in zip(problem.constraints[1:], problem.bounds[1:]):
            assert np.trace(dense_store(c) @ witness).real <= b + 1e-9

    def test_infeasible_instance_admits_no_state(self):
        problem = planted_infeasible(8, 0.3, substream(120, 1))
        a = dense_store(problem.constraints[0])
        # Tr[A X] >= 0 for every PSD X, but the bound demands -0.9.
        assert np.linalg.eigvalsh(a).min() >= -1e-12
        assert problem.bounds[0] == -0.9

    def test_shadow_instance_values_are_exact_expectations(self):
        effects, values, rho = shadow_instance(12, 3, 0.2, substream(121, 1))
        assert len(effects) == len(values) == 4
        assert values[0] == 1.0
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        for e, val in zip(effects, values):
            assert np.trace(dense_store(e) @ rho).real == pytest.approx(val, abs=1e-12)
        assert all(0.0 <= val <= 1.0 for val in values)

    def test_shadow_instance_rank_two_support(self):
        effects, values, rho = shadow_instance(12, 2, 0.2, substream(122, 1),
                                               rank=2)
        vals = np.linalg.eigvalsh(rho)
        assert (vals > 1e-12).sum() == 2
        assert vals.max() == pytest.approx(0.5, abs=1e-12)
        assert np.trace(dense_store(effects[0]) @ rho).real == pytest.approx(1.0)

    def test_planted_around_state_bounds_are_tight(self):
        problem, v = planted_around_state(16, 4, 2, 0.2, substream(123, 1))
        assert problem.m == 4
        witness = np.outer(v, v.conj())
        assert problem.bounds[0] == -1.0
        for c, b in zip(problem.constraints, problem.bounds):
            assert np.trace(dense_store(c) @ witness).real == pytest.approx(
                b, abs=1e-12
            )
