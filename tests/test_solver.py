"""Feasibility loop: configuration, verdicts, updates, and the outer search."""

import math

import numpy as np
import pytest

from sdpsketch.errors import ConfigError, ShapeError
from sdpsketch.gibbs import GibbsDescription
from sdpsketch.instances import (
    planted_feasible_at_uniform,
    planted_infeasible,
    planted_one_update,
    projector_store,
    random_low_rank,
    random_unit_vector,
    shadow_instance,
)
from sdpsketch.rng import substream
from sdpsketch.sketch import MatrixSum, SketchParams
from sdpsketch.solver import (
    FeasibilityOutcome,
    FeasibilityProblem,
    OptimizationProblem,
    SolverConfig,
    default_round_budget,
    optimize,
    shadow_to_feasibility,
)
from sdpsketch.solver import test_feasibility as run_feasibility
from sdpsketch.store import NegatedView
from sdpsketch.trace import EstimatorConfig, estimate_trace_product

FAST = SolverConfig(seed=5, t_override=8, sketch=SketchParams(p=200, gamma=1e-8))


def count_builds(monkeypatch) -> list:
    """The summand count of every `build_sketch` call the solver makes."""
    from sdpsketch import solver

    calls = []
    real = solver.build_sketch

    def counting(ms, params, rng):
        calls.append(ms.tau)
        return real(ms, params, rng)

    monkeypatch.setattr(solver, "build_sketch", counting)
    return calls


class TestRoundBudget:
    def test_frozen_values(self):
        assert default_round_budget(100, 0.1) == 7369
        assert default_round_budget(2, 0.5) == 45
        assert default_round_budget(1, 0.25) == 1

    def test_monotone(self):
        assert default_round_budget(64, 0.1) > default_round_budget(64, 0.2)
        assert default_round_budget(128, 0.2) > default_round_budget(8, 0.2)


class TestProblemValidation:
    def test_accepts_and_exposes_sizes(self):
        rng = substream(80, 1)
        p = FeasibilityProblem(
            constraints=[random_low_rank(8, 2, rng), random_low_rank(8, 1, rng)],
            bounds=[0.5, 0.5],
            eps=0.2,
        )
        assert (p.n, p.m, p.rank) == (8, 2, 2)

    def test_rejects_bad_shapes(self):
        rng = substream(81, 1)
        a = random_low_rank(8, 1, rng)
        with pytest.raises(ShapeError):
            FeasibilityProblem(constraints=[], bounds=[], eps=0.2)
        with pytest.raises(ShapeError):
            FeasibilityProblem(constraints=[a], bounds=[0.1, 0.2], eps=0.2)
        with pytest.raises(ShapeError):
            FeasibilityProblem(
                constraints=[a, random_low_rank(4, 1, rng)],
                bounds=[0.1, 0.2],
                eps=0.2,
            )

    def test_rejects_bad_eps(self):
        a = random_low_rank(8, 1, substream(82, 1))
        for eps in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ConfigError):
                FeasibilityProblem(constraints=[a], bounds=[0.0], eps=eps)


class TestSolverConfig:
    def test_default_split(self):
        assert SolverConfig().resolved(0.2) == (0.05, 0.1)

    def test_explicit_split_validated(self):
        cfg = SolverConfig(eps_est=0.01, margin=0.05)
        assert cfg.resolved(0.1) == (0.01, 0.05)
        with pytest.raises(ConfigError):
            SolverConfig(eps_est=0.06, margin=0.05).resolved(0.1)
        with pytest.raises(ConfigError):
            SolverConfig(margin=-0.1).resolved(0.1)

    def test_knob_ranges(self):
        with pytest.raises(ConfigError):
            SolverConfig(delta_total=0.0).resolved(0.2)
        with pytest.raises(ConfigError):
            SolverConfig(beta_scale=0.0).resolved(0.2)
        with pytest.raises(ConfigError):
            SolverConfig(t_override=0).resolved(0.2)

    def test_nonfinite_scale_and_negative_seed(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigError, match="beta_scale"):
                SolverConfig(beta_scale=bad).resolved(0.2)
        with pytest.raises(ConfigError, match="seed"):
            SolverConfig(seed=-1).resolved(0.2)

    @pytest.mark.parametrize("name", ["margin", "eps_est"])
    def test_nan_slack_rejected(self, name):
        """No estimate exceeds bound + nan, so a NaN slack must not reach the loop."""
        problem = planted_infeasible(8, 0.3, substream(1, 1))
        with pytest.raises(ConfigError, match="positive"):
            run_feasibility(problem, SolverConfig(t_override=4, **{name: math.nan}))

    def test_sketch_dispatch(self):
        explicit = SketchParams(p=33, gamma=0.5)
        assert SolverConfig(sketch=explicit).sketch_params(2, 2, 0.5) is explicit
        assert SolverConfig().sketch_params(2, 2, 0.5) == SketchParams.scaled(2, 2, 0.5)
        assert SolverConfig().sketch_params(2, 2, 0.5).p == 3200


class TestTrivialVerdicts:
    def test_slack_problem_feasible_at_uniform(self):
        problem = FeasibilityProblem(
            constraints=[random_low_rank(16, 2, substream(83, 1))],
            bounds=[1.5],
            eps=0.25,
        )
        out = run_feasibility(problem, FAST)
        assert out.feasible and out.verdict == "feasible"
        assert out.iterations_used == 1
        assert out.violation_log == []
        assert out.witness is not None and out.witness.uniform_fallback

    def test_impossible_bound_exhausts_budget(self):
        v = random_unit_vector(12, substream(84, 1))
        problem = FeasibilityProblem(
            constraints=[projector_store(v)], bounds=[-0.9], eps=0.3
        )
        cfg = SolverConfig(seed=3, t_override=4,
                           sketch=SketchParams(p=150, gamma=1e-8))
        out = run_feasibility(problem, cfg)
        assert not out.feasible and out.verdict == "infeasible"
        assert out.iterations_used == 4
        assert out.witness is None
        assert [(t, j) for t, j, _ in out.violation_log] == [
            (1, 0), (2, 0), (3, 0), (4, 0)
        ]
        for _, _, zeta in out.violation_log:
            assert zeta > -0.9 + 0.15

    def test_planted_family_feasible_immediately(self):
        problem = planted_feasible_at_uniform(
            16, m=3, rank=2, eps=0.2, rng=substream(85, 1)
        )
        out = run_feasibility(problem, FAST)
        assert out.feasible and out.iterations_used == 1


class TestUpdateLoop:
    def test_single_update_reaches_planted_witness(self):
        problem, v = planted_one_update(16, eps=0.25, rng=substream(86, 1))
        out = run_feasibility(problem, FAST)
        assert out.feasible
        assert out.iterations_used == 2
        assert len(out.violation_log) == 1
        t, j, zeta = out.violation_log[0]
        assert (t, j) == (1, 0)
        assert zeta > problem.bounds[0] + 0.125
        w = out.witness
        assert not w.uniform_fallback
        # The witness concentrates on the planted direction.
        overlap = sum(
            (v[i].conjugate() * w.query(i, k) * v[k]).real
            for i in range(16) for k in range(16)
        )
        assert overlap >= 0.8

    def test_scan_stops_at_first_violated_index(self):
        rng = substream(87, 1)
        va, vb = random_unit_vector(12, rng), random_unit_vector(12, rng)
        problem = FeasibilityProblem(
            constraints=[projector_store(va, sign=-1.0),
                         projector_store(vb, sign=-1.0)],
            bounds=[-0.9, -0.9],
            eps=0.25,
        )
        cfg = SolverConfig(seed=9, t_override=3,
                           sketch=SketchParams(p=150, gamma=1e-8))
        out = run_feasibility(problem, cfg)
        assert out.violation_log[0][1] == 0

    def test_planted_infeasible_family(self):
        problem = planted_infeasible(12, eps=0.4, rng=substream(88, 1))
        cfg = SolverConfig(seed=1, t_override=3,
                           sketch=SketchParams(p=150, gamma=1e-8))
        out = run_feasibility(problem, cfg)
        assert not out.feasible
        assert out.iterations_used == 3

    def test_no_candidate_built_after_last_violation(self, monkeypatch):
        calls = count_builds(monkeypatch)
        problem = planted_infeasible(12, eps=0.4, rng=substream(88, 1))
        cfg = SolverConfig(seed=1, t_override=3,
                           sketch=SketchParams(p=150, gamma=1e-8))
        out = run_feasibility(problem, cfg)
        assert out.verdict == "infeasible"
        assert len(out.violation_log) == 3
        # The second violation doubles the first exponent, so its candidate
        # reuses the first sketch; the last violation's is never built.
        assert calls == [1]

    def test_unread_streams_are_not_built(self, monkeypatch):
        from sdpsketch import rng

        built = []
        real = rng.substream

        def counting(seed, *path):
            built.append(path[0])
            return real(seed, *path)

        monkeypatch.setattr(rng, "substream", counting)
        problem = planted_infeasible(12, eps=0.4, rng=real(88, 1))
        cfg = SolverConfig(seed=1, t_override=3,
                           sketch=SketchParams(p=150, gamma=1e-8))
        out = run_feasibility(problem, cfg)
        assert out.verdict == "infeasible"
        # Every trace on these small stores is exact, so of the 3 trace
        # streams per round and the compression stream per sketch, none is
        # read; only the one sketch's stream is built, since round 2's
        # exponent is twice round 1's.
        assert built == [rng.SKETCH]

    def test_exact_checks_read_one_compression_per_store(self, monkeypatch):
        """A candidate whose checks are all exact reads each store's
        compression V^dagger A V, formed once per basis and store, and forms
        no V K."""
        from sdpsketch import linalg, solver
        from sdpsketch.store import SampledMatrix

        checked, products, read = [], [], []
        real_check, real_matmul = solver.estimate_constraint_trace, linalg.rowwise_matmul
        real_entries = SampledMatrix.entries

        def check(g, a, eps, delta, rng):
            checked.append(g)
            return real_check(g, a, eps, delta, rng)

        def matmul(a, b):
            products.append(b)
            return real_matmul(a, b)

        def entries(store):
            read.append(store)
            return real_entries(store)

        monkeypatch.setattr(solver, "estimate_constraint_trace", check)
        monkeypatch.setattr(linalg, "rowwise_matmul", matmul)
        monkeypatch.setattr(SampledMatrix, "entries", entries)
        effects, values, _ = shadow_instance(12, 2, 0.25, substream(154, 1), rank=2)
        out = run_feasibility(shadow_to_feasibility(effects, values, 0.25), FAST)
        w = out.witness
        assert out.feasible and out.iterations_used == 2 and not w.uniform_fallback
        # Round 2's candidate, the witness, passed all six checks, E and -E
        # reading one compression of E.
        assert sum(g is w for g in checked) == len(effects) * 2
        assert all(any(e is s for s in read) for e in effects)
        assert len(read) == len({id(s) for s in read}) == len(effects)
        assert not any(b is g._core for b in products for g in checked)

        # Across rounds that reuse a basis: one compression per (basis, store).
        checked.clear(), read.clear()
        problem = planted_infeasible(32, eps=0.3, rng=substream(88, 2))
        config = SolverConfig(seed=3, t_override=16, sketch=SketchParams(p=200, gamma=1e-8))
        builds = count_builds(monkeypatch)
        run_feasibility(problem, config)
        bases = {id(g.basis): g.basis for g in checked if not g.uniform_fallback}
        assert len(builds) == len(bases) < len({id(g) for g in checked}) - 1
        # Each formed compression read its store's entries once.
        assert len(read) == sum(len(v._compressions) for v in bases.values()) > 0
        assert not any(b is g._core for b in products for g in checked)

    def test_lazy_stream_draws_as_its_substream(self):
        from sdpsketch.rng import LazyStream

        lazy, eager = LazyStream(7, 1, 2), substream(7, 1, 2)
        assert np.array_equal(lazy.random((3, 2)), eager.random((3, 2)))
        assert np.array_equal(lazy.integers(9, size=4), eager.integers(9, size=4))

    def test_runs_are_reproducible(self):
        problem, _ = planted_one_update(16, eps=0.25, rng=substream(89, 1))
        a = run_feasibility(problem, FAST)
        b = run_feasibility(problem, FAST)
        assert a.violation_log == b.violation_log
        assert a.iterations_used == b.iterations_used
        assert a.witness.query(0, 0) == b.witness.query(0, 0)
        assert a.witness.query(3, 7) == b.witness.query(3, 7)


class TestFailureBudget:
    """Every estimate of a run shares one delta_total by the union bound."""

    @pytest.mark.parametrize(
        "case",
        ["planted_infeasible", "shadow_rank2"],
    )
    def test_estimates_fail_with_probability_at_most_delta_total(self, monkeypatch, case):
        """Sum the failure probability each constraint check and each V+AV
        build is given, exact or sampled, over a solve."""
        from sdpsketch import solver

        spent = []
        real_check, real_vav = solver.estimate_constraint_trace, solver.estimate_vav

        def check(g, a, eps, delta, rng):
            spent.append(delta)
            return real_check(g, a, eps, delta, rng)

        def vav(v, ms, eps_s, delta, rng):
            spent.append(delta)
            return real_vav(v, ms, eps_s, delta, rng)

        monkeypatch.setattr(solver, "estimate_constraint_trace", check)
        monkeypatch.setattr(solver, "estimate_vav", vav)
        calls = count_builds(monkeypatch)
        if case == "planted_infeasible":
            problem = planted_infeasible(12, eps=0.4, rng=substream(88, 1))
        else:
            effects, values, _ = shadow_instance(12, 2, 0.25, substream(154, 1), rank=2)
            problem = shadow_to_feasibility(effects, values, 0.25)
        config = SolverConfig(seed=1, t_override=6, delta_total=0.1)
        run_feasibility(problem, config)
        assert calls
        assert 0 < sum(spent) <= config.delta_total * (1 + 1e-12)

    def test_optimize_splits_delta_total_over_its_calls(self):
        given = []

        def feasibility(fp, cfg):
            given.append(cfg.delta_total)
            return run_feasibility(fp, cfg)

        problem = OptimizationProblem(
            cost=projector_store(random_unit_vector(8, substream(92, 1))),
            constraints=[random_low_rank(8, 1, substream(92, 2))],
            bounds=[2.0],
        )
        config = SolverConfig(seed=2, t_override=8, delta_total=0.1,
                              sketch=SketchParams(p=200, gamma=1e-8))
        optimize(problem, 0.125, config, feasibility=feasibility)
        assert len(given) == 3
        assert sum(given) <= config.delta_total * (1 + 1e-12)
        assert config.delta_total == 0.1

    def test_shadow_run_spends_its_delta_once(self, monkeypatch, tmp_path):
        """The solve's delta_total and the per-effect estimates' deltas add
        up to at most the --delta the report prints."""
        from sdpsketch import gibbs, solver
        from sdpsketch.cli import main
        from sdpsketch.manifest import write_shadow_manifest
        from sdpsketch.report import parse

        spent = []
        real_solve, real_check = solver.test_feasibility, gibbs.estimate_constraint_trace

        def solve(problem, config):
            spent.append(config.delta_total)
            return real_solve(problem, config)

        def estimate(g, a, eps, delta, rng):
            spent.append(delta)
            return real_check(g, a, eps, delta, rng)

        monkeypatch.setattr(solver, "test_feasibility", solve)
        monkeypatch.setattr(gibbs, "estimate_constraint_trace", estimate)
        effects, values, _ = shadow_instance(12, 2, 0.25, substream(154, 1))
        path = str(tmp_path / "shadow.man")
        write_shadow_manifest(path, effects, values, 0.25)
        out = tmp_path / "shadow.report"
        flags = ["--p", "200", "--gamma", "1e-8", "--max-iters", "12", "--seed", "3"]
        assert main(["shadow", path, *flags, "--delta", "0.1", "--out", str(out)]) == 0
        report = parse(out.read_text(encoding="utf-8"))
        assert len(report.estimates) == len(effects)
        assert len(spent) == 1 + len(effects)
        assert sum(spent) <= report.delta_total * (1 + 1e-12)


class TestSketchReuse:
    """A candidate whose exponent is a multiple of the last sketched one draws nothing."""

    @pytest.mark.parametrize(
        "steps, builds",
        [
            ([[0], [0, 0], [0, 0, 0]], [1]),
            ([[0, 1], [0, 1, 0, 1]], [2]),
            ([[0], [0, 0], [0, 0, 2]], [1, 3]),
            ([[0], [0, 2], [0, 2, 0]], [1, 2, 3]),
            ([[0], [0, 1]], [1, 2]),
        ],
        ids=["one_store", "two_stores", "sign_turns", "shadow_pair", "store_enters"],
    )
    def test_builds_only_off_a_multiple(self, monkeypatch, steps, builds):
        """Terms (store, count, coef) go (1, 1), (2, 2), (3, 3) for one store;
        (2, 2) then (3, 1) when -E follows E twice; (1, 1), (2, 0) then
        (3, 1) for the shadow pair E, -E, whose (2, 0) sketch keeps nothing."""
        from sdpsketch import solver

        calls = count_builds(monkeypatch)
        effects, values, _ = shadow_instance(12, 2, 0.25, substream(154, 1), rank=2)
        problem = shadow_to_feasibility(effects, values, 0.25)
        last = None
        for t, chosen in enumerate(steps, start=1):
            candidate, last = solver._rebuild_candidate(problem, FAST, chosen, t, last)
            if last is not None:
                tau0 = len(last.exponent)
                assert candidate.beta == len(chosen) / tau0 * (FAST.beta_scale * problem.eps)
        assert calls == builds

    def test_checks_on_a_kept_basis_read_no_entry(self, monkeypatch):
        """With reuse, the stores' read counts stop growing once each basis
        has checked every store: later rounds' checks are r_tilde x r_tilde
        algebra on the kept compressions."""
        from sdpsketch import solver

        problem = planted_infeasible(32, eps=0.3, rng=substream(88, 2))
        config = SolverConfig(seed=3, t_override=16, sketch=SketchParams(p=200, gamma=1e-8))
        calls = count_builds(monkeypatch)
        real_check = solver.estimate_constraint_trace
        seen, grew = set(), []

        def check(g, a, eps, delta, rng):
            before = sum(c.touches for c in problem.constraints)
            out = real_check(g, a, eps, delta, rng)
            key = (None if g.uniform_fallback else id(g.basis), id(a))
            if key in seen:
                grew.append(sum(c.touches for c in problem.constraints) - before)
            seen.add(key)
            return out

        monkeypatch.setattr(solver, "estimate_constraint_trace", check)
        out = run_feasibility(problem, config)
        assert out.verdict == "infeasible" and out.iterations_used == 16
        # Most rounds reuse a basis, and their checks read nothing.
        assert len(calls) < 8 and len(grew) >= 8
        assert grew == [0] * len(grew)

    def test_default_preset_builds_every_round(self, monkeypatch):
        calls = count_builds(monkeypatch)
        problem = planted_infeasible(12, eps=0.4, rng=substream(88, 1))
        out = run_feasibility(problem, SolverConfig(seed=1, t_override=4))
        assert out.verdict == "infeasible"
        assert calls == [1, 2, 3]

    def test_filter_change_rebuilds(self, monkeypatch):
        """At a multiple where the filter would keep another direction, the
        round draws afresh instead of reusing the sketch."""
        from sdpsketch import solver

        calls = count_builds(monkeypatch)
        problem = planted_infeasible(12, eps=0.4, rng=substream(88, 1))
        _, last = solver._rebuild_candidate(problem, FAST, [0], 1, None)
        assert last.multiple(MatrixSum([problem.constraints[0]] * 2, rank=1), FAST.sketch) == 2.0
        lo, _ = last.basis.kept_scales
        last.basis.kept_scales = (lo, 1.5)
        solver._rebuild_candidate(problem, FAST, [0, 0], 2, last)
        assert calls == [1, 2]


class TestOptimize:
    def stub(self, verdict):
        calls = []

        def fake(fp, cfg):
            calls.append((fp.m, fp.bounds[-1], fp.eps))
            return FeasibilityOutcome(
                verdict=verdict,
                witness=GibbsDescription.uniform(fp.n) if verdict == "feasible" else None,
                iterations_used=1,
            )

        return fake, calls

    def test_always_feasible_converges_to_one(self):
        problem = OptimizationProblem(
            cost=random_low_rank(8, 1, substream(90, 1)),
            constraints=[random_low_rank(8, 1, substream(90, 2))],
            bounds=[1.0],
        )
        fake, calls = self.stub("feasible")
        value, outcome = optimize(problem, 0.125, SolverConfig(), feasibility=fake)
        assert value == 0.875  # 1 - eps_outer after three halving steps
        assert outcome.feasible
        assert len(calls) == 3
        # Each call appends the negated cost with the running threshold.
        assert [c[0] for c in calls] == [2, 2, 2]
        assert calls[0][1] == 0.0 and calls[1][1] == -0.5 and calls[2][1] == -0.75
        assert all(c[2] == 0.125 for c in calls)

    def test_always_infeasible_converges_to_minus_one(self):
        problem = OptimizationProblem(
            cost=random_low_rank(8, 1, substream(91, 1)),
            constraints=[random_low_rank(8, 1, substream(91, 2))],
            bounds=[1.0],
        )
        fake, _ = self.stub("infeasible")
        value, outcome = optimize(problem, 0.125, SolverConfig(), feasibility=fake)
        assert value == -0.875
        assert not outcome.feasible

    def test_end_to_end_projector_objective(self):
        v = random_unit_vector(8, substream(92, 1))
        problem = OptimizationProblem(
            cost=projector_store(v),
            constraints=[random_low_rank(8, 1, substream(92, 2))],
            bounds=[2.0],
        )
        cfg = SolverConfig(seed=2, t_override=8,
                           sketch=SketchParams(p=200, gamma=1e-8))
        value, outcome = optimize(problem, 0.25, cfg)
        assert value == 0.75
        assert outcome.feasible

    def test_rejects_bad_outer_eps(self):
        problem = OptimizationProblem(
            cost=random_low_rank(4, 1, substream(93, 1)),
            constraints=[random_low_rank(4, 1, substream(93, 2))],
            bounds=[1.0],
        )
        for eps in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigError):
                optimize(problem, eps, SolverConfig())


class TestShadowReduction:
    def test_two_sided_structure(self):
        rng = substream(94, 1)
        effects = [projector_store(random_unit_vector(8, rng)) for _ in range(3)]
        problem = shadow_to_feasibility(effects, [0.5, 0.1, 0.9], eps=0.2)
        assert problem.m == 6
        assert problem.bounds == [0.5, 0.1, 0.9, -0.5, -0.1, -0.9]
        assert problem.constraints[:3] == effects
        for k in range(3, 6):
            assert isinstance(problem.constraints[k], NegatedView)
            assert problem.constraints[k].base is effects[k - 3]

    def test_rejects_bad_targets(self):
        rng = substream(95, 1)
        effects = [projector_store(random_unit_vector(8, rng))]
        with pytest.raises(ShapeError):
            shadow_to_feasibility(effects, [0.1, 0.2], eps=0.2)
        with pytest.raises(ValueError):
            shadow_to_feasibility(effects, [1.5], eps=0.2)


SUMMAND_READS = {"n", "frobenius_norm", "row_masses", "rows_at", "cols_at", "block", "row_columns"}
CONSTRAINT_READS = {
    "n", "rank_hint", "nnz", "frobenius_norm", "total_mass", "trace", "entries",
    "sample_entries",
}


class ProtocolStore:
    """A store answering the summand and constraint reads and nothing else.

    Each read is forwarded to the wrapped store and its name recorded in
    ``reads``; any other attribute raises AttributeError.
    """

    def __init__(self, base):
        self._base = base
        self.reads = set()

    def __getattr__(self, name):
        if name not in SUMMAND_READS | CONSTRAINT_READS:
            raise AttributeError(name)
        self.reads.add(name)
        return getattr(self._base, name)


class TestStoreProtocols:
    def test_stand_in_store_runs_the_solver(self):
        """A store with only the two protocols solves as the real one does.

        The planted shadow instance's first effect is missed by the
        uniform state, so the view of its stand-in enters the exponent.
        """
        effects, values, _ = shadow_instance(12, 2, 0.25, substream(154, 1), rank=2)
        stand_ins = [ProtocolStore(e) for e in effects]
        with pytest.raises(AttributeError):
            stand_ins[0].touches
        want = run_feasibility(shadow_to_feasibility(effects, values, 0.25), FAST)
        got = run_feasibility(shadow_to_feasibility(stand_ins, values, 0.25), FAST)
        assert got.verdict == want.verdict == "feasible"
        assert got.iterations_used == want.iterations_used > 1
        assert got.violation_log == want.violation_log
        assert any(j >= len(effects) for _, j, _ in got.violation_log)
        n = effects[0].n
        assert [got.witness.query(i, j) for i in range(n) for j in range(n)] == [
            want.witness.query(i, j) for i in range(n) for j in range(n)
        ]
        # A loose estimate draws its entries, through a view as the solver reads one.
        cfg = EstimatorConfig(eps=5.0, delta=0.9)
        assert cfg.batch_count() * cfg.batch_size(effects[0].total_mass(), 1.0) < effects[0].nnz
        b = want.witness
        assert estimate_trace_product(
            NegatedView(stand_ins[0]), b, cfg, substream(154, 2)
        ) == estimate_trace_product(NegatedView(effects[0]), b, cfg, substream(154, 2))
        assert stand_ins[0].reads == SUMMAND_READS | CONSTRAINT_READS
