"""The benchmark's three workloads: inputs, loading, solving and checks.

Each workload writes its instance set as text files from a seed, loads
them back through the package's own loaders (the set-up the benchmark
times), solves them (the part it times as solve_s) and verifies every
result against an exact reference, outside the timed region.  See
README.md for why each workload was chosen.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from sdpsketch import (
    SdpSketchError,
    gibbs,
    instances,
    linalg,
    manifest,
    oracle,
    sketch,
    solver,
    spectral,
)
from sdpsketch.rng import substream
from sdpsketch.store import SampledMatrix

# Stream tags for the benchmark's own randomness: instance k of a run
# with seed s generates from substream(s, _GEN, k).
_GEN = 1
_SKETCH = 2
_CORE = 3
_TRACE = 4


@dataclass
class Result:
    """One verified output: a verdict or an estimate, and whether it passed."""

    label: str
    value: object
    ok: bool


# -- sparse_wide ----------------------------------------------------------


def _sparse_unitary_pair(rng: np.random.Generator, k: int) -> np.ndarray:
    """k x 2 orthonormal columns, Haar-ish through a unique QR."""
    g = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
    q, _ = linalg.qr(g)
    return q


def sparse_planted(
    n: int, m: int, support: int, eps: float, rng: np.random.Generator
) -> solver.FeasibilityProblem:
    """Planted-feasible family on small supports, built from entry lists.

    Constraint 0 is -v v* on a random support of `support` coordinates,
    bound -1.  Each other constraint is a rank-2 matrix with spectrum
    {s, -s/2} (s a random sign) on a support sharing half its
    coordinates with v's, bounded by its exact trace at v v*.  No n x n
    array is formed; only support x support blocks are.  The fixed
    spectrum keeps every Frobenius norm, and so the sample budget, the
    same from seed to seed.
    """
    if support % 2 or 2 * support > n:
        raise ValueError(f"support {support} must be even and at most n/2")
    v_support = np.sort(rng.choice(n, support, replace=False))
    v = instances.random_unit_vector(support, rng)
    block = -np.outer(v, v.conj())
    constraints = [_store_from_block(v_support, block, n, rank=1)]
    bounds = [-1.0]
    v_at = dict(zip(v_support.tolist(), v))
    for _ in range(m - 1):
        shared = rng.choice(v_support, support // 2, replace=False).tolist()
        fresh: list[int] = []
        while len(fresh) < support // 2:
            c = int(rng.integers(n))
            if c not in v_at and c not in fresh:
                fresh.append(c)
        cols = np.sort(np.array(shared + fresh, dtype=np.int64))
        q = _sparse_unitary_pair(rng, support)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        block = (q * (sign * np.array([1.0, -0.5]))) @ q.conj().T
        constraints.append(_store_from_block(cols, block, n, rank=2))
        v_local = np.array([v_at.get(int(c), 0j) for c in cols])
        bounds.append(float((v_local.conj() @ block @ v_local).real))
    return solver.FeasibilityProblem(constraints=constraints, bounds=bounds, eps=eps)


def _store_from_block(cols: np.ndarray, block: np.ndarray, n: int, rank: int) -> SampledMatrix:
    k = cols.shape[0]
    entries = [
        (int(cols[a]), int(cols[b]), block[a, b]) for a in range(k) for b in range(a, k)
    ]
    return SampledMatrix.build(entries, n, rank)


def sparse_witness_traces(problem: solver.FeasibilityProblem, witness) -> list[float]:
    """Exact Tr[A_j rho] over each A_j's stored support.

    Tr[A rho] = sum over stored (i, j) of A(i, j) rho(j, i); rho entries
    come from the witness's own query, so no dense n x n array is made.
    """
    traces = []
    for a in problem.constraints:
        total = 0j
        for i in range(a.n):
            cols, vals = a.row_support(i)
            for j, value in zip(cols.tolist(), vals):
                total += value * witness.query(j, i)
        traces.append(float(total.real))
    return traces


# -- workloads --------------------------------------------------------------


class Workload:
    """A named instance set; class attributes are its settings.

    Keyword arguments replace settings, which the benchmark's tests use
    to run the same code at a smaller scale.  Subclasses solve and check
    one instance at a time; an error the package raises while solving
    an instance becomes that instance's output and fails its check.
    """

    name = ""
    instances = 1

    def __init__(self, **settings):
        for key, value in settings.items():
            if not hasattr(self, key):
                raise AttributeError(f"{type(self).__name__} has no setting {key!r}")
            setattr(self, key, value)

    def solve(self, loaded: list, seed: int, tracer=None) -> list:
        """Outputs in instance order; a tracer tags its spans with the index."""
        outputs = []
        for k, item in enumerate(loaded):
            if tracer is not None:
                tracer.instance = k
            try:
                outputs.append(self.solve_one(item, seed, k))
            except SdpSketchError as exc:
                outputs.append(exc)
        if tracer is not None:
            tracer.instance = None
        return outputs

    def verify(self, loaded: list, outputs: list) -> list[Result]:
        results = []
        for k, (item, output) in enumerate(zip(loaded, outputs)):
            if isinstance(output, SdpSketchError):
                results.append(Result(f"instance{k}", output, False))
            else:
                results.extend(self.check_one(item, output, k))
        return results

    def signature(self, outputs: list) -> list:
        """What must repeat exactly when the same instances are solved again."""
        return [repr(o) if isinstance(o, SdpSketchError) else self.summary(o) for o in outputs]

    def warm_up(self, loaded: list, seed: int) -> None:
        """One untimed instance; errors are left for the timed passes to count."""
        try:
            self.solve_one(loaded[0], seed, 0, warm_up=True)
        except SdpSketchError:
            pass

    def rounds_used(self, outputs: list) -> int:
        """Solver rounds behind the outputs (0 where no solver runs)."""
        return 0


class FeasibilityWorkload(Workload):
    """Instances written as manifests, solved by solver.test_feasibility."""

    eps = 0.2
    p = 400
    gamma = 1e-6
    rounds = 8

    def generate(self, seed: int, directory: str) -> list[str]:
        paths = []
        for k in range(self.instances):
            sub = os.path.join(directory, f"instance{k}")
            os.makedirs(sub, exist_ok=True)
            problem = self.make_problem(substream(seed, _GEN, k))
            path = os.path.join(sub, "manifest.txt")
            manifest.write_feasibility_manifest(
                path, problem.constraints, problem.bounds, problem.eps
            )
            paths.append(path)
        return paths

    def make_problem(self, rng) -> solver.FeasibilityProblem:
        raise NotImplementedError

    def load(self, paths: list[str]) -> list:
        return [manifest.load_feasibility(path) for path in paths]

    def solve_one(self, problem, seed: int, k: int, warm_up: bool = False):
        # The warm-up instance stops after one round.
        config = solver.SolverConfig(
            seed=seed * 1000 + k,
            t_override=1 if warm_up else self.rounds,
            sketch=sketch.SketchParams(p=self.p, gamma=self.gamma),
        )
        return solver.test_feasibility(problem, config)

    def summary(self, outcome) -> tuple:
        return (outcome.verdict, outcome.iterations_used, outcome.violation_log)

    def rounds_used(self, outcomes: list) -> int:
        return sum(o.iterations_used for o in outcomes if not isinstance(o, SdpSketchError))

    def stores(self, problems: list) -> list:
        return [c for problem in problems for c in problem.constraints]


class SparseWide(FeasibilityWorkload):
    name = "sparse_wide"
    n = 100_000
    m = 4
    support = 24

    def make_problem(self, rng):
        return sparse_planted(self.n, self.m, self.support, self.eps, rng)

    def check_one(self, problem, outcome, k: int) -> list[Result]:
        """Feasible, with a witness inside every bound plus eps."""
        ok = outcome.feasible
        if ok:
            traces = sparse_witness_traces(problem, outcome.witness)
            ok = all(t <= b + problem.eps for t, b in zip(traces, problem.bounds))
        return [Result(f"instance{k}", outcome.verdict, ok)]


class InfeasibleLong(FeasibilityWorkload):
    name = "infeasible_long"
    n = 32
    eps = 0.3
    p = 200
    gamma = 1e-8
    rounds = 16

    def make_problem(self, rng):
        return instances.planted_infeasible(self.n, self.eps, rng)

    def check_one(self, problem, outcome, k: int) -> list[Result]:
        """Infeasible after the same rounds and violations as the dense loop."""
        reference = oracle.dense_mmw(problem, t_override=self.rounds)
        ok = (
            outcome.verdict == reference.verdict == "infeasible"
            and outcome.iterations_used == reference.iterations_used
            and [j for _, j, _ in outcome.violation_log]
            == [j for _, j, _ in reference.violation_log]
        )
        return [Result(f"instance{k}", outcome.verdict, ok)]


class GibbsKernel(Workload):
    """The sketch -> V+AV -> Gibbs -> trace pipeline on gapped pairs.

    Runnable by name but not listed in BENCHMARK.json: about one
    estimate in 150 lies past the tolerance from the dense Gibbs trace
    (criterion 06 asks only 90% within it), and a benchmark run must
    verify every result.  The miss comes from the sketch's own draw:
    another V+AV or trace draw, or half the V+AV precision, leaves it,
    and p = 800 still misses on another seed.
    """

    name = "gibbs_kernel"
    instances = 5
    n = 32
    p = 400
    gamma = 1e-4
    beta = 8.0
    vav_precision = 0.05
    tolerance = 0.1
    delta = 1.0 / 6.0

    def generate(self, seed: int, directory: str) -> list[list[str]]:
        os.makedirs(directory, exist_ok=True)
        paths = []
        for k in range(self.instances):
            rng = substream(seed, _GEN, k)
            pair = []
            for ell, norm in enumerate((1.0, 0.5)):
                store = instances.random_low_rank(self.n, 2, rng, norm=norm, traceless=True)
                path = os.path.join(directory, f"pair{k}_{ell}.mat")
                store.save(path)
                pair.append(path)
            paths.append(pair)
        return paths

    def load(self, paths: list[list[str]]) -> list:
        return [
            sketch.MatrixSum([SampledMatrix.load(path) for path in pair], rank=2)
            for pair in paths
        ]

    def solve_one(self, ms, seed: int, k: int, warm_up: bool = False) -> list[float]:
        # One whole instance is already a fair warm-up; `warm_up` changes nothing.
        v = sketch.build_sketch(
            ms, sketch.SketchParams(p=self.p, gamma=self.gamma), substream(seed, _SKETCH, k)
        )
        core = spectral.estimate_vav(
            v,
            ms,
            eps_s=self.vav_precision * v.r_tilde * ms.tau,
            delta=self.delta,
            rng=substream(seed, _CORE, k),
        )
        g = gibbs.make_gibbs(v, spectral.decompose(core, basis=v), beta=self.beta)
        return [
            gibbs.estimate_constraint_trace(
                g, s, eps=self.tolerance, delta=self.delta, rng=substream(seed, _TRACE, k, ell)
            )
            for ell, s in enumerate(ms.summands)
        ]

    def check_one(self, ms, zetas: list[float], k: int) -> list[Result]:
        """Each estimate within tolerance of the dense Gibbs state's trace."""
        rho = oracle.dense_gibbs(oracle.dense_realize(ms), self.beta)
        results = []
        for ell, (s, zeta) in enumerate(zip(ms.summands, zetas)):
            exact = float(np.trace(oracle.dense_store(s) @ rho).real)
            ok = bool(np.isfinite(zeta)) and abs(zeta - exact) <= self.tolerance
            results.append(Result(f"instance{k}.summand{ell}", zeta, ok))
        return results

    def summary(self, zetas: list[float]) -> list[float]:
        return zetas

    def stores(self, sums: list) -> list:
        return [s for ms in sums for s in ms.summands]


WORKLOADS = {cls.name: cls for cls in (SparseWide, InfeasibleLong, GibbsKernel)}
