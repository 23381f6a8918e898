"""Acceptance gate: eleven frozen scenario checks with pinned tolerances.

Each test prints one verdict line ("[criterion NN] label: PASS/FAIL
(detail)") and enforces a wall-clock budget on top of its statistical
bar.  Seeds, instance families, and solver knobs are frozen; reruns are
bit-reproducible, so a pass here is a stable property of the code, not
of the weather.  Dense reference computations come from the oracle
module throughout.
"""
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from sdpsketch.gibbs import estimate_constraint_trace, make_gibbs
from sdpsketch.instances import (
    planted_around_state,
    planted_feasible_at_uniform,
    planted_infeasible,
    planted_one_update,
    random_low_rank,
    random_matrix_sum,
    shadow_instance,
)
from sdpsketch.linalg import qr
from sdpsketch.manifest import write_feasibility_manifest
from sdpsketch.oracle import (
    constraint_traces,
    dense_basis,
    dense_gibbs,
    dense_realize,
    dense_sketch_rows,
    dense_solution,
    dense_store,
    fidelity,
    trace_norm,
)
from sdpsketch.report import RunReport, dump_witness, parse, rebuild_witness, render
from sdpsketch.rng import substream
from sdpsketch.sketch import MatrixSum, SketchParams, build_sketch, sample_rows
from sdpsketch.solver import SolverConfig, shadow_to_feasibility
from sdpsketch.solver import test_feasibility as run_feasibility
from sdpsketch.spectral import decompose, estimate_vav
from sdpsketch.store import SampledMatrix


def announce(capsys, number: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[criterion {number:02d}] {label}: {verdict} ({detail})")


def build_store(entries: dict, n: int, rank_hint: int = 2) -> SampledMatrix:
    triples = [(i, j, v) for (i, j), v in entries.items()]
    return SampledMatrix.build(triples, n=n, rank_hint=rank_hint)


# ---------------------------------------------------------------------------
# exact-law helpers: the laws of the prefix searches in rational arithmetic


def prefix_law(prefix) -> dict[int, Fraction]:
    """Exact law of ``searchsorted(prefix, u * prefix[-1], side="right")``.

    Index k comes with its step over the last prefix value,
    (prefix[k] - prefix[k - 1]) / prefix[-1], for u uniform on [0, 1).
    """
    out: dict[int, Fraction] = {}
    previous = Fraction(0)
    points = [Fraction(float(x)) for x in prefix]
    for k, point in enumerate(points):
        if point > previous:
            out[k] = (point - previous) / points[-1]
        previous = point
    return out


def sq_mag(v: complex) -> Fraction:
    z = complex(v)
    return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


def mirrored_entries(upper: dict) -> dict:
    full = dict(upper)
    for (i, j), v in upper.items():
        if i != j:
            full[(j, i)] = complex(v).conjugate()
    return full


# ---------------------------------------------------------------------------
# frozen instance families used by the basis-quality and trace criteria


def shared_axes_pair(n: int, seed: int, path: int) -> MatrixSum:
    """Two rank-2 summands with shared eigenvectors and independent spectra.

    The realized sum has rank exactly 2, so the singular filter discards
    the sampling-noise directions and the surviving basis is small.
    """
    rng = substream(seed, path)
    g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    q, _ = qr(g)
    v, w = q[:, 0], q[:, 1]
    pos, neg = np.outer(v, v.conj()), np.outer(w, w.conj())
    a, b = 0.5 + 0.5 * rng.random(2)
    return MatrixSum(
        [
            SampledMatrix.from_dense(pos - neg, rank_hint=2),
            SampledMatrix.from_dense(a * pos - b * neg, rank_hint=2),
        ],
        rank=2,
    )


def gapped_pair(n: int, rng) -> MatrixSum:
    """Traceless rank-2 summands at norms 1 and 1/2.

    The sum's lowest eigenvalue is separated from the rest of the
    spectrum, so moderate Gibbs weighting concentrates on a direction
    the sketch captures well.
    """
    return MatrixSum(
        [
            random_low_rank(n, 2, rng, norm=1.0, traceless=True),
            random_low_rank(n, 2, rng, norm=0.5, traceless=True),
        ],
        rank=2,
    )


# ---------------------------------------------------------------------------
# 1. sampling laws: exact prefix-search laws plus empirical total variation


def sampling_fixtures() -> list[tuple[dict, int]]:
    real4 = {
        (0, 0): 1.0,
        (0, 1): 0.5,
        (1, 1): -2.0,
        (2, 3): 0.25,
        (3, 3): 0.5,
    }
    # mixed real+imaginary entries use 3-4-5 triples scaled by powers of
    # two, so their float magnitudes (and hence the tree weights) are exact
    complex6 = {
        (0, 0): 0.5,
        (0, 1): 0.1875 + 0.25j,
        (1, 2): -0.5j,
        (2, 2): 1.0,
        (3, 4): 0.125,
        (4, 5): 0.375 - 0.5j,
        (5, 5): -0.25,
    }
    return [(real4, 4), (complex6, 6), (tv_fixture_entries(), 16)]


def tv_fixture_entries() -> dict:
    """16x16 tridiagonal fixture with geometrically decaying dyadic mass."""
    entries: dict = {}
    for i in range(16):
        entries[(i, i)] = 2.0 ** (-i)
    for i in range(15):
        entries[(i, i + 1)] = 2.0 ** (-i - 1)
    return entries


def exact_laws(upper: dict, n: int):
    full = mirrored_entries(upper)
    row_sq = {i: Fraction(0) for i in range(n)}
    joint = {}
    for (i, j), v in full.items():
        m = sq_mag(v)
        if m > 0:
            row_sq[i] += m
            joint[(i, j)] = m
    total = sum(row_sq.values())
    rows = {i: m / total for i, m in row_sq.items() if m > 0}
    joint = {k: m / total for k, m in joint.items()}
    return rows, joint, row_sq


def test_criterion_01_sampling_fidelity(capsys):
    t0 = time.monotonic()
    checked = 0
    for upper, n in sampling_fixtures():
        store = build_store(upper, n)
        want_rows, want_joint, row_sq = exact_laws(upper, n)
        got_rows = {
            int(store._row_ids[k]): p for k, p in prefix_law(store._row_prefix).items()
        }
        assert got_rows == want_rows
        got_joint = {}
        for i, p_row in got_rows.items():
            span = slice(int(store._indptr[i]), int(store._indptr[i + 1]))
            for pos, frac in prefix_law(store._run[span]).items():
                got_joint[(i, int(store._cols[span][pos]))] = p_row * frac
        assert got_joint == want_joint
        checked += 1

    store = build_store(tv_fixture_entries(), 16)
    _, want_joint, _ = exact_laws(tv_fixture_entries(), 16)
    rng = substream(100, 2)
    draws = 100_000
    counts: dict = {}
    for _ in range(draws):
        i = int(store.rows_at(rng.random(1))[0])
        j = store.sample_entry_in_row(i, rng)
        counts[(i, j)] = counts.get((i, j), 0) + 1
    keys = set(counts) | set(want_joint)
    tv = 0.5 * sum(
        abs(counts.get(k, 0) / draws - float(want_joint.get(k, 0))) for k in keys
    )
    elapsed = time.monotonic() - t0
    ok = checked == 3 and tv <= 0.02 and elapsed < 5.0
    announce(
        capsys,
        1,
        "sampling laws exact + empirical",
        ok,
        f"3 fixtures exact, TV {tv:.4f} over {draws} draws, {elapsed:.1f}s",
    )
    assert checked == 3
    assert tv <= 0.02
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. single-row sketch: exact expectation and second-moment bound


def three_by_three_pair() -> MatrixSum:
    a1 = build_store(
        {(0, 0): 0.5, (0, 1): 0.25 + 0.25j, (1, 2): -0.5j, (2, 2): 1.0}, 3
    )
    a2 = build_store({(0, 2): 0.5 - 0.25j, (1, 1): 0.25, (2, 2): -0.5}, 3)
    return MatrixSum([a1, a2], rank=2)


def test_criterion_02_row_sample_expectation(capsys):
    t0 = time.monotonic()
    ms = three_by_three_pair()
    m = dense_realize(ms)
    target = m.conj().T @ m
    acc = np.zeros_like(target)
    for i in range(ms.n):
        prob = ms.row_probability(i)
        if prob == 0.0:
            continue
        s = dense_sketch_rows(ms, np.array([i]), np.array([prob]))
        acc += prob * (s.conj().T @ s)
    exact_err = float(np.linalg.norm(acc - target))

    mass = ms.total_mass()
    bound = (ms.tau + 1) ** 2 * mass**2 / 1
    rng = substream(110, 1)
    sq_errs = []
    for _ in range(200):
        rows, probs = sample_rows(ms, 1, rng)
        s = dense_sketch_rows(ms, rows, probs)
        sq_errs.append(float(np.linalg.norm(target - s.conj().T @ s)) ** 2)
    mean_sq = float(np.mean(sq_errs))
    elapsed = time.monotonic() - t0
    ok = exact_err <= 1e-12 and mean_sq <= 1.5 * bound and elapsed < 10.0
    announce(
        capsys,
        2,
        "single-row expectation + moment",
        ok,
        f"enumeration residual {exact_err:.2e}, moment {mean_sq:.3f} <= {1.5 * bound:.3f}, {elapsed:.1f}s",
    )
    assert exact_err <= 1e-12
    assert mean_sq <= 1.5 * bound
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. rescaled row masses stay sandwiched around the true masses


def test_criterion_03_mass_sandwich(capsys):
    t0 = time.monotonic()
    tau, p, trials = 2, 200, 400
    bad = 0
    for t in range(trials):
        ms = random_matrix_sum(12, tau=tau, rank=2, rng=substream(1300 + t, 1))
        mass = ms.total_mass()
        rows, probs = sample_rows(ms, p, substream(1300 + t, 2))
        scale = 1.0 / (p * probs)
        sketched = sum(
            float(np.dot(scale, [s.row_mass(int(i)) for i in rows]))
            for s in ms.summands
        )
        if not mass / (tau + 1) <= sketched <= mass * (2 * tau + 1) / (tau + 1):
            bad += 1
    rate = bad / trials
    limit = 2 * tau**2 / p + 0.05
    elapsed = time.monotonic() - t0
    ok = rate <= limit and elapsed < 20.0
    announce(
        capsys,
        3,
        "mass sandwich",
        ok,
        f"violation rate {rate:.4f} <= {limit:.4f} over {trials} trials, {elapsed:.1f}s",
    )
    assert rate <= limit
    assert elapsed < 20.0


# ---------------------------------------------------------------------------
# 4. basis quality at the frozen desk-scale operating point


def test_criterion_04_basis_quality(capsys):
    t0 = time.monotonic()
    n, p, gamma = 64, 500, 1e-4
    joint = 0
    for s in range(50):
        ms = shared_axes_pair(n, 400 + s, 1)
        a = dense_realize(ms)
        v = build_sketch(ms, SketchParams(p=p, gamma=gamma), substream(400 + s, 2))
        vd = dense_basis(v)
        proj = np.linalg.norm(a @ vd @ vd.conj().T - a) / np.linalg.norm(a)
        iso = np.linalg.norm(vd.conj().T @ vd - np.eye(v.r_tilde))
        if proj <= 0.1 and iso <= 0.15:
            joint += 1

    medians = []
    for grid_p in (100, 300, 900):
        errs = []
        for s in range(20):
            ms = shared_axes_pair(n, 440 + s, 1)
            a = dense_realize(ms)
            v = build_sketch(
                ms, SketchParams(p=grid_p, gamma=gamma), substream(440 + s, 2, grid_p)
            )
            vd = dense_basis(v)
            errs.append(
                float(np.linalg.norm(a @ vd @ vd.conj().T - a) / np.linalg.norm(a))
            )
        medians.append(float(np.median(errs)))
    monotone = medians[0] >= medians[1] >= medians[2]
    elapsed = time.monotonic() - t0
    ok = joint >= 45 and monotone and elapsed < 180.0
    announce(
        capsys,
        4,
        "projection + near-orthonormality",
        ok,
        f"{joint}/50 joint, medians {[round(x, 3) for x in medians]}, {elapsed:.1f}s",
    )
    assert joint >= 45
    assert monotone
    assert elapsed < 180.0


# ---------------------------------------------------------------------------
# 5. eigenvalue signs survive compression


def test_criterion_05_sign_preservation(capsys):
    t0 = time.monotonic()
    good = 0
    for s in range(100):
        store = random_low_rank(16, 2, substream(500 + s, 1), traceless=True)
        ms = MatrixSum([store], rank=2)
        v = build_sketch(ms, SketchParams(p=200, gamma=1e-4), substream(500 + s, 2))
        core = estimate_vav(
            v,
            ms,
            eps_s=0.05 * v.r_tilde * ms.tau,
            delta=1 / 6,
            rng=substream(500 + s, 3),
        )
        d = decompose(core, basis=v).d
        if d.size == 2 and d[0] > 0 and d[-1] < 0:
            good += 1
    elapsed = time.monotonic() - t0
    ok = good >= 95 and elapsed < 60.0
    announce(
        capsys,
        5,
        "sign preservation",
        ok,
        f"{good}/100 kept one positive and one negative eigenvalue, {elapsed:.1f}s",
    )
    assert good >= 95
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 6. estimated constraint traces track the dense Gibbs state


def test_criterion_06_gibbs_constraint_traces(capsys):
    t0 = time.monotonic()
    beta, p, tolerance = 8.0, 400, 0.1
    good = 0
    worst = 0.0
    for seed in range(100):
        ms = gapped_pair(32, substream(seed, 1))
        rho = dense_gibbs(dense_realize(ms), beta)
        exact = [
            float(np.trace(dense_store(s) @ rho).real) for s in ms.summands
        ]
        v = build_sketch(ms, SketchParams(p=p, gamma=1e-4), substream(seed, 2))
        core = estimate_vav(
            v,
            ms,
            eps_s=0.05 * v.r_tilde * ms.tau,
            delta=1 / 6,
            rng=substream(seed, 3),
        )
        g = make_gibbs(v, decompose(core, basis=v), beta=beta)
        zetas = [
            estimate_constraint_trace(
                g, s, eps=tolerance, delta=1 / 6, rng=substream(seed, 4, ell)
            )
            for ell, s in enumerate(ms.summands)
        ]
        err = max(abs(z - e) for z, e in zip(zetas, exact))
        worst = max(worst, err)
        if err <= tolerance:
            good += 1
    elapsed = time.monotonic() - t0
    ok = good >= 90 and elapsed < 120.0
    announce(
        capsys,
        6,
        "constraint traces vs dense Gibbs",
        ok,
        f"{good}/100 within {tolerance}, worst {worst:.3f}, {elapsed:.1f}s",
    )
    assert good >= 90
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 7. Gibbs perturbation inequalities on dense pairs


def random_hermitian(n: int, rng) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


def test_criterion_07_gibbs_perturbation_bounds(capsys):
    t0 = time.monotonic()
    slack = 1e-9
    violations = 0
    for k in range(100):
        rng = substream(1100 + k, 1)
        a = random_hermitian(8, rng)
        e = 0.02 + 0.78 * float(rng.random())
        pert = random_hermitian(8, rng) * e
        b = a + pert
        beta = 0.2 + 2.8 * float(rng.random())
        rho_a = dense_gibbs(a, beta)
        rho_b = dense_gibbs(b, beta)
        c = random_hermitian(8, rng)
        f = fidelity(rho_a, rho_b)
        if f < math.exp(-beta * e) - slack:
            violations += 1
        gap = abs(float(np.trace(c @ rho_a).real) - float(np.trace(c @ rho_b).real))
        limit = 2.0 * trace_norm(c) * math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * beta * e)))
        if gap > limit + slack:
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 10.0
    announce(
        capsys,
        7,
        "fidelity + trace-distance bounds",
        ok,
        f"{violations} violations beyond {slack} on 100 pairs, {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 8. end-to-end verdicts: trivial fixtures and planted-feasible instances


def outcome_signature(outcome) -> tuple:
    return (outcome.verdict, outcome.iterations_used, tuple(outcome.violation_log))


def test_criterion_08_end_to_end_verdicts(capsys):
    t0 = time.monotonic()
    small = SketchParams(p=200, gamma=1e-8)
    easy = planted_feasible_at_uniform(16, 3, 2, 0.3, substream(1200, 1))
    cfg_easy = SolverConfig(seed=11, t_override=6, sketch=small)
    first = run_feasibility(easy, cfg_easy)
    second = run_feasibility(easy, cfg_easy)
    trivial_ok = (
        first.feasible
        and outcome_signature(first) == outcome_signature(second)
    )
    hopeless = planted_infeasible(12, 0.3, substream(1201, 1))
    cfg_hopeless = SolverConfig(seed=12, t_override=4, sketch=small)
    third = run_feasibility(hopeless, cfg_hopeless)
    fourth = run_feasibility(hopeless, cfg_hopeless)
    trivial_ok = trivial_ok and (
        not third.feasible
        and outcome_signature(third) == outcome_signature(fourth)
    )

    solved = 0
    for s in range(20):
        problem, _ = planted_around_state(32, 4, 2, 0.2, substream(700 + s, 5))
        cfg = SolverConfig(
            seed=700 + s,
            t_override=8,
            eps_est=0.09,
            sketch=SketchParams(p=400, gamma=1e-6),
        )
        outcome = run_feasibility(problem, cfg)
        if not outcome.feasible:
            continue
        x = dense_solution(outcome.witness)
        traces = constraint_traces(problem, x)
        if np.all(traces <= np.asarray(problem.bounds) + problem.eps):
            solved += 1
    elapsed = time.monotonic() - t0
    ok = trivial_ok and solved >= 18 and elapsed < 300.0
    announce(
        capsys,
        8,
        "end-to-end verdicts",
        ok,
        f"trivial fixtures deterministic, {solved}/20 planted solved+verified, {elapsed:.1f}s",
    )
    assert trivial_ok
    assert solved >= 18
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 9. measurement-value recovery through the two-sided encoding


def test_criterion_09_measurement_value_recovery(capsys):
    t0 = time.monotonic()
    good = 0
    worst = 0.0
    for s in range(20):
        effects, values, _ = shadow_instance(32, 2, 0.2, substream(900 + s, 5), rank=2)
        problem = shadow_to_feasibility(effects, values, 0.2)
        cfg = SolverConfig(
            seed=900 + s,
            t_override=8,
            eps_est=0.09,
            sketch=SketchParams(p=400, gamma=1e-6),
        )
        outcome = run_feasibility(problem, cfg)
        if not outcome.feasible:
            continue
        sigma = dense_solution(outcome.witness)
        err = max(
            abs(float(np.trace(dense_store(e) @ sigma).real) - v)
            for e, v in zip(effects, values)
        )
        worst = max(worst, err)
        if err <= 0.2:
            good += 1
    elapsed = time.monotonic() - t0
    ok = good >= 18 and elapsed < 120.0
    announce(
        capsys,
        9,
        "measurement-value recovery",
        ok,
        f"{good}/20 within 0.2 (worst {worst:.3f}), {elapsed:.1f}s",
    )
    assert good >= 18
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 10. witnesses survive the report round trip bit-exactly


def witness_matrix(g, n: int) -> np.ndarray:
    return np.array([[g.query(i, j) for j in range(n)] for i in range(n)])


def test_criterion_10_witness_round_trip(capsys):
    t0 = time.monotonic()
    small = SketchParams(p=200, gamma=1e-8)
    cases = []
    problem_a, _ = planted_one_update(16, 0.25, substream(140, 1))
    cases.append((problem_a, SolverConfig(seed=5, t_override=8, sketch=small)))
    cases.append(
        (
            planted_feasible_at_uniform(12, 3, 2, 0.3, substream(141, 1)),
            SolverConfig(seed=6, t_override=6, sketch=small),
        )
    )
    effects, values, _ = shadow_instance(12, 2, 0.3, substream(142, 1), rank=1)
    cases.append(
        (
            shadow_to_feasibility(effects, values, 0.3),
            SolverConfig(seed=7, t_override=6, eps_est=0.12, margin=0.14, sketch=small),
        )
    )

    exact = 0
    for problem, cfg in cases:
        outcome = run_feasibility(problem, cfg)
        assert outcome.feasible
        chosen = [j for (_, j, _) in outcome.violation_log]
        report = RunReport(
            command="feastest",
            dimension=problem.n,
            seed=cfg.seed,
            epsilon=problem.eps,
            rounds=cfg.t_override,
            verdict="feasible",
            iterations=outcome.iterations_used,
            constraints=problem.m,
            sketch_p=small.p,
            sketch_gamma=small.gamma,
            preset="explicit",
            violations=outcome.violation_log,
            witness=dump_witness(outcome.witness, chosen),
        )
        parsed = parse(render(report))
        rebuilt = rebuild_witness(parsed.witness, problem.constraints, problem.n)
        original = witness_matrix(outcome.witness, problem.n)
        recovered = witness_matrix(rebuilt, problem.n)
        if np.array_equal(original, recovered):
            exact += 1
    elapsed = time.monotonic() - t0
    ok = exact == 3 and elapsed < 30.0
    announce(
        capsys,
        10,
        "witness round trip",
        ok,
        f"{exact}/3 witnesses rebuilt bit-exactly from report text, {elapsed:.1f}s",
    )
    assert exact == 3
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 11. reports do not depend on the thread-count hint


def test_criterion_11_thread_count_determinism(capsys, tmp_path, src_env):
    t0 = time.monotonic()
    problem, _ = planted_one_update(12, 0.25, substream(150, 1))
    manifest = tmp_path / "instance.man"
    write_feasibility_manifest(
        str(manifest), problem.constraints, problem.bounds, problem.eps
    )
    outputs = []
    codes = []
    for threads in ("1", "4"):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "sdpsketch.cli",
                "feastest",
                str(manifest),
                "--seed",
                "9",
                "--p",
                "200",
                "--gamma",
                "1e-8",
                "--max-iters",
                "6",
                "--threads",
                threads,
            ],
            capture_output=True,
            timeout=50,
            env=src_env,
        )
        outputs.append(proc.stdout)
        codes.append(proc.returncode)
    elapsed = time.monotonic() - t0
    identical = outputs[0] == outputs[1] and len(outputs[0]) > 0
    ok = identical and codes[0] == codes[1] == 0 and elapsed < 60.0
    announce(
        capsys,
        11,
        "thread-count determinism",
        ok,
        f"{len(outputs[0])}-byte reports identical across --threads 1/4, {elapsed:.1f}s",
    )
    assert identical
    assert codes[0] == codes[1] == 0
    assert elapsed < 60.0
