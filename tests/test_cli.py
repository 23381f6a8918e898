"""Command-line interface: exit codes, report bytes, and the entry query."""

import builtins
import hashlib
import io
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sdpsketch.cli import main
from sdpsketch.instances import (
    planted_around_state,
    planted_infeasible,
    planted_one_update,
    planted_signed_pair,
    projector_store,
    random_low_rank,
    random_unit_vector,
    shadow_instance,
)
from sdpsketch.manifest import (
    write_feasibility_manifest,
    write_optimize_manifest,
    write_shadow_manifest,
)
from sdpsketch.report import (
    RunReport,
    dump_witness,
    fmt,
    load_report,
    parse,
    rebuild_witness,
    render,
)
from sdpsketch.rng import substream
from sdpsketch.sketch import SketchParams
from sdpsketch.store import SampledMatrix

CHECKOUT = Path(__file__).resolve().parents[1]
FAST = ["--p", "200", "--gamma", "1e-8", "--max-iters", "8", "--seed", "3"]
NO_DIGEST = "error: report has no manifest-sha256 line to check --manifest against\n"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Manifests shared by every test in this module."""
    root = tmp_path_factory.mktemp("cli")

    plant_dir = root / "plant"
    plant_dir.mkdir()
    problem, _ = planted_one_update(16, eps=0.25, rng=substream(151, 1))
    write_feasibility_manifest(
        str(plant_dir / "plant.man"), problem.constraints, problem.bounds, 0.25
    )

    slack_dir = root / "slack"
    slack_dir.mkdir()
    write_feasibility_manifest(
        str(slack_dir / "slack.man"),
        [random_low_rank(16, 2, substream(152, 1))],
        [1.5],
        0.25,
    )

    bad_dir = root / "bad"
    bad_dir.mkdir()
    hard = planted_infeasible(12, eps=0.3, rng=substream(153, 1))
    write_feasibility_manifest(
        str(bad_dir / "bad.man"), hard.constraints, hard.bounds, 0.3
    )

    shadow_dir = root / "shadow"
    shadow_dir.mkdir()
    effects, values, _ = shadow_instance(12, 2, 0.25, substream(154, 1))
    write_shadow_manifest(str(shadow_dir / "shadow.man"), effects, values, 0.25)

    opt_dir = root / "opt"
    opt_dir.mkdir()
    write_optimize_manifest(
        str(opt_dir / "opt.man"),
        projector_store(random_unit_vector(8, substream(155, 1))),
        [random_low_rank(8, 1, substream(155, 2))],
        [2.0],
        eps=0.25,
    )

    # The instance of README's Python API section.
    readme_dir = root / "readme"
    readme_dir.mkdir()
    problem, _ = planted_around_state(n=32, m=4, rank=2, eps=0.2, rng=substream(3, 5))
    write_feasibility_manifest(
        str(readme_dir / "readme.man"), problem.constraints, problem.bounds, problem.eps
    )

    return {
        "plant": str(plant_dir / "plant.man"),
        "readme": str(readme_dir / "readme.man"),
        "slack": str(slack_dir / "slack.man"),
        "bad": str(bad_dir / "bad.man"),
        "shadow": str(shadow_dir / "shadow.man"),
        "opt": str(opt_dir / "opt.man"),
        "values": values,
        "root": root,
    }


def run_cli(argv):
    """In-process invocation; returns (exit code, stdout text)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestFeastest:
    def test_feasible_run(self, work, tmp_path):
        out = str(tmp_path / "run.rep")
        code, _ = run_cli(["feastest", work["plant"], *FAST, "--out", out])
        assert code == 0
        report = load_report(out)
        assert report.verdict == "feasible"
        assert report.command == "feastest"
        assert report.iterations == 2
        assert report.preset == "explicit"
        assert report.sketch_p == 200
        assert report.witness is not None and report.witness.kind == "gibbs"
        assert report.manifest_sha is not None

    def test_infeasible_run_exits_one(self, work):
        code, text = run_cli(
            ["feastest", work["bad"], "--p", "150", "--gamma", "1e-8",
             "--max-iters", "3", "--seed", "3"]
        )
        assert code == 1
        report = parse(text)
        assert report.verdict == "infeasible"
        assert report.iterations == 3
        assert report.witness is None
        assert len(report.violations) == 3

    def test_uniform_witness_on_slack_problem(self, work):
        code, text = run_cli(["feastest", work["slack"], *FAST])
        assert code == 0
        report = parse(text)
        assert report.iterations == 1
        assert report.witness.kind == "uniform"

    def test_epsilon_override_is_recorded(self, work):
        code, text = run_cli(
            ["feastest", work["slack"], *FAST, "--epsilon", "0.5"]
        )
        assert code == 0
        assert parse(text).epsilon == 0.5


class TestDeterminism:
    def test_identical_bytes_across_runs_and_threads(self, work, tmp_path, src_env):
        outs = []
        for k, threads in enumerate(("1", "4")):
            out = str(tmp_path / f"det{k}.rep")
            r = subprocess.run(
                [sys.executable, "-m", "sdpsketch.cli", "feastest",
                 work["plant"], *FAST, "--threads", threads, "--out", out],
                capture_output=True,
                text=True,
                env=src_env,
            )
            assert r.returncode == 0, r.stderr
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_seed_changes_bytes(self, work):
        _, a = run_cli(["feastest", work["plant"], *FAST])
        _, b = run_cli(
            ["feastest", work["plant"], *FAST[:-1], "4"]
        )
        assert a != b

    def test_timings_flag_adds_lines(self, work):
        code, text = run_cli(["feastest", work["slack"], *FAST, "--timings"])
        assert code == 0
        report = parse(text)
        assert [name for name, _ in report.timings] == ["load", "solve"]


class TestShadow:
    def test_estimates_track_planted_values(self, work):
        code, text = run_cli(["shadow", work["shadow"], *FAST + ["--max-iters", "12"]])
        assert code == 0
        report = parse(text)
        assert report.verdict == "feasible"
        assert report.constraints == 6  # two-sided encoding of three effects
        assert len(report.estimates) == 3
        for est, val in zip(report.estimates, work["values"]):
            assert abs(est - val) <= 0.25


class TestOracle:
    def test_verdicts_agree_with_sampled_solver(self, work):
        code, text = run_cli(["oracle", work["plant"], "--seed", "3"])
        assert code == 0
        assert parse(text).command == "oracle"
        code, text = run_cli(["oracle", work["bad"], "--max-iters", "3"])
        assert code == 1
        assert parse(text).verdict == "infeasible"

    def test_report_names_no_sketch(self, work):
        """The dense loop builds no sketch, so --p and --gamma leave no trace."""
        plain = run_cli(["oracle", work["bad"], "--max-iters", "3"])
        flagged = run_cli(["oracle", work["bad"], "--p", "200", "--gamma", "1e-8", "--max-iters", "3"])
        assert flagged == plain
        assert parse(plain[1]).preset == "scaled"

    def test_numpy_loads_after_the_kernels_are_pinned(self, src_env):
        """Importing the CLI loads no numpy, so `main` pins threads first."""
        probe = "import sys, sdpsketch.cli; print('numpy' in sys.modules)"
        r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=src_env)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "False\n"


class TestOptimize:
    def test_value_and_witness(self, work):
        code, text = run_cli(["feastest", work["opt"], *FAST])
        assert code == 0
        report = parse(text)
        assert report.command == "optimize"
        assert report.value == 0.75  # 1 - eps_outer at eps_outer = 0.25
        assert report.calls == 2
        assert report.witness is not None


class TestEntry:
    def test_uniform_entry(self, work, tmp_path):
        out = str(tmp_path / "uni.rep")
        run_cli(["feastest", work["slack"], *FAST, "--out", out])
        code, text = run_cli(["entry", out, "1", "1"])
        assert code == 0
        assert text.strip() == "0.0625 0"
        code, text = run_cli(["entry", out, "1", "2"])
        assert text.strip() == "0 0"

    def test_gibbs_entry_round_trips_bit_exactly(self, work, tmp_path):
        out = str(tmp_path / "wit.rep")
        run_cli(["feastest", work["plant"], *FAST, "--out", out])
        report = load_report(out)
        from sdpsketch.manifest import load_feasibility

        constraints = load_feasibility(work["plant"]).constraints
        rebuilt = rebuild_witness(report.witness, constraints, report.dimension)
        for row, col in [(1, 1), (3, 7), (16, 16)]:
            code, text = run_cli(
                ["entry", out, str(row), str(col), "--manifest", work["plant"]]
            )
            assert code == 0
            z = rebuilt.query(row - 1, col - 1)
            assert text.strip() == f"{fmt(z.real)} {fmt(z.imag)}"

    @pytest.mark.parametrize("seed", [1, 3])
    def test_reused_sketch_witness_round_trips_bit_exactly(self, tmp_path, monkeypatch, seed):
        """A witness whose round reused the first sketch names that sketch's
        exponent and the scaled beta, and rebuilds to the run's bits."""
        from sdpsketch import solver

        builds = []
        real = solver.build_sketch

        def counting(ms, params, rng):
            builds.append(ms.tau)
            return real(ms, params, rng)

        monkeypatch.setattr(solver, "build_sketch", counting)
        problem = planted_signed_pair(16, 0.3, substream(seed, 1))
        config = solver.SolverConfig(
            seed=seed, t_override=40, sketch=SketchParams(p=200, gamma=1e-6)
        )
        out = solver.test_feasibility(problem, config)
        violated = [j for _, j, _ in out.violation_log]
        assert out.feasible and len(violated) >= 2 and set(violated) == {0}
        assert builds == [1]
        assert out.exponent == [0]
        assert out.witness.beta == len(violated) * (config.beta_scale * problem.eps)

        pairs = [(0, 0), (0, 5), (3, 3), (7, 12), (15, 15)]
        dump = parse(render(RunReport(
            command="feastest", dimension=16, seed=seed, epsilon=0.3, rounds=40,
            constraints=1, verdict="feasible", iterations=out.iterations_used,
            violations=out.violation_log, witness=dump_witness(out.witness, out.exponent),
        ))).witness
        rebuilt = rebuild_witness(dump, problem.constraints, 16)
        for i, j in pairs:
            assert rebuilt.query(i, j) == out.witness.query(i, j)

        manifest = str(tmp_path / "pair.man")
        write_feasibility_manifest(manifest, problem.constraints, problem.bounds, 0.3)
        report = str(tmp_path / "pair.rep")
        flags = ["--p", "200", "--gamma", "1e-6", "--max-iters", "40", "--seed", str(seed)]
        assert run_cli(["feastest", manifest, *flags, "--out", report])[0] == 0
        loaded = load_report(report).witness
        assert (loaded.exponent, loaded.beta) == ([0], out.witness.beta)
        for i, j in pairs:
            code, text = run_cli(["entry", report, str(i + 1), str(j + 1), "--manifest", manifest])
            z = out.witness.query(i, j)
            assert (code, text) == (0, f"{fmt(z.real)} {fmt(z.imag)}\n")

    def test_gibbs_entry_requires_manifest(self, work, tmp_path):
        out = str(tmp_path / "wit2.rep")
        run_cli(["feastest", work["plant"], *FAST, "--out", out])
        code, _ = run_cli(["entry", out, "1", "1"])
        assert code == 2

    def test_mismatched_manifest_rejected(self, work, tmp_path):
        out = str(tmp_path / "wit3.rep")
        run_cli(["feastest", work["plant"], *FAST, "--out", out])
        code, _ = run_cli(
            ["entry", out, "1", "1", "--manifest", work["slack"]]
        )
        assert code == 2

    def test_out_of_range_indices(self, work, tmp_path):
        out = str(tmp_path / "uni2.rep")
        run_cli(["feastest", work["slack"], *FAST, "--out", out])
        code, _ = run_cli(["entry", out, "17", "1"])
        assert code == 2

    @pytest.mark.parametrize(
        "prefix, edit, message",
        [
            ("rows ", lambda v: [v[1], v[0], *v[2:]], "rows must be strictly increasing"),
            ("rows ", lambda v: ["0", *v[1:]], "rows must lie in [1, 16]"),
            ("rows ", lambda v: [*v[:-1], "17"], "rows must lie in [1, 16]"),
            ("row-probs ", lambda v: ["0", *v[1:]], "row-probs must be positive and finite"),
            ("counts ", lambda v: ["0", *v[1:]], "counts must be positive"),
            ("counts ", lambda v: ["1.5", *v[1:]], "bad integer '1.5'"),
            ("counts ", lambda v: [str(int(v[0]) + 1), *v[1:]], "counts sum to 201, p says 200"),
            ("row-probs ", lambda v: v[:-1], "row-probs lists {d1} values for {d} rows"),
            ("counts ", lambda v: [str(int(v[0]) + int(v[-1])), *v[1:-1]],
             "counts lists {d1} values for {d} rows"),
            ("left 1 ", lambda v: v[:-2], "left 1 lists {d1} values for {d} rows"),
            ("sdpsketch-report ", lambda v: ["1"],
             "report version 1 is not read; this reader takes version 2"),
            ("p ", lambda v: ["2x00"], "bad integer '2x00'"),
            ("seed ", lambda v: ["9x"], "bad integer '9x'"),
            ("beta ", lambda v: ["zz"], "bad float 'zz'"),
            ("exponent ", lambda v: ["0", *v[1:]], "exponent entries must be at least 1"),
            ("witness ", lambda v: [], "witness takes one value"),
            ("left ", lambda v: [], "left takes an index"),
            ("core-u ", lambda v: [], "core-u takes an index"),
            ("beta ", lambda v: ["nan"], "beta must be nonnegative and finite"),
            ("beta ", lambda v: ["inf"], "beta must be nonnegative and finite"),
            ("beta ", lambda v: ["-1"], "beta must be nonnegative and finite"),
            ("sigma ", lambda v: ["0", *v[1:]], "sigma must be positive and finite"),
            ("sigma ", lambda v: ["nan", *v[1:]], "sigma must be positive and finite"),
            ("core-d ", lambda v: ["nan", *v[1:]], "core-d must be finite"),
            ("left 1 ", lambda v: ["nan"] * len(v), "left 1 must be finite"),
            ("core-u 1 ", lambda v: ["inf", *v[1:]], "core-u 1 must be finite"),
            ("rank ", lambda v: ["0"], "rank must be at least 1"),
            ("rank ", lambda v: ["-1"], "rank must be at least 1"),
            ("violation ", lambda v: ["0", *v[1:]], "violation round must be at least 1"),
            ("violation ", lambda v: [v[0], "0", v[2]], "violation constraint must be at least 1"),
            ("dimension ", lambda v: ["0"], "dimension must be at least 1"),
            ("rounds ", lambda v: ["-2"], "rounds must be at least 1"),
            ("iterations ", lambda v: ["-5"], "iterations must be at least 1"),
            ("tau ", lambda v: ["0"], "tau must be at least 1"),
        ],
        ids=[
            "rows_not_increasing", "row_zero", "row_past_dimension", "row_prob_zero",
            "count_zero", "count_not_integer", "counts_sum_off", "row_probs_short",
            "counts_short", "left_short", "version_1", "p_not_integer",
            "seed_not_integer", "beta_not_float", "exponent_zero", "witness_bare",
            "left_bare", "core_u_bare", "beta_nan", "beta_inf", "beta_negative",
            "sigma_zero", "sigma_nan", "core_d_nan", "left_nan", "core_u_inf",
            "rank_zero", "rank_negative", "violation_round_zero", "violation_constraint_zero",
            "dimension_zero", "rounds_negative", "iterations_negative", "tau_zero",
        ],
    )
    def test_bad_witness_line_named(self, work, tmp_path, capsys, prefix, edit, message):
        out = tmp_path / "wit4.rep"
        run_cli(["feastest", work["plant"], *FAST, "--out", str(out)])
        lines = out.read_text().splitlines()
        at = next(k for k, line in enumerate(lines) if line.startswith(prefix))
        d = len(next(line for line in lines if line.startswith("rows ")).split()) - 1
        head = prefix.split()
        lines[at] = " ".join(head + edit(lines[at].split()[len(head):]))
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code, _ = run_cli(["entry", str(out), "1", "1", "--manifest", work["plant"]])
        assert code == 2
        message = message.format(d=d, d1=d - 1)
        assert capsys.readouterr().err == f"error: report line {at + 1}: {message}\n"

    @pytest.mark.parametrize(
        "key", ["exponent", "rows", "row-probs", "counts", "sigma", "core-d", "witness"]
    )
    def test_repeated_payload_line_named(self, work, tmp_path, capsys, key):
        out = tmp_path / "wit5.rep"
        run_cli(["feastest", work["plant"], *FAST, "--out", str(out)])
        lines = out.read_text().splitlines()
        at = next(k for k, line in enumerate(lines) if line.split()[0] == key)
        lines.insert(at + 1, lines[at])
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code, _ = run_cli(["entry", str(out), "1", "1", "--manifest", work["plant"]])
        assert code == 2
        assert capsys.readouterr().err == f"error: report line {at + 2}: duplicate '{key}'\n"

    def test_empty_witness_names_p_line(self, tmp_path, capsys):
        """A gibbs witness of no row draws, consistent line by line, is refused at p."""
        problem, _ = planted_one_update(12, eps=0.25, rng=substream(1, 1))
        manifest = str(tmp_path / "p.man")
        write_feasibility_manifest(manifest, problem.constraints, problem.bounds, 0.25)
        out = tmp_path / "empty.rep"
        flags = ["--seed", "9", "--p", "200", "--gamma", "1e-8", "--max-iters", "6"]
        assert run_cli(["feastest", manifest, *flags, "--out", str(out)])[0] == 0
        lines = out.read_text().splitlines()
        assert "rank 1" in lines
        for k, line in enumerate(lines):
            key = line.split()[0]
            if key == "p":
                lines[k], at = "p 0", k
            elif key in ("rows", "row-probs", "counts") or line.startswith("left 1 "):
                lines[k] = " ".join(line.split()[: 2 if key == "left" else 1])
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code, _ = run_cli(["entry", str(out), "1", "1", "--manifest", manifest])
        assert code == 2
        assert capsys.readouterr().err == f"error: report line {at + 1}: p must be at least 1\n"

    def test_exponent_past_manifest_exits_two(self, work, tmp_path, capsys):
        out = tmp_path / "wit5.rep"
        run_cli(["feastest", work["readme"], "--seed", "3", "--out", str(out)])
        text = out.read_text()
        assert "\nconstraints 4\n" in text and "\nexponent 1\n" in text
        out.write_text(text.replace("\nexponent 1\n", "\nexponent 9\n"))
        capsys.readouterr()
        code, _ = run_cli(["entry", str(out), "1", "1", "--manifest", work["readme"]])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: witness exponent names constraint 9, past the 4 of the manifest\n"
        )

    def test_manifest_of_another_dimension_exits_two(self, work, tmp_path, capsys):
        out = tmp_path / "wit7.rep"
        run_cli(["feastest", work["readme"], "--seed", "3", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert "dimension 32" in lines and "exponent 1" in lines
        # Without the digest line nothing ties the manifest to the run, so
        # the report is refused before the manifest is read.
        kept = [line for line in lines if not line.startswith("manifest-sha256 ")]
        out.write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        code, _ = run_cli(["entry", str(out), "1", "1", "--manifest", work["opt"]])
        assert code == 2
        assert capsys.readouterr().err == NO_DIGEST

    def test_gibbs_report_without_digest_exits_two(self, tmp_path, capsys):
        """Another manifest of the same dimension would rebuild a wrong witness."""
        manifests = []
        for key in (1, 2):
            problem, _ = planted_one_update(12, eps=0.25, rng=substream(key, 1))
            (tmp_path / str(key)).mkdir()
            manifests.append(str(tmp_path / str(key) / "p.man"))
            write_feasibility_manifest(manifests[-1], problem.constraints, problem.bounds, 0.25)
        out = tmp_path / "run.rep"
        flags = ["--seed", "9", "--p", "200", "--gamma", "1e-8", "--max-iters", "6"]
        assert run_cli(["feastest", manifests[0], *flags, "--out", str(out)])[0] == 0
        lines = out.read_text().splitlines()
        assert "witness gibbs" in lines
        kept = [line for line in lines if not line.startswith("manifest-sha256 ")]
        out.write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        assert run_cli(["entry", str(out), "1", "1", "--manifest", manifests[1]]) == (2, "")
        assert capsys.readouterr().err == NO_DIGEST

    def test_undecodable_report_names_line(self, work, tmp_path, capsys):
        out = tmp_path / "wit6.rep"
        run_cli(["feastest", work["plant"], *FAST, "--out", str(out)])
        lines = out.read_bytes().split(b"\n")
        lines[3] += b"\xe9"
        out.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        code, _ = run_cli(["entry", str(out), "1", "1", "--manifest", work["plant"]])
        assert code == 2
        assert capsys.readouterr().err == f"error: {out}:4: invalid UTF-8 byte 0xe9\n"


def copy_manifest(work, key, tmp_path):
    """A private copy of one manifest's directory; returns the manifest path."""
    source = Path(work[key])
    shutil.copytree(source.parent, tmp_path / key)
    return tmp_path / key / source.name


def watch_opens(monkeypatch, target, on_first=None):
    """Record every open of ``target``, from any module (`builtins.open`).

    With ``on_first``, the first open reads the file's bytes, calls
    ``on_first()`` and returns those bytes in memory, so ``on_first`` can
    rewrite the file before anything could read it again.
    """
    real_open = builtins.open
    opened = []

    def watching(path, *args, **kwargs):
        if isinstance(path, (str, Path)) and os.fspath(path) == os.fspath(target):
            opened.append(path)
            if on_first is not None and len(opened) == 1:
                with real_open(path, "rb") as fh:
                    data = fh.read()
                on_first()
                return io.BytesIO(data)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", watching)
    return opened


def report_digest(path) -> str:
    return next(
        line.split()[1] for line in Path(path).read_text().splitlines()
        if line.startswith("manifest-sha256 ")
    )


class TestManifestReads:
    """Each command reads its manifest once, and the report pins those bytes."""

    @pytest.mark.parametrize(
        "command, key",
        [("feastest", "plant"), ("feastest", "opt"), ("shadow", "shadow"), ("oracle", "plant")],
        ids=["feastest", "feastest_optimize", "shadow", "oracle"],
    )
    def test_each_command_opens_its_manifest_once(self, work, tmp_path, monkeypatch,
                                                  command, key):
        out = tmp_path / "run.rep"
        opened = watch_opens(monkeypatch, work[key])
        code, _ = run_cli([command, work[key], *FAST, "--out", str(out)])
        assert code in (0, 1)
        assert len(opened) == 1
        assert report_digest(out) == hashlib.sha256(Path(work[key]).read_bytes()).hexdigest()

    def test_report_pins_the_bytes_parsed(self, work, tmp_path, monkeypatch):
        """A manifest rewritten during the solve leaves the report's digest alone."""
        from sdpsketch import solver

        man = copy_manifest(work, "plant", tmp_path)
        parsed = man.read_bytes()
        original = solver.test_feasibility

        def rewriting(problem, config):
            with open(man, "ab") as fh:
                fh.write(b"# rewritten during the solve\n")
            return original(problem, config)

        monkeypatch.setattr(solver, "test_feasibility", rewriting)
        out = tmp_path / "run.rep"
        code, _ = run_cli(["feastest", str(man), *FAST, "--out", str(out)])
        assert code == 0
        assert man.read_bytes() != parsed
        assert report_digest(out) == hashlib.sha256(parsed).hexdigest()

    def test_entry_parses_the_bytes_it_checked(self, work, tmp_path, monkeypatch):
        """`entry` opens its manifest once: a rewrite after that read is never parsed."""
        man = copy_manifest(work, "plant", tmp_path)
        out = tmp_path / "wit.rep"
        run_cli(["feastest", str(man), *FAST, "--out", str(out)])
        argv = ["entry", str(out), "3", "7", "--manifest", str(man)]
        want = run_cli(argv)
        assert want[0] == 0
        opened = watch_opens(monkeypatch, man, on_first=lambda: man.write_text("kind sudoku\n"))
        assert run_cli(argv) == want
        assert len(opened) == 1

    def test_entry_checks_the_digest_before_parsing(self, work, tmp_path, capsys):
        man = copy_manifest(work, "plant", tmp_path)
        out = tmp_path / "wit.rep"
        run_cli(["feastest", str(man), *FAST, "--out", str(out)])
        man.write_text("kind sudoku\n")
        actual = hashlib.sha256(b"kind sudoku\n").hexdigest()
        capsys.readouterr()
        code, _ = run_cli(["entry", str(out), "1", "1", "--manifest", str(man)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: manifest hash {actual} does not match the report's {report_digest(out)}\n"
        )


class TestErrorPaths:
    def test_missing_manifest(self):
        code, _ = run_cli(["feastest", "/nonexistent/x.man", *FAST])
        assert code == 2

    def test_malformed_manifest(self, tmp_path):
        bad = tmp_path / "broken.man"
        bad.write_text("kind feasibility\ndimension nope\n")
        code, _ = run_cli(["feastest", str(bad), *FAST])
        assert code == 2

    def test_p_without_gamma(self, work):
        code, _ = run_cli(["feastest", work["slack"], "--p", "100"])
        assert code == 2

    @pytest.mark.parametrize(
        "body, line",
        [
            (b"n 4 rank 1\n1 1 1 0\n3 5 1 0\n", 3),
            (b"n 4 rank 1\n1 1 1 0\n2 3 1 0\n1 1 2 0\n", 4),
            (b"n 4 rank 1\n1 1 1 0 # caf\xc3\xa9\n2 3 1 0 # \xff\n", 3),
            (b"n 4 rank 1\n1 1 1 0\n1 2 nan 0\n", 3),
        ],
        ids=["index_past_n", "duplicate_entry", "invalid_utf8", "nan_value"],
    )
    def test_malformed_matrix_file(self, tmp_path, capsys, body, line):
        man = tmp_path / "m.man"
        write_feasibility_manifest(
            str(man), [random_low_rank(4, 1, substream(156, 1))], [1.5], 0.25,
            with_hashes=False,
        )
        (tmp_path / "constraint_0.mat").write_bytes(body)
        code, _ = run_cli(["feastest", str(man), *FAST])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'constraint_0.mat'}:{line}: ")

    @pytest.mark.parametrize(
        "flags, named",
        [(["--p", "0", "--gamma", "1e-6"], "--p"), (["--p", "10", "--gamma", "-1"], "--gamma")],
        ids=["p_zero", "gamma_negative"],
    )
    def test_bad_sketch_flag_names_the_flag(self, work, capsys, flags, named):
        code, text = run_cli(["feastest", work["slack"], *flags])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith(f"error: {named} must be positive")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "--seed must be nonnegative, got -1"),
            (["--beta-scale", "inf"], "--beta-scale must be positive and finite, got inf"),
            (["--beta-scale", "nan"], "--beta-scale must be positive and finite, got nan"),
            (["--p", "10", "--gamma", "inf"], "--gamma must be positive and finite, got inf"),
            (["--threads", "0"], "--threads must be positive, got 0"),
            (["--threads", "-1"], "--threads must be positive, got -1"),
            (["--max-iters", "0"], "--max-iters must be positive, got 0"),
            (["--delta", "nan"], "--delta must lie in (0, 1), got nan"),
            (["--epsilon", "nan"], "--epsilon must lie in (0, 1), got nan"),
        ],
        ids=[
            "seed_negative", "beta_scale_inf", "beta_scale_nan", "gamma_inf",
            "threads_zero", "threads_negative", "max_iters_zero", "delta_nan",
            "epsilon_nan",
        ],
    )
    def test_bad_flag_value_names_the_flag(self, work, capsys, flags, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run_cli(["feastest", work["slack"], *flags])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["feastest", "shadow", "oracle"])
    def test_flags_are_checked_before_the_manifest(self, capsys, command):
        code, text = run_cli([command, "/nonexistent/x.man", "--seed", "-1"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("command", ["feastest", "oracle"])
    def test_one_by_one_problem_runs_a_round(self, tmp_path, command):
        """ceil(16 ln 1 / eps^2) is 0; the budget still holds one round."""
        man = str(tmp_path / "one.man")
        write_feasibility_manifest(man, [SampledMatrix([0], [0], [0.5], 1, 1)], [1.0], 0.25)
        code, text = run_cli([command, man, "--seed", "1"])
        assert code == 0
        report = parse(text)
        assert (report.verdict, report.rounds, report.iterations) == ("feasible", 1, 1)

    def test_core_above_budget_exits_two(self, tmp_path, capsys, monkeypatch):
        from sdpsketch import sketch

        # Lowered so that a missing check costs kilobytes, not gigabytes:
        # the 20 draws over one store fit, and the distinct core of a
        # projector spread over n = 128 does not.
        hard = planted_infeasible(128, eps=0.3, rng=substream(153, 1))
        path = str(tmp_path / "wide.man")
        write_feasibility_manifest(path, hard.constraints, hard.bounds, 0.3)
        budget = 20 * (sketch._DRAW_BYTES + sketch._DRAW_BYTES_PER_STORE)
        monkeypatch.setattr(sketch, "MAX_SKETCH_BYTES", budget)
        code, _ = run_cli(
            ["feastest", path, "--p", "20", "--gamma", "1e-8",
             "--max-iters", "2", "--seed", "3"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sketch core of ")
        assert f"exceeds the sketch budget of {budget:,} bytes" in err

    def test_p_above_svd_cap_exits_zero(self, work):
        # The README instance: its core has at most 32 x 32 distinct
        # entries however large p is.
        code, text = run_cli(
            ["feastest", work["readme"], "--seed", "3", "--p", "20000", "--gamma", "1e-6",
             "--max-iters", "8"]
        )
        assert code == 0
        assert "\np 20000\n" in text

    def test_report_size_does_not_grow_with_p(self, work):
        # The witness lists distinct sampled rows, at most n = 32 of them.
        sizes = []
        for p in ("5000", "20000"):
            code, text = run_cli(
                ["feastest", work["readme"], "--seed", "3", "--p", p, "--gamma", "1e-6"]
            )
            assert code == 0
            assert f"\np {p}\n" in text
            sizes.append(len(text.encode("ascii")))
        assert abs(sizes[1] - sizes[0]) <= 1024

    def test_unexpected_exception_exits_two(self, work, capsys, monkeypatch):
        from sdpsketch import solver

        def broken(problem, config):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr(solver, "test_feasibility", broken)
        code, text = run_cli(["feastest", work["slack"], *FAST])
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err == "error: internal: RuntimeError: first line second line\n"

    def test_utf8_comments_load(self, tmp_path):
        mat = random_low_rank(4, 1, substream(156, 1))
        man = tmp_path / "u.man"
        write_feasibility_manifest(str(man), [mat], [1.5], 0.25, with_hashes=False)
        path = tmp_path / "constraint_0.mat"
        path.write_text("# résumé\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        man.write_text("# Größe ✓\n" + man.read_text(encoding="utf-8"), encoding="utf-8")
        code, text = run_cli(["feastest", str(man), *FAST])
        assert code == 0
        assert parse(text).verdict == "feasible"

    def test_invalid_utf8_in_manifest_names_line(self, tmp_path, capsys):
        man = tmp_path / "m.man"
        write_feasibility_manifest(
            str(man), [random_low_rank(4, 1, substream(156, 1))], [1.5], 0.25,
            with_hashes=False,
        )
        lines = man.read_bytes().split(b"\n")
        lines[2] += b" # \xff"
        man.write_bytes(b"\n".join(lines))
        code, _ = run_cli(["feastest", str(man), *FAST])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {man}:3: ")

    def test_console_script_is_installed(self, work, tmp_path, src_env):
        """The `sdpsketch` script that pyproject.toml declares runs `feastest`.

        The launcher is the one an installer writes for the declared target,
        run against this checkout's `src`, so no install is needed.  Where an
        `sdpsketch` is installed on PATH it must print the same bytes, so a
        stale or miswired install still fails.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(CHECKOUT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["sdpsketch"]
        launcher = tmp_path / "sdpsketch"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"sys.exit(EntryPoint('sdpsketch', {target!r}, 'console_scripts')"
            ".load()())\n"
        )
        launcher.chmod(0o755)
        argv = ["feastest", work["slack"], *FAST]
        r = subprocess.run([str(launcher), *argv], capture_output=True, env=src_env)
        assert r.returncode == 0, r.stderr.decode()
        assert r.stdout.startswith(b"sdpsketch-report 2\n")

        installed = shutil.which("sdpsketch")
        if installed is not None:
            s = subprocess.run([installed, *argv], capture_output=True)
            assert s.returncode == 0, s.stderr.decode()
            assert s.stdout == r.stdout, f"{installed} differs from the checkout"


class TestScripts:
    """The experiment scripts run end to end on small inputs."""

    @pytest.mark.parametrize(
        "script, args",
        [
            ("planted_demo.py", ["--n", "12", "--m", "2", "--rounds", "2", "--p", "100"]),
            ("sketch_quality.py", ["--n", "16", "--grid", "50", "--trials", "1"]),
        ],
    )
    def test_script_runs(self, script, args, src_env, tmp_path):
        r = subprocess.run(
            [sys.executable, str(CHECKOUT / "scripts" / script), *args],
            capture_output=True,
            text=True,
            env=src_env,
            cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout


class TestReadmeReport:
    def test_example_block_is_what_its_command_prints(self, work):
        """README's report block, less the digest line, is its command's output.

        The command is the last `sdpsketch feastest` line above the block,
        run on the instance of README's Python API section; a line cut
        with " ..." matches as a prefix.
        """
        text = (CHECKOUT / "README.md").read_text(encoding="utf-8")
        head, block = text.split("```\nsdpsketch-report 2\n", 1)
        command = [line for line in head.splitlines() if line.startswith("sdpsketch feastest ")]
        flags = command[-1].split()[3:]
        code, out = run_cli(["feastest", work["readme"], *flags])
        assert code == 0
        got = [line for line in out.splitlines() if not line.startswith("manifest-sha256 ")]
        want = ["sdpsketch-report 2", *block.split("```", 1)[0].splitlines()]
        assert len(got) == len(want)
        for line, shown in zip(got, want):
            if shown.endswith(" ..."):
                assert line.startswith(shown[: -len("...")])
            else:
                assert line == shown
