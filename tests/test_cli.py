"""Command-line interface: exit codes, report bytes, and the entry query."""

import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sdpsketch.cli import main
from sdpsketch.instances import (
    planted_infeasible,
    planted_one_update,
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
from sdpsketch.report import fmt, load_report, parse, rebuild_witness
from sdpsketch.rng import substream

CHECKOUT = Path(__file__).resolve().parents[1]
FAST = ["--p", "200", "--gamma", "1e-8", "--max-iters", "8", "--seed", "3"]


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

    return {
        "plant": str(plant_dir / "plant.man"),
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

    def test_p_above_dense_cap_exits_two(self, work, capsys, monkeypatch):
        from sdpsketch import linalg

        # Lowered so that a missing check costs megabytes, not gigabytes.
        monkeypatch.setattr(linalg, "MAX_DENSE_DIM", 100)
        code, _ = run_cli(
            ["feastest", work["bad"], "--p", "101", "--gamma", "1e-8",
             "--max-iters", "2", "--seed", "3"]
        )
        assert code == 2
        assert "exceeds the dense size cap 100" in capsys.readouterr().err

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
        assert r.stdout.startswith(b"sdpsketch-report 1\n")

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
