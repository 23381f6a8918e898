"""`scripts/bench_pairs.py` summaries on synthetic paired runs."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def paired_runs(parent, change):
    """Run records as `bench_pairs.main` keeps them, with one metric."""
    return [
        {
            "parent": {"metrics": {"solve_s": {"value": float(p)}}},
            "change": {"metrics": {"solve_s": {"value": float(c)}}},
        }
        for p, c in zip(parent, change)
    ]


@pytest.fixture(scope="module")
def bench_pairs():
    return load_script()


@pytest.fixture(scope="module")
def a_a():
    """Ten pairs whose two sides share one law: 2% noise about 1 ms."""
    rng = np.random.default_rng(7)
    return 1e-3 * rng.lognormal(0.0, 0.02, size=(2, 10))


def test_a_a_interval_contains_one(bench_pairs, a_a):
    ratio = bench_pairs.summarize(paired_runs(*a_a), {"solve_s": "lower"})["solve_s"]["ratio"]
    assert ratio["low"] <= 1.0 <= ratio["high"]
    assert ratio["low"] <= ratio["median"] <= ratio["high"]
    assert ratio["coverage"] == pytest.approx(1.0 - 2.0 * 11 / 1024)


def test_uniform_shift_interval_excludes_one(bench_pairs, a_a):
    parent, change = a_a
    got = bench_pairs.summarize(paired_runs(parent, 1.1 * change), {"solve_s": "lower"})
    ratio = got["solve_s"]["ratio"]
    assert 1.0 < ratio["low"] <= ratio["median"] <= ratio["high"]
    assert ratio["median"] == pytest.approx(1.1, rel=0.05)
    assert got["solve_s"]["parent_wins"] == 10


def test_interval_is_the_second_and_ninth_of_ten(bench_pairs):
    ratios = [1.0 + 0.01 * k for k in (3, 9, 0, 5, 1, 7, 2, 8, 6, 4)]
    ratio = bench_pairs.ratio_interval(ratios)
    assert (ratio["low"], ratio["high"]) == (1.01, 1.08)
    assert ratio["median"] == pytest.approx(1.045)


def git(root, *args):
    """Run git in `root` under a fixed identity; its stripped stdout."""
    cmd = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args]
    return subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def checkouts(tmp_path):
    """A committed git checkout holding BENCHMARK.json, and a plain directory."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    repo, plain = tmp_path / "repo", tmp_path / "plain"
    repo.mkdir()
    plain.mkdir()
    (repo / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "solve_s", "better": "lower"}]})
    )
    git(repo, "init", "-q")
    git(repo, "add", "BENCHMARK.json")
    git(repo, "commit", "-q", "-m", "benchmark")
    return repo, plain, git(repo, "rev-parse", "HEAD")


def test_checkout_state(bench_pairs, checkouts):
    repo, plain, head = checkouts
    assert bench_pairs.checkout_state(str(repo)) == {"commit": head, "dirty": False}
    (repo / "BENCHMARK.json").write_text("{}")
    assert bench_pairs.checkout_state(str(repo)) == {"commit": head, "dirty": True}
    (repo / "sub").mkdir()
    for root in (plain, repo / "sub"):
        assert bench_pairs.checkout_state(str(root)) == {"commit": None, "dirty": None}


def test_record_and_printout_name_the_trees(bench_pairs, checkouts, monkeypatch, capsys):
    repo, plain, head = checkouts
    (repo / "new.txt").write_text("untracked")
    out = plain.parent / "out"
    out.mkdir()
    monkeypatch.setattr(
        bench_pairs,
        "run_once",
        lambda root, *args: {"metrics": {"solve_s": {"value": 1.0}}, "attempted": 1, "failed": 0},
    )
    argv = [str(plain), str(repo), "w", "1", "--pairs", "2", "--label", "t", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    record = json.loads((out / "BENCH_t.json").read_text())
    assert record["trees"] == {
        "parent": {"commit": None, "dirty": None},
        "change": {"commit": head, "dirty": True},
    }
    printed = capsys.readouterr().out
    assert f"parent: {plain} commit None dirty None\n" in printed
    assert f"change: {repo} commit {head} dirty True\n" in printed
