"""`scripts/bench_pairs.py` summaries on synthetic paired runs."""

import importlib.util
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
