"""Run reports: byte-exact serialization and witness reconstruction."""

import numpy as np
import pytest

from sdpsketch.errors import ManifestError
from sdpsketch.instances import planted_one_update
from sdpsketch.report import (
    HEADER,
    RunReport,
    WitnessDump,
    dump_witness,
    fmt,
    load_report,
    parse,
    rebuild_witness,
    render,
    save_report,
)
from sdpsketch.rng import substream
from sdpsketch.sketch import SketchParams
from sdpsketch.solver import SolverConfig
from sdpsketch.solver import test_feasibility as run_feasibility

CFG = SolverConfig(seed=5, t_override=8, sketch=SketchParams(p=200, gamma=1e-8))


def planted_run():
    problem, _ = planted_one_update(16, eps=0.25, rng=substream(140, 1))
    out = run_feasibility(problem, CFG)
    assert out.feasible and not out.witness.uniform_fallback
    chosen = [j for _, j, _ in out.violation_log]
    return problem, out, chosen


def full_report(witness=None):
    """A report whose every field differs from `RunReport`'s default."""
    return RunReport(
        command="feastest",
        dimension=16,
        seed=5,
        epsilon=0.25,
        rounds=8,
        verdict="feasible",
        iterations=2,
        constraints=3,
        beta_scale=0.5,
        delta_total=0.125,
        preset="explicit",
        sketch_p=200,
        sketch_gamma=1e-8,
        violations=[(1, 0, 0.042), (2, 2, -1 / 3)],
        manifest_sha="ab" * 32,
        value=0.75,
        calls=4,
        estimates=[0.125, -0.5],
        timings=[("solve", 1.5), ("total", 2.25)],
        witness=witness,
    )


class TestFloatFormat:
    def test_round_trips_awkward_values(self):
        for x in (1 / 3, 0.1, 1e-300, 2**-52, -1.0000000000000002, 0.0):
            assert float(fmt(x)) == x

    def test_plain_values_stay_short(self):
        assert fmt(0.25) == "0.25"
        assert fmt(2.0) == "2"


class TestRenderParse:
    def test_round_trip_without_witness(self):
        r = full_report()
        text = render(r)
        assert text.startswith(HEADER + "\n")
        assert text.endswith("end\n")
        defaults = RunReport(command="", dimension=0, seed=0, epsilon=0.0, rounds=0)
        for name, value in vars(r).items():
            if name != "witness":
                assert value != getattr(defaults, name), name
        assert parse(text) == r

    def test_indices_are_one_based_on_disk(self):
        text = render(full_report())
        assert "\nviolation 1 1 " in text
        assert "\nestimate 1 0.125\n" in text
        assert "\nestimate 2 -0.5\n" in text

    def test_round_trip_uniform_witness(self):
        r = full_report(witness=WitnessDump(kind="uniform", beta=0.0))
        back = parse(render(r))
        assert back.witness.kind == "uniform"

    def test_round_trip_gibbs_witness_exact(self):
        problem, out, chosen = planted_run()
        dump = dump_witness(out.witness, chosen)
        r = full_report(witness=dump)
        back = parse(render(r)).witness
        assert back.kind == "gibbs"
        assert back.beta == dump.beta
        assert back.exponent == chosen
        assert np.array_equal(back.rows, dump.rows)
        assert np.array_equal(back.row_probs, dump.row_probs)
        assert np.array_equal(back.counts, dump.counts)
        assert back.counts.sum() == CFG.sketch.p
        assert np.array_equal(back.sigma, dump.sigma)
        assert np.array_equal(back.left, dump.left)
        assert np.array_equal(back.core_d, dump.core_d)
        assert np.array_equal(back.core_u, dump.core_u)

    def test_rendering_is_deterministic(self):
        r = full_report()
        assert render(r) == render(r)

    def test_timings_are_preserved_when_present(self):
        r = full_report()
        r.timings = [("solve", 1.5), ("total", 2.25)]
        back = parse(render(r))
        assert back.timings == [("solve", 1.5), ("total", 2.25)]

    def test_optimize_fields(self):
        r = full_report()
        r.value = 0.75
        r.calls = 2
        back = parse(render(r))
        assert back.value == 0.75
        assert back.calls == 2


class TestParseRejections:
    def test_bad_header(self):
        with pytest.raises(ManifestError, match="header"):
            parse("hello world\nend\n")

    def test_missing_terminator(self):
        text = render(full_report()).replace("\nend\n", "\n")
        with pytest.raises(ManifestError):
            parse(text)

    def test_unknown_key(self):
        text = render(full_report()).replace("\nverdict ", "\nvibe good\nverdict ")
        with pytest.raises(ManifestError):
            parse(text)

    def test_bad_verdict_value(self):
        text = render(full_report()).replace("verdict feasible", "verdict maybe")
        with pytest.raises(ManifestError):
            parse(text)

    def test_truncated_witness_block(self):
        problem, out, chosen = planted_run()
        r = full_report(witness=dump_witness(out.witness, chosen))
        lines = render(r).splitlines()
        drop = [ln for ln in lines if not ln.startswith("core-d")]
        with pytest.raises(ManifestError):
            parse("\n".join(drop) + "\n")


def reparsed_line(text: str, prefix: str, new: str) -> tuple[str, int]:
    """The report with its first line starting ``prefix`` replaced by
    ``new``, and that line's 1-based number."""
    lines = text.splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith(prefix))
    lines[at] = new
    return "\n".join(lines) + "\n", at + 1


class TestShortLines:
    """A line with too few fields is rejected naming it, not indexed past
    its end."""

    @pytest.mark.parametrize(
        "prefix, new, message",
        [
            ("estimate 1 ", "estimate 1", "estimate takes two fields"),
            ("estimate 1 ", "estimate", "estimate takes two fields"),
            ("estimate 1 ", "estimate 1 0.125 7", "estimate takes two fields"),
            ("timing solve ", "timing solve", "timing takes two fields"),
            ("timing solve ", "timing", "timing takes two fields"),
        ],
        ids=["estimate_one_field", "estimate_bare", "estimate_extra", "timing_one_field",
             "timing_bare"],
    )
    def test_estimate_and_timing(self, prefix, new, message):
        r = full_report()
        r.timings = [("solve", 1.5)]
        text, lineno = reparsed_line(render(r), prefix, new)
        with pytest.raises(ManifestError) as err:
            parse(text)
        assert str(err.value) == f"report line {lineno}: {message}"

    def test_short_core_u_vector(self):
        problem, out, chosen = planted_run()
        dump = dump_witness(out.witness, chosen)
        r = dump.core_u.shape[0]
        text = render(full_report(witness=dump))
        line = next(ln for ln in text.splitlines() if ln.startswith("core-u 1 "))
        text, lineno = reparsed_line(text, "core-u 1 ", " ".join(line.split()[:-2]))
        with pytest.raises(ManifestError) as err:
            parse(text)
        assert str(err.value) == f"report line {lineno}: core-u lists {r - 1} values for rank {r}"

    @pytest.mark.parametrize("key", ["left", "core-u"])
    def test_repeated_vector_index(self, key):
        problem, out, chosen = planted_run()
        text = render(full_report(witness=dump_witness(out.witness, chosen)))
        lines = text.splitlines()
        at = next(k for k, line in enumerate(lines) if line.startswith(f"{key} 1 "))
        lines.insert(at + 1, lines[at])
        with pytest.raises(ManifestError) as err:
            parse("\n".join(lines) + "\n")
        assert str(err.value) == f"report line {at + 2}: duplicate {key} 1"


class TestWitnessRebuild:
    def test_bit_exact_through_bytes(self):
        problem, out, chosen = planted_run()
        r = full_report(witness=dump_witness(out.witness, chosen))
        back = parse(render(r))
        rebuilt = rebuild_witness(back.witness, problem.constraints, problem.n)
        for i, j in [(0, 0), (1, 3), (7, 7), (4, 11), (15, 2)]:
            assert rebuilt.query(i, j) == out.witness.query(i, j)
        assert rebuilt.frobenius_norm() == out.witness.frobenius_norm()

    def test_uniform_rebuild(self):
        g = rebuild_witness(WitnessDump(kind="uniform"), [], 6)
        assert g.uniform_fallback
        assert g.query(0, 0) == complex(1 / 6)

    def test_empty_exponent_rejected(self):
        with pytest.raises(ManifestError):
            rebuild_witness(WitnessDump(kind="gibbs", beta=0.1), [], 6)


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        problem, out, chosen = planted_run()
        r = full_report(witness=dump_witness(out.witness, chosen))
        path = str(tmp_path / "run.rep")
        save_report(path, r)
        again = load_report(path)
        assert render(again) == render(r)
