"""Run reports: byte-exact serialization and witness reconstruction."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    chosen = out.exponent
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
        defaults = RunReport(command="", dimension=0, seed=0, epsilon=0.0, rounds=0, constraints=0)
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

    @pytest.mark.parametrize(
        "witness, after, added, message",
        [
            ("none", False, ["tau 3", "rank 2"], "'tau' only belongs after 'witness gibbs'"),
            ("gibbs", False, ["beta 0.5"], "'beta' only belongs after 'witness gibbs'"),
            ("none", True, ["tau 3"], "'tau' may not follow 'witness none'"),
            ("uniform", True, ["rank 2"], "'rank' may not follow 'witness uniform'"),
            ("uniform", True, ["estimate 3 0.5"], "'estimate' may not follow 'witness uniform'"),
            ("gibbs", True, ["calls 4"], "'calls' may not follow 'witness gibbs'"),
        ],
        ids=["tau_before_none", "beta_before_gibbs", "tau_after_none", "rank_after_uniform",
             "estimate_after_uniform", "calls_after_gibbs"],
    )
    def test_line_outside_its_block_named(self, witness, after, added, message):
        """Witness lines are read only after `witness gibbs`; after `witness
        none` or `witness uniform` only `end` may come."""
        dump = {"none": None, "uniform": WitnessDump(kind="uniform")}.get(witness)
        if witness == "gibbs":
            _, out, chosen = planted_run()
            dump = dump_witness(out.witness, chosen)
        lines = render(full_report(witness=dump)).splitlines()
        at = lines.index(f"witness {witness}") + after
        lines[at:at] = added
        with pytest.raises(ManifestError) as err:
            parse("\n".join(lines) + "\n")
        assert str(err.value) == f"report line {at + 1}: {message}"

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


class TestRunValueRejections:
    """A run value that no producer writes is rejected naming its line."""

    @pytest.mark.parametrize(
        "prefix, new, message",
        [
            ("seed ", "seed -1", "seed must be at least 0"),
            ("constraints ", "constraints 0", "constraints must be at least 1"),
            ("sketch-p ", "sketch-p 0", "sketch-p must be at least 1"),
            ("calls ", "calls 0", "calls must be at least 1"),
            ("violation 2 ", "violation 2 4 0.5", "violation constraint 4 exceeds constraints 3"),
            ("violation 2 ", "violation 9 3 0.5", "violation round 9 exceeds rounds 8"),
        ],
        ids=["seed_negative", "constraints_zero", "sketch_p_zero", "calls_zero",
             "violation_constraint_past", "violation_round_past"],
    )
    def test_value_named(self, prefix, new, message):
        text, lineno = reparsed_line(render(full_report()), prefix, new)
        with pytest.raises(ManifestError) as err:
            parse(text)
        assert str(err.value) == f"report line {lineno}: {message}"

    def test_missing_constraints_line(self):
        text = "\n".join(
            line for line in render(full_report()).splitlines()
            if not line.startswith("constraints ")
        )
        with pytest.raises(ManifestError, match="missing 'constraints'"):
            parse(text + "\n")


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

    def test_constraints_of_another_dimension_rejected(self):
        problem, out, chosen = planted_run()
        dump = dump_witness(out.witness, chosen)
        with pytest.raises(ManifestError) as err:
            rebuild_witness(dump, problem.constraints, 32)
        assert str(err.value) == "manifest dimension 16 does not match the report's dimension 32"


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        problem, out, chosen = planted_run()
        r = full_report(witness=dump_witness(out.witness, chosen))
        path = str(tmp_path / "run.rep")
        save_report(path, r)
        again = load_report(path)
        assert render(again) == render(r)


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-300, max_value=1e300)
complex_entries = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e300)


@st.composite
def gibbs_dumps(draw, dimension: int) -> WitnessDump:
    """A gibbs dump of rank 1-4 on 1-6 distinct rows of ``dimension``."""
    r = draw(st.integers(1, 4))
    d = draw(st.integers(1, min(6, dimension)))
    rows = draw(st.lists(st.integers(0, dimension - 1), min_size=d, max_size=d, unique=True))
    return WitnessDump(
        kind="gibbs",
        beta=draw(st.floats(min_value=0.0, max_value=1e300)),
        exponent=draw(st.lists(st.integers(0, 99), min_size=1, max_size=8)),
        rows=np.array(sorted(rows), dtype=np.int64),
        row_probs=draw(arrays(np.float64, d, elements=positive)),
        counts=draw(arrays(np.int64, d, elements=st.integers(1, 10**6))),
        sigma=draw(arrays(np.float64, r, elements=positive)),
        left=draw(arrays(np.complex128, (d, r), elements=complex_entries)),
        core_d=draw(arrays(np.float64, r, elements=finite)),
        core_u=draw(arrays(np.complex128, (r, r), elements=complex_entries)),
    )


@st.composite
def run_reports(draw) -> RunReport:
    """A report with any witness, optional lines set or not, and values parse accepts."""
    dimension = draw(st.integers(1, 40))
    rounds = draw(st.integers(1, 10**6))
    constraints = draw(st.integers(1, 100))
    optional = lambda values: draw(st.none() | values)  # noqa: E731
    violation = st.tuples(st.integers(1, min(rounds, 99)), st.integers(0, constraints - 1), finite)
    return RunReport(
        command=draw(st.sampled_from(["feastest", "shadow", "oracle", "optimize"])),
        dimension=dimension,
        seed=draw(st.integers(0, 2**63)),
        epsilon=draw(finite),
        rounds=rounds,
        verdict=draw(st.sampled_from(["feasible", "infeasible"])),
        iterations=draw(st.integers(1, 10**6)),
        constraints=constraints,
        beta_scale=draw(finite),
        delta_total=draw(finite),
        preset=draw(st.sampled_from(["scaled", "explicit"])),
        sketch_p=optional(st.integers(1, 10**8)),
        sketch_gamma=optional(positive),
        violations=draw(st.lists(violation)),
        manifest_sha=optional(st.text("0123456789abcdef", min_size=64, max_size=64)),
        value=optional(finite),
        calls=optional(st.integers(1, 64)),
        estimates=draw(st.lists(finite, max_size=4)),
        timings=draw(st.lists(st.tuples(st.sampled_from(["load", "solve"]), finite), max_size=2)),
        witness=optional(st.just(WitnessDump(kind="uniform")) | gibbs_dumps(dimension)),
    )


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(run_reports())
    def test_parse_inverts_render_field_for_field(self, report):
        """Every line that `render` writes, `parse` reads back into its field."""
        back = parse(render(report))
        for f in fields(RunReport):
            if f.name != "witness":
                assert getattr(back, f.name) == getattr(report, f.name), f.name
        if report.witness is None:
            assert back.witness is None
            return
        for f in fields(WitnessDump):
            got, want = getattr(back.witness, f.name), getattr(report.witness, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype.kind == want.dtype.kind and np.array_equal(got, want), f.name
            else:
                assert got == want, f.name
