"""Manifest files: parsing, validation diagnostics, and writer round trips."""

import os

import numpy as np
import pytest

from sdpsketch.errors import ManifestError, ShapeError
from sdpsketch.instances import projector_store, random_low_rank, random_unit_vector
from sdpsketch.manifest import (
    load_feasibility,
    load_manifest,
    optimization_problem,
    shadow_effects,
    write_feasibility_manifest,
    write_optimize_manifest,
    write_shadow_manifest,
)
from sdpsketch import store as store_mod
from sdpsketch.oracle import dense_store
from sdpsketch.rng import substream
from sdpsketch.store import NegatedView, file_sha256


def write(tmp_path, text, name="problem.man"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def save_store(tmp_path, name, seed=130, n=6):
    store = random_low_rank(n, 2, substream(seed, 1))
    store.save(str(tmp_path / name))
    return store


class TestParsing:
    def test_minimal_feasibility(self, tmp_path):
        save_store(tmp_path, "a.mat")
        path = write(tmp_path, """\
# exercise comments and blank lines
kind feasibility

dimension 6
epsilon 0.25
constraint a.mat -0.5  # trailing comment
""")
        m = load_manifest(path)
        assert m.sha256 == file_sha256(path)
        assert m.kind == "feasibility"
        assert m.dimension == 6
        assert m.epsilon == 0.25
        assert m.constraints == [("a.mat", -0.5)]
        assert m.effective_epsilon == 0.25

    def test_width_renormalization(self, tmp_path):
        save_store(tmp_path, "a.mat")
        m = load_manifest(write(tmp_path, """\
kind feasibility
dimension 6
epsilon 0.5
rp 2.0
rd 1.25
constraint a.mat 0.0
"""))
        assert m.effective_epsilon == pytest.approx(0.2)
        problem = load_feasibility(write(tmp_path, """\
kind feasibility
dimension 6
epsilon 0.5
rp 2.0
rd 1.25
constraint a.mat 0.0
""", name="p2.man"))
        assert problem.eps == pytest.approx(0.2)

    def test_hash_pin_accepts_and_rejects(self, tmp_path):
        save_store(tmp_path, "a.mat")
        digest = file_sha256(str(tmp_path / "a.mat"))
        good = write(tmp_path, f"""\
kind feasibility
dimension 6
epsilon 0.25
constraint a.mat 0.1
sha256 a.mat {digest}
""", name="good.man")
        assert load_feasibility(good).m == 1
        bad = write(tmp_path, f"""\
kind feasibility
dimension 6
epsilon 0.25
constraint a.mat 0.1
sha256 a.mat {"0" * 64}
""", name="bad.man")
        with pytest.raises(ManifestError, match="sha256 mismatch"):
            load_feasibility(bad)

    def test_pin_covers_the_bytes_parsed(self, tmp_path, monkeypatch):
        """A pinned matrix file is read once, and those bytes are parsed.

        Hashing a file and then reading it again would parse a file
        rewritten in between without checking it against its pin.
        """
        save_store(tmp_path, "a.mat")
        man = write(tmp_path, f"""\
kind feasibility
dimension 6
epsilon 0.25
constraint a.mat 0.1
sha256 a.mat {file_sha256(str(tmp_path / "a.mat"))}
""")
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(store_mod, "open", counting_open, raising=False)
        assert load_feasibility(man).m == 1
        assert opened == ["problem.man", "a.mat"]

    @pytest.mark.parametrize("pinned", [False, True])
    def test_pin_is_checked_before_parse_errors(self, tmp_path, pinned):
        (tmp_path / "a.mat").write_text("n 6 rank 1\n2 1 1 0\n")
        digest = file_sha256(str(tmp_path / "a.mat")) if pinned else "0" * 64
        man = write(tmp_path, f"""\
kind feasibility
dimension 6
epsilon 0.25
constraint a.mat 0.1
sha256 a.mat {digest}
""")
        expected = "lower-triangle entry" if pinned else "sha256 mismatch"
        with pytest.raises(ManifestError, match=expected):
            load_feasibility(man)

    def test_pin_must_name_a_listed_file(self, tmp_path):
        """A pin for a file no line lists would be accepted and never checked."""
        save_store(tmp_path, "a.mat")
        save_store(tmp_path, "b.mat")
        man = write(tmp_path, f"""\
kind feasibility
dimension 6
epsilon 0.25
constraint a.mat 0.1
sha256 b.mat {file_sha256(str(tmp_path / "b.mat"))}
""")
        with pytest.raises(ManifestError) as info:
            load_manifest(man)
        assert str(info.value) == f"{man}:5: sha256 pin for unlisted file 'b.mat'"

    def test_second_pin_for_a_file_is_rejected(self, tmp_path):
        """A wrong first pin cannot be overridden by a right second one."""
        save_store(tmp_path, "a.mat")
        man = write(tmp_path, f"""\
kind feasibility
dimension 6
epsilon 0.25
constraint a.mat 0.1
sha256 a.mat {"0" * 64}
sha256 a.mat {file_sha256(str(tmp_path / "a.mat"))}
""")
        with pytest.raises(ManifestError) as info:
            load_manifest(man)
        assert str(info.value) == f"{man}:6: second sha256 pin for 'a.mat'"


class TestDiagnostics:
    def cases(self):
        return [
            ("dimension 4\nepsilon 0.2\n", "first entry must be 'kind'"),
            ("kind sudoku\n", "kind must be one of"),
            ("kind feasibility\nkind feasibility\n", "duplicate 'kind'"),
            ("kind feasibility\ndimension 4\ndimension 4\n", "duplicate"),
            ("kind feasibility\ndimension 4\nepsilon nope\nconstraint a.mat 0\n",
             "not a number"),
            ("kind feasibility\ndimension 4\nepsilon inf\nconstraint a.mat 0\n",
             "must be finite"),
            ("kind feasibility\ndimension 4.5\nepsilon 0.2\nconstraint a.mat 0\n",
             "positive integer"),
            ("kind feasibility\nepsilon 0.2\nconstraint a.mat 0\n",
             "missing required key 'dimension'"),
            ("kind feasibility\ndimension 4\nconstraint a.mat 0\n",
             "missing required key 'epsilon'"),
            ("kind feasibility\ndimension 4\nepsilon 1.5\nconstraint a.mat 0\n",
             "must lie in"),
            ("kind feasibility\ndimension 4\nepsilon 0.2\nrp -1\nconstraint a.mat 0\n",
             "width parameters"),
            ("kind feasibility\ndimension 4\nepsilon 0.2\n", "no constraint lines"),
            ("kind feasibility\ndimension 4\nepsilon 0.2\nconstraint a.mat\n",
             "takes <path> <bound>"),
            ("kind feasibility\ndimension 4\nepsilon 0.2\nconstraint a.mat 0\nwobble 3\n",
             "unknown key"),
            ("kind feasibility\ndimension 4\nepsilon 0.2\nconstraint a.mat 0\ncost c.mat\n",
             "only belongs in optimize"),
            ("kind shadow\ndimension 4\nepsilon 0.2\nconstraint a.mat 0\n",
             "use 'effect' lines"),
            ("kind shadow\ndimension 4\nepsilon 0.2\n", "no effect lines"),
            ("kind shadow\ndimension 4\nepsilon 0.2\neffect a.mat 1.5\n",
             "outside \\[-1, 1\\]"),
            ("kind optimize\ndimension 4\nepsilon 0.2\nconstraint a.mat 0\n",
             "need a 'cost' line"),
            ("kind optimize\ndimension 4\nepsilon 0.2\ncost a.mat\ncost a.mat\nconstraint a.mat 0\n",
             "duplicate 'cost'"),
            ("", "empty manifest"),
        ]

    def test_each_malformation_is_diagnosed(self, tmp_path):
        for k, (text, pattern) in enumerate(self.cases()):
            path = write(tmp_path, text, name=f"case{k}.man")
            with pytest.raises(ManifestError, match=pattern):
                load_manifest(path)

    def test_diagnostics_carry_line_numbers(self, tmp_path):
        path = write(tmp_path, "kind feasibility\ndimension 4\nepsilon oops\n")
        with pytest.raises(ManifestError, match=r"\.man:3:"):
            load_manifest(path)

    def test_dimension_mismatch_names_file(self, tmp_path):
        save_store(tmp_path, "a.mat", n=6)
        path = write(tmp_path, """\
kind feasibility
dimension 8
epsilon 0.2
constraint a.mat 0.0
""")
        with pytest.raises(ManifestError, match="does not match manifest dimension"):
            load_feasibility(path)

    def test_kind_cross_checks(self, tmp_path):
        save_store(tmp_path, "a.mat")
        feas = write(tmp_path, """\
kind feasibility
dimension 6
epsilon 0.2
constraint a.mat 0.0
""")
        with pytest.raises(ManifestError, match="expected an optimize manifest"):
            optimization_problem(load_manifest(feas))
        with pytest.raises(ManifestError, match="expected a shadow manifest"):
            shadow_effects(load_manifest(feas))


class TestWriters:
    def test_feasibility_round_trip(self, tmp_path):
        rng = substream(131, 1)
        constraints = [random_low_rank(8, 2, rng) for _ in range(3)]
        bounds = [0.25, -0.125, 0.5]
        path = str(tmp_path / "rt.man")
        write_feasibility_manifest(path, constraints, bounds, eps=0.25)
        problem = load_feasibility(path)
        assert problem.m == 3
        assert problem.bounds == bounds
        assert problem.eps == 0.25
        for orig, loaded in zip(constraints, problem.constraints):
            assert np.array_equal(dense_store(loaded), dense_store(orig))

    def test_shadow_round_trip_and_reduction(self, tmp_path):
        rng = substream(132, 1)
        effects = [projector_store(random_unit_vector(6, rng)) for _ in range(2)]
        path = str(tmp_path / "sh.man")
        write_shadow_manifest(path, effects, [0.75, 0.125], eps=0.2)
        parsed = load_manifest(path)
        got_effects, got_values = shadow_effects(parsed)
        assert got_values == [0.75, 0.125]
        assert parsed.effective_epsilon == 0.2
        # The same file also loads as a two-sided feasibility problem.
        problem = load_feasibility(path)
        assert problem.m == 4
        assert problem.bounds == [0.75, 0.125, -0.75, -0.125]
        assert isinstance(problem.constraints[2], NegatedView)

    def test_optimize_round_trip(self, tmp_path):
        rng = substream(133, 1)
        cost = projector_store(random_unit_vector(6, rng))
        constraints = [random_low_rank(6, 1, rng)]
        path = str(tmp_path / "opt.man")
        write_optimize_manifest(path, cost, constraints, [1.0], eps=0.5,
                                rp=2.0, rd=1.0)
        parsed = load_manifest(path)
        problem = optimization_problem(parsed)
        assert parsed.effective_epsilon == pytest.approx(0.25)
        assert problem.n == 6
        assert np.array_equal(dense_store(problem.cost), dense_store(cost))

    def test_writers_reject_unpaired_values(self, tmp_path):
        rng = substream(135, 1)
        stores = [random_low_rank(4, 1, rng) for _ in range(2)]
        with pytest.raises(ShapeError, match="2 constraint matrices but 1 values"):
            write_feasibility_manifest(str(tmp_path / "a.man"), stores, [0.0], eps=0.25)
        with pytest.raises(ShapeError, match="2 effect matrices but 3 values"):
            write_shadow_manifest(str(tmp_path / "b.man"), stores, [0.0] * 3, eps=0.25)
        assert not list(tmp_path.iterdir())

    def test_written_hashes_verify(self, tmp_path):
        rng = substream(134, 1)
        path = str(tmp_path / "pin.man")
        write_feasibility_manifest(path, [random_low_rank(4, 1, rng)], [0.0],
                                   eps=0.25, with_hashes=True)
        text = (tmp_path / "pin.man").read_text()
        assert "sha256 constraint_0.mat " in text
        load_feasibility(path)
        # Corrupting the matrix file must now be detected.
        mat = tmp_path / "constraint_0.mat"
        mat.write_text(mat.read_text().replace("0", "1", 1))
        with pytest.raises(ManifestError):
            load_feasibility(path)
