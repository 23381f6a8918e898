"""Basis support: rows off it are zero, and its passes do not grow with n."""

import numpy as np
import pytest

from sdpsketch.gibbs import estimate_constraint_trace, make_gibbs
from sdpsketch.instances import random_low_rank, random_matrix_sum
from sdpsketch.oracle import dense_basis, dense_store
from sdpsketch.report import RunReport, dump_witness, parse, rebuild_witness, render
from sdpsketch.rng import substream
from sdpsketch.sketch import BasisSketch, MatrixSum, SketchParams, build_sketch
from sdpsketch.spectral import SpectralSurrogate, decompose, estimate_vav
from sdpsketch.store import NegatedView, SampledMatrix
from sdpsketch.trace import EstimatorConfig, QueryableOperator, estimate_trace_product


def embedded(block_store, coords, n):
    """The store's entries relabelled k -> coords[k] in dimension n."""
    entries = []
    for a in range(block_store.n):
        cols, vals = block_store.row_support(a)
        entries += [(coords[a], coords[b], v) for b, v in zip(cols, vals) if b >= a]
    return SampledMatrix.build(entries, n, block_store.rank_hint)


def random_sparse_store(n, k, rng):
    """Rank-2 store on k random coordinates of dimension n."""
    coords = np.sort(rng.choice(n, k, replace=False))
    return embedded(random_low_rank(k, 2, rng), coords, n)


def random_description(ms, p, r, rng):
    """A basis description with arbitrary sampled rows, empty rows included."""
    rows, counts = np.unique(rng.integers(ms.n, size=p), return_counts=True)
    d = rows.shape[0]
    probs = rng.random(d) + 0.1
    left = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return BasisSketch(ms, rows, probs, counts, np.sort(rng.random(r) + 0.5)[::-1], left)


def count_rows(monkeypatch):
    """Count the basis rows built; returns the count list.

    Every fill, `BasisSketch.row` included, goes through `rows_dense`.
    """
    calls = [0]
    original = BasisSketch.rows_dense

    def counted(self, indices):
        calls[0] += len(indices)
        return original(self, indices)

    monkeypatch.setattr(BasisSketch, "rows_dense", counted)
    return calls


class TestRowsOffSupport:
    @pytest.mark.parametrize("seed", range(12))
    def test_rows_off_support_are_zero(self, seed):
        rng = substream(seed, 90)
        n = int(rng.integers(8, 60))
        a, b = (random_sparse_store(n, int(rng.integers(2, n // 2)), rng) for _ in range(2))
        ms = MatrixSum([a, NegatedView(b), a, NegatedView(NegatedView(a))], rank=2)
        v = random_description(ms, p=int(rng.integers(1, 30)), r=3, rng=rng)
        support = v.support()
        expect = set()
        for s in ms.summands:
            rows, cols, _ = s.entries()
            expect.update(cols[np.isin(rows, v.rows)].tolist())
        assert support.tolist() == sorted(expect)
        off = np.ones(n, dtype=bool)
        off[support] = False
        assert not np.any(v.rows_dense(range(n))[off])
        assert v.support() is support

    def test_sketched_basis_rows_off_support_are_zero(self):
        rng = substream(91, 1)
        a, b = (random_sparse_store(200, 6, rng) for _ in range(2))
        ms = MatrixSum([a, b, a], rank=2)
        v = build_sketch(ms, SketchParams(p=60, gamma=1e-9), substream(91, 2))
        off = np.ones(ms.n, dtype=bool)
        off[v.support()] = False
        assert off.sum() >= 188
        assert not np.any(v.rows_dense(range(ms.n))[off])


class TestIndependentOfN:
    def passes(self, n, coords, monkeypatch):
        """Basis row fills of one round on the instance embedded at size n.

        The basis description is sketched once at the smallest size and
        relabelled, so both sizes share every sampled row.  The exponent
        lives on the first 12 coordinates; the constraint whose trace is
        estimated shares 6 of them and has 6 more.
        """
        rng = substream(92, 1)
        blocks = [random_low_rank(12, 2, rng) for _ in range(3)]
        small = [embedded(s, coords[1000][:12], 1000) for s in blocks[:2]]
        base = build_sketch(
            MatrixSum([small[0], NegatedView(small[1]), small[0]], rank=2),
            SketchParams(p=80, gamma=1e-9),
            substream(92, 2),
        )
        stores = [embedded(s, coords[n][:12], n) for s in blocks[:2]]
        constraint = embedded(blocks[2], coords[n][6:], n)
        ms = MatrixSum([stores[0], NegatedView(stores[1]), stores[0]], rank=2)
        relabel = dict(zip(coords[1000].tolist(), coords[n].tolist()))
        rows = np.array([relabel[int(i)] for i in base.rows])
        v = BasisSketch(
            ms, rows, base.row_probs, base.counts, base.singular_values, base.left_vectors
        )
        calls = count_rows(monkeypatch)
        core = estimate_vav(v, ms, eps_s=0.5 * v.r_tilde * ms.tau, delta=0.1,
                            rng=substream(92, 3))
        vav_calls = calls[0]
        s = decompose(core)
        g = make_gibbs(v, SpectralSurrogate(u=s.u, d=s.d), beta=1.0)
        fro = g.frobenius_norm()
        fro_calls = calls[0] - vav_calls
        estimate_constraint_trace(g, constraint, 0.2, 0.1, substream(92, 4))
        trace_calls = calls[0] - vav_calls - fro_calls
        monkeypatch.undo()
        return v, vav_calls, fro_calls, trace_calls, fro

    def test_row_fills_do_not_grow_with_n(self, monkeypatch):
        rng = substream(92, 5)
        small = rng.choice(1000, 18, replace=False)
        # Order-preserving relabelling into the larger dimension.
        coords = {1000: small, 100_000: small * 100 + 7}
        (v_s, *calls_s, fro_s), (v_b, *calls_b, fro_b) = (
            self.passes(n, coords, monkeypatch) for n in (1000, 100_000)
        )
        vav_calls, fro_calls, trace_calls = calls_s
        assert calls_b == calls_s
        assert len(v_s.support()) == len(v_b.support()) <= 12
        assert vav_calls <= len(v_s.support())
        assert fro_calls <= len(v_s.support())
        # The candidate's norm reads the support rows V+AV built.
        assert vav_calls == len(v_s.support())
        assert fro_calls == 0
        # Samples off the support read known-zero rows without a rebuild.
        assert trace_calls == 0
        assert fro_b == pytest.approx(fro_s, rel=1e-12)


def all_rows_vav(v, ms, eps_s, delta, rng):
    """estimate_vav with every one of the n basis rows filled."""
    r = v.r_tilde
    signed = [(store, coef) for store, _, coef in ms.terms if coef != 0]
    k = len(signed)
    dense_cols = v.rows_dense(range(v.n))
    weight = sum(abs(coef) for _, coef in signed)
    cfg = EstimatorConfig(eps=eps_s / (r * weight), delta=2.0 * delta / (k * (r**2 + r)))
    # One stacked operand of the upper-triangle pairs, row by row, and one
    # trace per store on one stream, in term order.
    pairs = [(i, j) for i in range(r) for j in range(i, r)]
    oracle = QueryableOperator(
        n=v.n,
        bulk_entries=lambda a, b: np.array(
            [dense_cols[a, j] * np.conj(dense_cols[b, i]) for i, j in pairs]
        ),
        fro_bound=float((np.abs(dense_cols) ** 2).sum(axis=0).max()),
        stack=(len(pairs),),
    )
    upper = np.zeros(len(pairs), dtype=np.complex128)
    for store, coef in signed:
        upper += coef * estimate_trace_product(store, oracle, cfg, rng)
    out = np.zeros((r, r), dtype=np.complex128)
    for (i, j), total in zip(pairs, upper):
        out[i, j] = total
        if i != j:
            out[j, i] = total.conjugate()
    return 0.5 * (out + out.conj().T)


class TestDenseBitEqual:
    def test_dense_passes_equal_all_rows_reference(self):
        ms = random_matrix_sum(32, tau=2, rank=2, rng=substream(93, 1))
        ms = MatrixSum(ms.summands + [NegatedView(ms.summands[0])], rank=2)
        v = build_sketch(ms, SketchParams(p=120, gamma=1e-6), substream(93, 2))
        assert np.array_equal(v.support(), np.arange(32))
        args = (v, ms, 0.3 * v.r_tilde * ms.tau, 0.1)
        core = estimate_vav(*args, rng=substream(93, 3))
        assert np.array_equal(core, all_rows_vav(*args, rng=substream(93, 3)))

        s = decompose(core)
        g = make_gibbs(v, SpectralSurrogate(u=s.u, d=s.d), beta=2.0)
        rows = v.rows_dense(range(32))
        gram = rows.conj().T @ rows
        sq = float(np.real(np.trace(g._core @ gram @ g._core.conj().T @ gram)))
        assert g.frobenius_norm() == float(np.sqrt(max(sq, 0.0)))


def batch_cases():
    """Bases over sparse and dense stores, a repeated store and negated views."""
    rng = substream(94, 1)
    a, b = (random_sparse_store(60, 20, rng) for _ in range(2))
    sparse = MatrixSum([a, NegatedView(b), a], rank=2)
    c, d = random_low_rank(24, 2, rng), random_low_rank(24, 1, rng)
    dense = MatrixSum([c, NegatedView(d), c, c], rank=2)
    cases = {
        "sparse_sketch": build_sketch(sparse, SketchParams(p=80, gamma=1e-9), substream(94, 2)),
        "dense_sketch": build_sketch(dense, SketchParams(p=80, gamma=1e-9), substream(94, 3)),
    }
    for r in (1, 3, 7):
        cases[f"sparse_r{r}"] = random_description(sparse, p=40, r=r, rng=rng)
        cases[f"dense_r{r}"] = random_description(dense, p=40, r=r, rng=rng)
    return cases


BATCH_CASES = batch_cases()


class TestStackedPairs:
    """The compression answers for each pair operand v_j v_i^dagger."""

    @pytest.mark.parametrize("name", ["sparse_sketch", "dense_sketch"])
    def test_components_equal_their_pair_estimates(self, monkeypatch, name):
        """Exact regime: the compressed sum reads each store's compression,
        with no trace call, and entry (i, j) of the compression equals the
        scalar exact estimate against its own operand v_j v_i^dagger, to 1e-12."""
        from sdpsketch import spectral

        v = BATCH_CASES[name]
        r = v.r_tilde
        calls = []
        monkeypatch.setattr(spectral, "estimate_trace_product", lambda *args: calls.append(args))
        # A budget this tight plans more draws than any store holds.
        estimate_vav(v, v.ms, 0.01 * r * v.ms.tau, 0.1, rng=None)
        assert r >= 2
        assert not calls
        cols = v.rows_dense(range(v.n))
        norms = np.sqrt((np.abs(cols) ** 2).sum(axis=0))
        # So tight a scalar budget sums every store exactly.
        cfg = EstimatorConfig(eps=1e-9, delta=0.1)
        for store, _, _ in v.ms.terms:
            got = v.compression(store)
            for i in range(r):
                for j in range(i, r):
                    pair = QueryableOperator(
                        n=v.n,
                        bulk_entries=lambda a, b, i=i, j=j: cols[a, j] * np.conj(cols[b, i]),
                        fro_bound=float(norms[i] * norms[j]),
                    )
                    want = estimate_trace_product(store, pair, cfg, None)
                    assert isinstance(want, complex)
                    assert abs(got[i, j] - want) <= 1e-12 * max(1.0, abs(want))


class TestCompression:
    """V^dagger A V over a store's entries, in passes of at most `_CHUNK` values."""

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_passes_agree_with_the_dense_compression(self, monkeypatch, chunk):
        from sdpsketch import trace as tracemod

        rng = substream(95, 1)
        a, b = (random_sparse_store(60, 20, rng) for _ in range(2))
        v = random_description(MatrixSum([a, b], rank=2), p=40, r=3, rng=rng)
        monkeypatch.setattr(tracemod, "_CHUNK", chunk)
        got = v.compression(a)
        vd = dense_basis(v)
        want = vd.conj().T @ dense_store(a) @ vd
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # Kept: a second read and the negated view read no entry.
        touched = a.touches
        assert v.compression(a) is got
        assert np.array_equal(v.compression(NegatedView(a)), -got)
        assert a.touches == touched


class TestBatchIndependence:
    """A basis row's bits do not depend on the other rows in its batch."""

    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    def test_rows_dense_equals_stacked_single_rows(self, name):
        v = BATCH_CASES[name]
        singles = np.array([v.rows_dense([i])[0] for i in range(v.n)])
        support = v.support()
        gen = np.random.default_rng(7)
        shuffled = gen.choice(support, 3 * support.shape[0])
        for batch in (np.arange(v.n), support, shuffled, support[-1:], gen.permutation(v.n)):
            assert np.array_equal(v.rows_dense(batch), singles[batch])
        for i in (0, int(support[0]), v.n - 1):
            assert np.array_equal(v.row(i), singles[i])
        assert v.rows_dense([]).shape == (0, v.r_tilde)

    def test_out_of_range_index_raises(self):
        v = BATCH_CASES["sparse_sketch"]
        for bad in ([0, v.n], [-1], [v.n + 5, 0]):
            with pytest.raises(IndexError):
                v.rows_dense(bad)


class TestGram:
    @pytest.mark.parametrize("name", ["sparse_sketch", "dense_sketch", "sparse_r3", "dense_r7"])
    def test_gram_matches_dense_and_builds_each_support_row_once(self, name, monkeypatch):
        base = BATCH_CASES[name]
        v = BasisSketch(base.ms, base.rows, base.row_probs, base.counts,
                        base.singular_values, base.left_vectors)
        calls = count_rows(monkeypatch)
        gram = v.gram()
        assert calls[0] == len(v.support())
        assert v.gram() is gram
        assert calls[0] == len(v.support())
        monkeypatch.undo()
        dense = dense_basis(v)
        np.testing.assert_allclose(gram, dense.conj().T @ dense, rtol=0, atol=1e-12)


class TestRebuiltWitnessQuery:
    def test_query_builds_only_the_rows_it_reads(self, monkeypatch):
        """A rebuilt witness's entry query builds at most its two rows.

        Only their table rows are then marked filled; a row off the
        support reads the zero row and builds nothing.
        """
        rng = substream(95, 1)
        a, b = (random_sparse_store(300, 10, rng) for _ in range(2))
        ms = MatrixSum([a, b, a], rank=2)
        v = build_sketch(ms, SketchParams(p=60, gamma=1e-9), substream(95, 2))
        core = estimate_vav(v, ms, eps_s=0.5 * v.r_tilde * ms.tau, delta=0.1,
                            rng=substream(95, 3))
        g = make_gibbs(v, decompose(core, basis=v), beta=1.0)
        text = render(RunReport(
            command="feastest", dimension=300, seed=0, epsilon=0.2, rounds=1, constraints=2,
            verdict="feasible", iterations=1, witness=dump_witness(g, [0, 1, 0]),
        ))
        dump = parse(text).witness
        support = v.support().tolist()
        off = [i for i in range(300) if i not in support][:2]
        s0, s1, s2 = support[0], support[len(support) // 2], support[-1]
        pairs = [(s0, s1), (s1, s1), (s2, off[0]), (off[0], s0), (off[1], off[0])]
        full = rebuild_witness(dump, [a, b], 300)
        full.frobenius_norm()
        calls = count_rows(monkeypatch)
        for i, j in pairs:
            w = rebuild_witness(dump, [a, b], 300)
            before = calls[0]
            z = w.query(i, j)
            read = sorted({k for k in (i, j) if k in support})
            assert calls[0] - before == len(read) <= 2
            filled = np.flatnonzero(w.basis._filled[:-1])
            assert filled.tolist() == w.basis.support_index(read).tolist()
            assert z == full.query(i, j)


class TestRebuiltWitnessBits:
    def test_wide_witness_answers_query_bit_for_bit_after_rebuild(self):
        """A witness keeping r_tilde >= 2 directions rebuilds to the same bits.

        The run holds its left vectors as a column selection of the SVD's
        factor and the rebuild reads them from the report, so the two
        differ in memory order, and every entry must still agree exactly.
        """
        rng = substream(95, 1)
        a, b = (random_sparse_store(300, 10, rng) for _ in range(2))
        ms = MatrixSum([a, b, a], rank=2)
        v = build_sketch(ms, SketchParams(p=60, gamma=1e-9), substream(95, 2))
        assert v.r_tilde >= 2
        core = estimate_vav(v, ms, eps_s=0.5 * v.r_tilde * ms.tau, delta=0.1,
                            rng=substream(95, 3))
        g = make_gibbs(v, decompose(core, basis=v), beta=1.0)
        text = render(RunReport(
            command="feastest", dimension=300, seed=0, epsilon=0.2, rounds=1, constraints=2,
            verdict="feasible", iterations=1, witness=dump_witness(g, [0, 1, 0]),
        ))
        w = rebuild_witness(parse(text).witness, [a, b], 300)
        support = v.support().tolist()
        for i in support:
            for j in support:
                assert w.query(i, j) == g.query(i, j)
        assert w.frobenius_norm() == g.frobenius_norm()
