"""Compressed constraint matrix: estimation accuracy and sign-safe spectra."""

import numpy as np
import pytest

from sdpsketch import spectral
from sdpsketch.errors import EmptySketch, HermiticityError, NumericalError
from sdpsketch.instances import random_low_rank, random_matrix_sum
from sdpsketch.oracle import dense_vav
from sdpsketch.rng import substream
from sdpsketch.sketch import BasisSketch, MatrixSum, SketchParams, build_sketch
from sdpsketch.spectral import (
    SpectralSurrogate,
    decompose,
    estimate_vav,
)
from sdpsketch.store import NegatedView
from sdpsketch.trace import estimate_trace_product


class DrawCounter:
    """Stand-in stream exposing only `random`, counting its uniforms."""

    def __init__(self, gen):
        self._gen = gen
        self.uniforms = 0

    def random(self, shape):
        out = self._gen.random(shape)
        self.uniforms += out.size
        return out


def sketched_sum(n=12, tau=1, rank=2, p=60, seed=40, traceless=False):
    ms = random_matrix_sum(
        n, tau=tau, rank=rank, rng=substream(seed, 1), traceless=traceless
    )
    v = build_sketch(ms, SketchParams(p=p, gamma=1e-6), substream(seed, 2))
    return ms, v


class TestDecompose:
    def test_preserves_signs(self):
        s = decompose(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(s.d, [1.0, -1.0])

    def test_descending_and_reconstructs(self):
        rng = substream(41, 1)
        w = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        core = 0.5 * (w + w.conj().T)
        s = decompose(core)
        assert np.all(np.diff(s.d) <= 0)
        assert np.allclose(s.u @ np.diag(s.d) @ s.u.conj().T, core, atol=1e-12)
        assert np.allclose(s.u.conj().T @ s.u, np.eye(4), atol=1e-12)

    def test_empty_core(self):
        s = decompose(np.zeros((0, 0)))
        assert s.r_tilde == 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestSurrogateValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SpectralSurrogate(u=np.eye(3, dtype=complex), d=np.zeros(2))

    def test_spectrum_bound_uses_summand_count(self):
        _, v = sketched_sum(seed=42)
        # tau = 1 allows |d| up to 1.5; 2.0 must be rejected.
        ok = np.zeros(v.r_tilde)
        ok[0] = 1.4
        SpectralSurrogate(u=np.eye(v.r_tilde, dtype=complex), d=ok, basis=v)
        bad = np.zeros(v.r_tilde)
        bad[0] = 2.0
        with pytest.raises(NumericalError):
            SpectralSurrogate(u=np.eye(v.r_tilde, dtype=complex), d=bad, basis=v)

    @pytest.mark.parametrize("top", [np.nan, np.inf, -np.inf])
    def test_non_finite_eigenvalue_rejected(self, top):
        """max |d| is NaN when d holds one, and NaN > bound is false."""
        with pytest.raises(NumericalError, match="non-finite"):
            spectral.check_spectrum(np.array([top, 0.5]), 1)

    def test_unanchored_surrogate_skips_bound(self):
        SpectralSurrogate(u=np.eye(1, dtype=complex), d=np.array([7.0]))


class TestEstimateVav:
    def test_matches_dense_compression(self):
        ms, v = sketched_sum(n=10, tau=1, rank=2, p=60, seed=43)
        r = v.r_tilde
        est = estimate_vav(ms=ms, v=v, eps_s=0.08 * r, delta=0.1,
                           rng=substream(43, 3))
        exact = dense_vav(v, ms)
        assert est.shape == (r, r)
        assert np.abs(est - exact).max() <= 0.15
        assert np.linalg.norm(est - exact) <= 0.2 * r

    def test_result_exactly_hermitian(self):
        ms, v = sketched_sum(n=8, tau=2, rank=1, p=40, seed=44)
        est = estimate_vav(v, ms, eps_s=0.2 * v.r_tilde * ms.tau, delta=0.1,
                           rng=substream(44, 3))
        assert np.array_equal(est, est.conj().T)

    def test_deterministic_per_stream(self):
        ms, v = sketched_sum(n=8, tau=1, rank=2, p=40, seed=45)
        a = estimate_vav(v, ms, eps_s=0.3, delta=0.1, rng=substream(45, 3))
        b = estimate_vav(v, ms, eps_s=0.3, delta=0.1, rng=substream(45, 3))
        assert np.array_equal(a, b)

    def test_empty_basis_is_refused(self):
        # No basis without directions reaches estimate_vav: the sketch
        # refuses it, and the round falls back to the uniform candidate.
        ms, v = sketched_sum(n=8, tau=1, rank=2, p=40, seed=46)
        with pytest.raises(EmptySketch):
            BasisSketch(
                ms, v.rows, v.row_probs, v.counts,
                np.zeros(0), np.zeros((v.rows.shape[0], 0), dtype=complex),
            )

    def test_one_trace_per_distinct_store(self, monkeypatch):
        """One trace per distinct store with coef != 0, whatever r_tilde: an
        exact one reads the store's compression, formed once on the basis,
        and a sampled one is one stacked call, in term order."""
        a = random_low_rank(8, 2, substream(47, 1))
        b = random_low_rank(8, 2, substream(47, 2))
        ms = MatrixSum([a, b, a, NegatedView(a)], rank=2)
        v = build_sketch(ms, SketchParams(p=60, gamma=1e-6), substream(47, 2))
        calls = []

        def spy(store, *args):
            calls.append(store)
            return estimate_trace_product(store, *args)

        monkeypatch.setattr(spectral, "estimate_trace_product", spy)
        v.gram()  # fills the table, which reads the stores' rows
        touched = a.touches, b.touches
        est = estimate_vav(v, ms, eps_s=0.2 * v.r_tilde, delta=0.1, rng=substream(47, 3))
        assert v.r_tilde >= 2
        # 64-entry stores are summed exactly, each read once: A + B + A - A = A + B.
        assert not calls
        assert (a.touches - touched[0], b.touches - touched[1]) == (a.nnz, b.nnz)
        exact = dense_vav(v, MatrixSum([a, b], rank=2))
        assert np.abs(est - exact).max() <= 1e-12
        # A second estimate on the basis reads the kept compressions.
        touched = a.touches, b.touches
        again = estimate_vav(v, ms, eps_s=0.2 * v.r_tilde, delta=0.1, rng=substream(47, 3))
        assert (a.touches, b.touches) == touched
        assert np.array_equal(again, est)

        # 1,024-entry stores at a loose budget are sampled: one call each.
        ms, v = sketched_sum(n=32, tau=2, rank=2, p=400, seed=1)
        estimate_vav(v, ms, eps_s=2.0 * v.r_tilde * ms.tau, delta=0.1, rng=substream(1, 3))
        assert calls == [store for store, _, coef in ms.terms if coef != 0]
        assert len(calls) == 2

    def test_pair_bounds_dominate_the_summed_norms(self, monkeypatch):
        """The stack's fro_bound is at least the norm of every pair operand it answers.

        The largest squared column norm bounds each product of two column
        norms, which can round below the Frobenius norm of v_j v_i^dagger
        summed entry by entry; the padded bound may not.  The budget is
        loose enough that every store is sampled, so the stack is formed.
        """
        oracles = []

        def spy(store, b, *args):
            oracles.append(b)
            return estimate_trace_product(store, b, *args)

        monkeypatch.setattr(spectral, "estimate_trace_product", spy)
        n = 32
        rows, cols = (k.ravel() for k in np.indices((n, n)))
        for seed in range(1, 21):
            oracles.clear()
            ms, v = sketched_sum(n=n, tau=2, rank=2, p=400, seed=seed)
            estimate_vav(v, ms, eps_s=2.0 * v.r_tilde * ms.tau, delta=0.1, rng=substream(seed, 3))
            assert oracles
            r = v.r_tilde
            for b in oracles:
                entries = b.bulk_entries(rows, cols)
                assert entries.shape == (r * (r + 1) // 2, n * n)
                assert np.all(b.fro_bound >= np.sqrt(np.sum(np.abs(entries) ** 2, axis=-1)))

    def test_sampled_stores_form_no_compression(self, monkeypatch):
        """Every store above its plan is traced, not compressed."""

        def refuse(self, a):
            raise AssertionError("compression formed for a sampled store")

        monkeypatch.setattr(BasisSketch, "compression", refuse)
        ms, v = sketched_sum(n=128, tau=2, rank=2, p=400, seed=1)
        core = estimate_vav(v, ms, 0.5 * v.r_tilde * ms.tau, 0.1, substream(1, 3))
        assert v.r_tilde == 4 and core.shape == (4, 4)

    @pytest.mark.parametrize("tau", [1, 2])
    def test_sampled_entries_cover_the_dense_compression(self, tau):
        """Sampled regime at r_tilde >= 2: every upper entry lies within its
        budget eps_s / r_tilde (eps_entry times sum |coef|, which is eps_entry
        itself for one store) of the dense compression in at least a 1 - delta
        share of runs, seeds 1-40."""
        delta = 0.1
        covered = 0
        for seed in range(1, 41):
            ms, v = sketched_sum(n=128, tau=tau, rank=2, p=400, seed=seed)
            r = v.r_tilde
            eps_s = 0.5 * r * ms.tau
            stream = DrawCounter(substream(seed, 3))
            est = estimate_vav(v, ms, eps_s=eps_s, delta=delta, rng=stream)
            assert r >= 2
            # Each store holds 16,384 entries, more than its plan draws.
            assert 0 < stream.uniforms < 2 * 16_384 * len(ms.terms)
            upper = np.triu_indices(r)
            err = np.abs(est - dense_vav(v, ms))[upper]
            covered += bool(np.all(err <= eps_s / r))
        assert covered >= (1 - delta) * 40

    def test_cancelled_sum_is_exact_zero(self, monkeypatch):
        a = random_low_rank(8, 2, substream(48, 1))
        # A - A has no sketch, so the basis comes from another sum.
        _, v = sketched_sum(n=8, tau=1, rank=2, p=60, seed=48)
        calls = []
        monkeypatch.setattr(spectral, "estimate_trace_product", lambda *args: calls.append(args))
        est = estimate_vav(
            v, MatrixSum([a, NegatedView(a)], rank=2), eps_s=0.1, delta=0.1,
            rng=substream(48, 3),
        )
        assert v.r_tilde >= 1
        assert est.dtype == np.complex128
        assert np.array_equal(est, np.zeros((v.r_tilde, v.r_tilde)))
        assert calls == []

class TestEndToEndSpectrum:
    def test_planted_signs_survive_compression(self):
        # Spectrum exactly {+1, -1}: the compressed matrix must keep one
        # positive and one negative eigenvalue rather than folding signs.
        ms, v = sketched_sum(n=16, tau=1, rank=2, p=200, seed=47,
                             traceless=True)
        assert v.r_tilde == 2
        core = estimate_vav(v, ms, eps_s=0.3, delta=0.05, rng=substream(47, 3))
        s = decompose(core, basis=v)
        assert s.d[0] > 0.5
        assert s.d[1] < -0.5
