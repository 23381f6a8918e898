"""Dense kernel wrappers: ordering, sign, and canonicalization contracts."""
import numpy as np
import pytest

from sdpsketch import rng as rngmod
from sdpsketch.errors import HermiticityError
from sdpsketch import linalg
from sdpsketch.linalg import eigh, qr, rowwise_matmul, svd


def random_complex(n: int, m: int, key: int) -> np.ndarray:
    rng = rngmod.substream(key, rngmod.INSTANCE, 90)
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


class TestSvd:
    def test_reconstruction_and_order(self):
        a = random_complex(7, 5, 1)
        u, s, vh = svd(a)
        assert np.allclose(u @ np.diag(s) @ vh, a, atol=1e-12)
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_orthonormal_factors(self):
        a = random_complex(6, 6, 2)
        u, s, vh = svd(a)
        assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
        assert np.allclose(vh @ vh.conj().T, np.eye(6), atol=1e-12)


class TestEigh:
    def test_signs_preserved(self):
        vecs, vals = eigh(np.diag([1.0, -1.0]).astype(complex))
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(-1.0)

    def test_descending_real_spectrum(self):
        a = random_complex(8, 8, 3)
        a = a + a.conj().T
        vecs, vals = eigh(a)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.allclose((vecs * vals) @ vecs.conj().T, a, atol=1e-10)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(8), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            eigh(np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))

    def test_accepts_rounding_level_asymmetry(self):
        a = np.array([[1.0, 0.5], [0.5 + 1e-14, 2.0]], dtype=complex)
        vecs, vals = eigh(a)
        assert vals.shape == (2,)


class TestQr:
    def test_nonnegative_real_diagonal(self):
        a = random_complex(9, 4, 4)
        q, r = qr(a)
        diag = np.diagonal(r)
        assert np.all(diag.real >= 0)
        assert np.all(np.abs(diag.imag) <= 1e-12)

    def test_reconstruction_and_isometry(self):
        a = random_complex(9, 4, 5)
        q, r = qr(a)
        assert np.allclose(q @ r, a, atol=1e-12)
        assert np.allclose(q.conj().T @ q, np.eye(4), atol=1e-12)


class TestRowwiseMatmul:
    @pytest.mark.parametrize(
        "shape", [(9, 1, 1), (9, 1, 5), (9, 40, 1), (9, 40, 6), (33, 7, 2), (0, 5, 3), (4, 0, 3)]
    )
    def test_rows_do_not_depend_on_batch_or_block(self, monkeypatch, shape):
        rows, k, m = shape
        a = random_complex(rows, k, 3) if rows * k else np.zeros((rows, k), complex)
        b = random_complex(k, m, 4) if k else np.zeros((k, m), complex)
        full = rowwise_matmul(a, b)
        assert full.shape == (rows, m)
        assert np.allclose(full, a @ b, rtol=1e-12, atol=1e-12)
        for block in (1, 7, m * k + 1):
            monkeypatch.setattr(linalg, "ROWWISE_BLOCK", block)
            assert np.array_equal(rowwise_matmul(a, b), full)
        for i in range(rows):
            assert np.array_equal(rowwise_matmul(a[i : i + 1], b)[0], full[i])

    def test_bits_do_not_depend_on_memory_order(self):
        """C- and Fortran-ordered factors with equal values give equal bits."""
        a = random_complex(200, 40, 5)
        b = random_complex(40, 4, 6)
        full = rowwise_matmul(np.ascontiguousarray(a), np.ascontiguousarray(b))
        for x in (a, np.asfortranarray(a)):
            for y in (b, np.asfortranarray(b), np.asfortranarray(b)[:, ::-1][:, ::-1]):
                assert np.array_equal(rowwise_matmul(x, y), full)
