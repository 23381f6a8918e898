"""Dense complex linear algebra with fixed ordering conventions.

Thin wrappers over LAPACK that pin down the conventions the rest of the
package relies on: singular values and eigenvalues come back in descending
order, ties keep their input order, and QR is made unique by forcing a
nonnegative real diagonal on the triangular factor.
"""
from __future__ import annotations

import numpy as np

from .errors import HermiticityError, NumericalError

HERMITIAN_CHECK_TOL = 1e-10
MAX_DENSE_DIM = 10_000
# Elements of the (rows, k, m) product array `rowwise_matmul` holds at once.
ROWWISE_BLOCK = 1 << 16


def _as_matrix(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if max(a.shape, default=0) > MAX_DENSE_DIM:
        raise ValueError(f"{name} exceeds the dense size cap {MAX_DENSE_DIM}")
    return a


def rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex ``a @ b`` with each output row's bits set by its own input row.

    A BLAS product may sum a row in an order that depends on how many
    rows share the call, and numpy's complex multiply rounds differently
    in its vector and scalar loops, which one a row takes depending on
    the array shapes.  Here every product is formed from real multiplies
    and adds, each rounded once, and every row is summed in one fixed
    order whatever the batch, so a row computed alone equals the same row
    computed among others.  Rows go through in blocks that keep the
    (rows, k, m) product arrays within `ROWWISE_BLOCK` elements.  Both
    factors are made C-ordered first: the sum's order follows the
    product array's memory layout, which follows theirs, so equal values
    in another memory order give the same bits.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.complex128)
    step = max(1, ROWWISE_BLOCK // max(1, b.size))
    for lo in range(0, a.shape[0], step):
        x = a[lo : lo + step, :, np.newaxis]
        out.real[lo : lo + step] = (x.real * b.real - x.imag * b.imag).sum(axis=1)
        out.imag[lo : lo + step] = (x.real * b.imag + x.imag * b.real).sum(axis=1)
    return out


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD `a = u @ diag(s) @ vh` with `s` descending."""
    a = _as_matrix(a, "svd input")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"svd did not converge: {exc}") from exc
    return u, s, vh


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (u, d) with `a = u @ diag(d) @ u.conj().T` and `d` real,
    sorted descending with a stable tie order.
    """
    a = _as_matrix(a, "eigh input")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"eigh input must be square, got shape {a.shape}")
    if a.size:
        defect = float(np.abs(a - a.conj().T).max())
        if defect > HERMITIAN_CHECK_TOL:
            raise HermiticityError(f"eigh input deviates from Hermitian by {defect:.3e}")
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigh did not converge: {exc}") from exc
    order = np.argsort(-vals, kind="stable")
    return vecs[:, order], vals[order]


def qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with the diagonal of R made real and nonnegative."""
    a = _as_matrix(a, "qr input")
    try:
        q, r = np.linalg.qr(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"qr did not converge: {exc}") from exc
    diag = np.diagonal(r).copy()
    phase = np.where(np.abs(diag) > 0, diag / np.where(np.abs(diag) > 0, np.abs(diag), 1.0), 1.0)
    q = q * phase[np.newaxis, :]
    r = r * phase.conj()[:, np.newaxis]
    return q, r
