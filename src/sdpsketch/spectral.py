"""Eigenstructure of the constraint sum compressed into the sketched basis.

Each entry of the compressed matrix is a trace against a rank-one outer
product of basis columns; the upper triangle's products form one stacked
operand, traced once per distinct store of the exponent
(`MatrixSum.terms`) and scaled by its coefficient, on one set of draws
or, for a store no larger than its sampling plan, exactly.  The mirror is
filled by conjugation before an exact eigendecomposition.
Working with the compressed matrix directly, rather than squaring through
a singular-value route, preserves eigenvalue signs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .errors import NumericalError
from .sketch import BasisSketch, MatrixSum
from .trace import BOUND_SLACK, EstimatorConfig, QueryableOperator, estimate_trace_product

# Absolute slack allowed on the compressed spectrum beyond the summand
# count tau (the sum of the store counts): each summand has spectral norm
# at most 1, so tau bounds the spectrum whatever the signs.
SPECTRUM_SLACK = 0.5


@dataclass(frozen=True)
class SpectralSurrogate:
    """Eigenvectors and descending real eigenvalues of the compressed matrix."""

    u: np.ndarray
    d: np.ndarray
    basis: Optional[BasisSketch] = None

    def __post_init__(self):
        r = self.d.shape[0]
        if self.u.shape != (r, r):
            raise ValueError(
                f"eigenvector block has shape {self.u.shape}, expected {(r, r)}"
            )
        if self.basis is not None:
            check_spectrum(self.d, self.basis.ms.tau)

    @property
    def r_tilde(self) -> int:
        return int(self.d.shape[0])


def check_spectrum(d: np.ndarray, tau: int) -> None:
    """Raise `NumericalError` if an eigenvalue in d reaches past tau + `SPECTRUM_SLACK`."""
    bound = tau + SPECTRUM_SLACK
    top = float(np.abs(d).max(initial=0.0))
    if top > bound:
        raise NumericalError(
            f"compressed spectrum reaches {top:.6g}, beyond the summand bound {bound:.6g}"
        )


def estimate_vav(
    v: BasisSketch,
    ms: MatrixSum,
    eps_s: float,
    delta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Estimate the basis-compressed constraint sum to Frobenius error eps_s.

    Entry (i, j) approximates column_i^dagger A column_j for the summed
    constraint A = sum of coef_s A_s over the k distinct stores s with
    coef_s != 0 (`MatrixSum.terms`); all coefs 0 give an exact zero and
    no trace.  The upper entries are traces against one stack of the
    operands column_j column_i^dagger, one trace call per store, in term
    order on `rng`, scaled by coef_s.  Each entry's trace is estimated to
    eps_s / (r_tilde sum |coef_s|), so an entry errs by at most
    eps_s / r_tilde, with failure probability 2 delta / (k (r_tilde^2 +
    r_tilde)) per entry and store: delta in all.  A call draws up to
    (r_tilde sum |coef_s| / eps_s)^2 times a log factor, or sums the
    store exactly when that is no fewer.  The stack's norm bound,
    max_i G_ii of the basis's Gram matrix (`v.gram`, one fill of the
    support) padded by `trace.BOUND_SLACK`, bounds every |col_i| |col_j|.
    """
    r = v.r_tilde
    signed = [(store, coef) for store, _, coef in ms.terms if coef != 0]
    if not signed:
        return np.zeros((r, r), dtype=np.complex128)
    fro_bound = float(np.diagonal(v.gram()).real.max()) * (1.0 + BOUND_SLACK)
    k = len(signed)
    eps_entry = eps_s / (r * sum(abs(coef) for _, coef in signed))
    delta_entry = 2.0 * delta / (k * (r**2 + r))
    cfg = EstimatorConfig(eps=eps_entry, delta=delta_entry)

    # Pair p of the upper triangle, row by row, reads columns j and i of
    # the filled table (`v.support_index` gives a row's position).
    iu, ju = np.array([(i, j) for i in range(r) for j in range(i, r)]).T
    left = np.ascontiguousarray(v.table.T[ju])
    right = np.conj(v.table.T[iu])

    def bulk(rows, cols):
        out = left.take(v.support_index(rows), axis=1)
        out *= right.take(v.support_index(cols), axis=1)
        return out

    pairs = QueryableOperator(n=v.n, bulk_entries=bulk, fro_bound=fro_bound, stack=iu.shape)
    upper = sum(coef * estimate_trace_product(store, pairs, cfg, rng) for store, coef in signed)
    out = np.zeros((r, r), dtype=np.complex128)
    out[ju, iu] = upper.conj()
    out[iu, ju] = upper
    return 0.5 * (out + out.conj().T)


def decompose(core: np.ndarray, basis: Optional[BasisSketch] = None) -> SpectralSurrogate:
    """Exact eigendecomposition of the (Hermitian) compressed matrix.

    A 0 x 0 core gives the empty eigensystem, which `make_gibbs` rejects
    against any basis, since a basis keeps at least one direction.
    """
    u, d = linalg.eigh(np.asarray(core, dtype=np.complex128))
    return SpectralSurrogate(u=u, d=d, basis=basis)
