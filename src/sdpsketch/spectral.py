"""Eigenstructure of the constraint sum compressed into the sketched basis.

Each entry of the compressed matrix is a trace against a rank-one outer
product of basis columns and is computed once per distinct store of the
exponent (`MatrixSum.terms`), scaled by the store's coefficient, through
the trace estimator, which sums a store exactly when it stores no more
entries than its sampling plan would draw and samples it otherwise; only
the upper triangle is computed and the mirror is filled by conjugation
before an exact eigendecomposition.
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

    Entry (i, j) of the result approximates column_i^dagger A column_j for
    the summed constraint A = sum of coef_s A_s over the distinct stores
    s with coef_s != 0 (`MatrixSum.terms`); there are k of them.  Each
    entry takes one trace per such store, scaled by coef_s.  The budget
    is split as in the error analysis: each trace is estimated to
    eps_s / (r_tilde sum |coef_s|), so the scaled traces of an entry sum
    to error eps_s / r_tilde, with failure probability
    2 delta / (k (r_tilde^2 + r_tilde)).  Cost per trace grows with
    (r_tilde sum |coef_s| / eps_s)^2 up to the store's entry count, where
    it is summed exactly, so callers at desk scale pass a per-entry
    budget scaled up accordingly.  When every coef is 0 the sum is
    exactly zero and so is the result, with no trace made.  The traces
    share `rng`, taken in order (upper-triangle pairs row by row, then
    stores in term order): a sampled trace reads the next uniforms of
    the stream and an exact one reads none.  Each oracle's Frobenius
    bound, padded by `trace.BOUND_SLACK` as every B operand's, is the
    product of two column norms: square roots of the diagonal of the
    basis's Gram matrix (`v.gram`), which fills the whole support once
    per sketch at O(|support| x distinct rows x distinct stores),
    independent of n.  The oracles read the basis's table in place,
    through `v.support_index`.
    """
    r = v.r_tilde
    signed = [(store, coef) for store, _, coef in ms.terms if coef != 0]
    if not signed:
        return np.zeros((r, r), dtype=np.complex128)
    col_norms = np.sqrt(np.diagonal(v.gram()).real)
    table = v.table
    k = len(signed)
    eps_entry = eps_s / (r * sum(abs(coef) for _, coef in signed))
    delta_entry = 2.0 * delta / (k * (r**2 + r))
    cfg = EstimatorConfig(eps=eps_entry, delta=delta_entry)

    pairs = [(i, j) for i in range(r) for j in range(i, r)]
    out = np.zeros((r, r), dtype=np.complex128)
    for i, j in pairs:
        def bulk(rows, cols, _i=i, _j=j):
            return table[v.support_index(rows), _j] * np.conj(
                table[v.support_index(cols), _i]
            )

        oracle = QueryableOperator(
            n=v.n,
            bulk_entries=bulk,
            fro_bound=float(col_norms[j] * col_norms[i]) * (1.0 + BOUND_SLACK),
        )
        total = 0j
        for store, coef in signed:
            total += coef * estimate_trace_product(store, oracle, cfg, rng)
        out[i, j] = total
        if i != j:
            out[j, i] = total.conjugate()
    return 0.5 * (out + out.conj().T)


def decompose(core: np.ndarray, basis: Optional[BasisSketch] = None) -> SpectralSurrogate:
    """Exact eigendecomposition of the (Hermitian) compressed matrix.

    A 0 x 0 core gives the empty eigensystem, which `make_gibbs` rejects
    against any basis, since a basis keeps at least one direction.
    """
    u, d = linalg.eigh(np.asarray(core, dtype=np.complex128))
    return SpectralSurrogate(u=u, d=d, basis=basis)
