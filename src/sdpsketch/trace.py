"""Estimation of Tr[A B] from sample-and-query access to A.

One sample draws a position (i, j) of A with probability
|A(i, j)|^2 / ||A||_F^2 and evaluates B(j, i) ||A||_F^2 / conj(A(i, j)),
which is unbiased for Tr[A B] with variance at most ||A||_F^2 ||B||_F^2.
Samples are averaged within batches sized by Chebyshev and the batch means
are combined by a coordinate-wise median (real and imaginary parts
separately) to reach the requested failure probability.  The batches
read one stream in order, two uniforms per sample (the store's
row-then-column draw, `SampledMatrix.sample_entries`): batch k takes the
2 x size uniforms that follow batch k - 1's.  Whole batches share one
uniform draw, one sampling call and one B-query call, and a batch
larger than a pass spans several; a batch's draws and its left-to-right
sum do not depend on how its draws are split into calls.

When A stores no more entries than that plan would draw, the estimate is
instead the exact sum of A(i, j) B(j, i) over the stored entries: one
B-query per entry, zero error, and never more queries than sampling, so
the cost of one call is min(nnz(A), planned draws).

B is read through three *operand reads*, the whole contract a B operand
meets: ``n``, ``fro_bound`` (at least its Frobenius norm) and
``bulk_entries(rows, cols)`` (its entries at paired index arrays, in one
call); every B operand pads the norm it computes by `BOUND_SLACK`, which
covers rounding.  `GibbsDescription` answers the reads itself;
`QueryableOperator` carries them for V^dagger A V's pair oracles and
for stand-ins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError, ZeroMassError

# Relative headroom of a declared `fro_bound` over the norm it was computed as.
BOUND_SLACK = 1e-9
# Samples per vectorized block; fixed so results do not depend on memory.
_CHUNK = 1 << 18
# Median/mean schedule: ceil(18 ln(1/delta)) batches of
# ceil(6 ||A||_F^2 ||B||_F^2 / eps^2) samples each.
_COUNT_SCALE = 18.0
_SIZE_SCALE = 6.0


@dataclass(frozen=True)
class QueryableOperator:
    """The three operand reads of a B side, as plain fields."""

    n: int
    bulk_entries: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fro_bound: float


@dataclass(frozen=True)
class EstimatorConfig:
    """Additive error target and failure probability for one estimate."""

    eps: float
    delta: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    def batch_count(self) -> int:
        return max(1, math.ceil(_COUNT_SCALE * math.log(1.0 / self.delta)))

    def batch_size(self, a_fro_sq: float, b_fro_sq: float) -> int:
        return max(1, math.ceil(_SIZE_SCALE * a_fro_sq * b_fro_sq / self.eps**2))


def estimate_trace_product(
    a,
    b,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
) -> complex:
    """Estimate Tr[A B] to within cfg.eps with probability 1 - cfg.delta.

    `a` is a sampling store (SampledMatrix or a view of one); `b`
    answers the three operand reads.  A store with at most as many
    entries as the sampling plan draws is summed exactly, and `rng` goes
    unused; otherwise the estimate reads the next 2 x count x size
    uniforms of `rng` in batch-major order, so the result is a fixed
    function of the stream's state, whatever the batches per pass.
    """
    if a.n != b.n:
        raise ShapeError(f"operand dimensions differ: {a.n} vs {b.n}")
    a_fro = a.frobenius_norm()
    if a_fro == 0.0:
        return 0j
    if b.fro_bound == 0.0:
        raise ZeroMassError("B declares zero Frobenius norm but A has mass")
    count = cfg.batch_count()
    size = cfg.batch_size(a_fro * a_fro, b.fro_bound**2)
    if a.nnz <= count * size:
        rows, cols, vals = a.entries()
        return complex((vals * b.bulk_entries(cols, rows)).sum())
    return _sampled_trace_product(a, b, count, size, rng)


def _sampled_trace_product(
    a,
    b,
    count: int,
    size: int,
    rng: np.random.Generator,
) -> complex:
    """Median of ``count`` batch means of ``size`` one-sample estimates.

    Batch k reads the 2 x size uniforms of `rng` that follow batch
    k - 1's.  Each pass takes as many whole batches as fit in `_CHUNK`
    draws, at least one, and a batch larger than `_CHUNK` takes several
    passes; either way the stream is read batch-major and each batch
    sums its draws left to right, so the bits do not depend on
    `_CHUNK`.  Assumes A has mass and B a nonzero norm bound.  Returns
    the complex median.
    """
    a_fro_sq = a.total_mass()
    per = max(1, _CHUNK // size)
    sums = np.zeros(count, dtype=np.complex128)
    for first in range(0, count, per):
        batches = min(per, count - first)
        for done in range(0, size, _CHUNK):
            step = min(_CHUNK, size - done)
            rows, cols, vals = a.sample_entries(rng.random((batches * step, 2)))
            w = b.bulk_entries(cols, rows) * (a_fro_sq / np.conj(vals))
            w = w.reshape(batches, step)
            # Left to right from the sum so far, so a batch's sum has the
            # same bits however its draws are split into passes.
            w[:, 0] += sums[first : first + batches]
            sums[first : first + batches] = np.cumsum(w, axis=1, out=w)[:, -1]
    means = sums / size
    return complex(np.median(means.real), np.median(means.imag))
