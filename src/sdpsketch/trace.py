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

When A stores no more entries than that plan would draw (`sums_exactly`),
the estimate is instead the exact sum of A(i, j) B(j, i) over the stored
entries: one B-query per entry, zero error, and never more queries than
sampling, so the cost of one call is min(nnz(A), planned draws).  The
solver's two traces against a sketched basis V make the same test but
sum such a store in V's coordinates, once per basis and store
(`BasisSketch.compression`, V^dagger A V): the constraint check
(`gibbs.estimate_constraint_trace`) reads Re Tr[K V^dagger A V] for the
candidate's core K = U diag(w) U^dagger as w . Re diag(U^dagger V^dagger
A V U), kept per eigensystem and store
(`BasisSketch.rotated_compression`), and the compressed sum
(`spectral.estimate_vav`)
reads the compression's entries.  This exact branch serves any other
operand, such as a stand-in.

B is read through four *operand reads*, the whole contract a B operand
meets: ``n``, ``stack`` (the shape of the matrices it answers for, () for
one), ``fro_bound`` (at least the Frobenius norm of each, padded by
`BOUND_SLACK` against rounding) and ``bulk_entries(rows, cols)`` (their
entries at paired index arrays, in one call, stacked ahead of the draw
axis).  Each component of a stack gets its own estimate to cfg.eps and
cfg.delta, all from one set of draws, and a pass holds at most `_CHUNK`
stacked values, in the exact sum too, as a pass of the compression holds
at most `_CHUNK` gathered basis values.  `GibbsDescription`, one matrix,
answers the reads itself; `QueryableOperator` carries them for
V^dagger A V's pair stack and for stand-ins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError, ZeroMassError

# Relative headroom of a declared `fro_bound` over the norm it was computed as.
BOUND_SLACK = 1e-9
# Values per vectorized pass, of a sampled trace or of a compression; fixed
# so results do not depend on memory.
_CHUNK = 1 << 16
# Median/mean schedule: ceil(18 ln(1/delta)) batches of
# ceil(6 ||A||_F^2 ||B||_F^2 / eps^2) samples each.
_COUNT_SCALE = 18.0
_SIZE_SCALE = 6.0


@dataclass(frozen=True)
class QueryableOperator:
    """The four operand reads of a B side, as plain fields."""

    n: int
    bulk_entries: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fro_bound: float
    stack: tuple[int, ...] = ()


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


def sums_exactly(a, fro_bound: float, cfg: EstimatorConfig) -> bool:
    """Whether A stores no more entries than the sampling plan would draw.

    The plan is cfg's batch count times the batch size for A's norm and
    a B operand bounded by ``fro_bound``; such a store is summed, not
    sampled, at zero error and no more entry reads than sampling.
    """
    a_fro = a.frobenius_norm()
    return a.nnz <= cfg.batch_count() * cfg.batch_size(a_fro * a_fro, fro_bound**2)


def estimate_trace_product(a, b, cfg: EstimatorConfig, rng: np.random.Generator):
    """Estimate Tr[A B] to within cfg.eps with probability 1 - cfg.delta.

    `a` is a sampling store (SampledMatrix or a view of one); `b`
    answers the four operand reads.  A store with at most as many
    entries as the sampling plan draws (`sums_exactly`) is summed
    exactly, and `rng` goes unused; otherwise the estimate reads the
    next 2 x count x size uniforms of `rng` in batch-major order, so the
    result is a fixed function of the stream's state, whatever the
    batches per pass.  Returns a complex, or one per component of a
    stacked `b`.
    """
    if a.n != b.n:
        raise ShapeError(f"operand dimensions differ: {a.n} vs {b.n}")
    a_fro = a.frobenius_norm()
    if a_fro == 0.0:
        return np.zeros(b.stack, dtype=np.complex128) if b.stack else 0j
    if b.fro_bound == 0.0:
        raise ZeroMassError("B declares zero Frobenius norm but A has mass")
    if not sums_exactly(a, b.fro_bound, cfg):
        size = cfg.batch_size(a_fro * a_fro, b.fro_bound**2)
        return _sampled_trace_product(a, b, cfg.batch_count(), size, rng)
    rows, cols, vals = a.entries()
    step = _pass_draws(b)
    total = None
    for k in range(0, vals.shape[0], step):
        at = slice(k, k + step)
        # Row-major products, so each component sums as a scalar operand's.
        part = np.multiply(vals[at], b.bulk_entries(cols[at], rows[at]), order="C").sum(axis=-1)
        total = part if total is None else total + part
    return total if b.stack else complex(total)


def _pass_draws(b) -> int:
    """Draws per pass, so that a pass holds at most `_CHUNK` stacked values."""
    return max(1, _CHUNK // math.prod(b.stack))


def _sampled_trace_product(a, b, count: int, size: int, rng: np.random.Generator):
    """Median of ``count`` batch means of ``size`` one-sample estimates.

    Batch k reads the 2 x size uniforms of `rng` that follow batch
    k - 1's.  Each pass takes as many whole batches as fit in a pass
    (`_pass_draws`), at least one, and a larger batch takes several passes;
    either way the stream is read batch-major and each batch sums its
    draws left to right, so the bits do not depend on the passes.
    Assumes A has mass and B a nonzero norm bound.  Returns the complex
    median per component, real and imaginary parts apart.
    """
    a_fro_sq = a.total_mass()
    stack, chunk = b.stack, _pass_draws(b)
    per = max(1, chunk // size)
    sums = np.zeros(stack + (count,), dtype=np.complex128)
    for first in range(0, count, per):
        batches = min(per, count - first)
        for done in range(0, size, chunk):
            step = min(chunk, size - done)
            rows, cols, vals = a.sample_entries(rng.random((batches * step, 2)))
            w = b.bulk_entries(cols, rows) * (a_fro_sq / np.conj(vals))
            w = w.reshape(stack + (batches, step))
            # Left to right from the sum so far, so a batch's sum has the
            # same bits however its draws are split into passes.
            w[..., 0] += sums[..., first : first + batches]
            sums[..., first : first + batches] = np.cumsum(w, axis=-1, out=w)[..., -1]
    means = sums / size
    out = np.empty(stack, dtype=np.complex128)
    out.real = np.median(means.real, axis=-1)
    out.imag = np.median(means.imag, axis=-1)
    return out if stack else complex(out)
