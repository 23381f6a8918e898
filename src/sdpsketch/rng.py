"""Deterministic random stream management.

All randomness flows through counter-based Philox generators keyed by an
integer path, so any component can derive an independent stream from
(seed, *path) without coordinating with the rest of the run.  Results are
therefore reproducible for a fixed seed no matter how work is scheduled.
A stream that may go unread, such as one handed to a trace that is summed
exactly, is taken as a `LazyStream`, which builds its generator only when
first read; building one costs far more than a few draws.
"""
from __future__ import annotations

import numpy as np

# Fixed role tags for stream derivation paths.  Keeping them in one table
# avoids accidental collisions between components.
TRACE = 1
SKETCH = 2
CORE = 3
INSTANCE = 5


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given seed and integer path."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *path))))


class LazyStream:
    """``substream(seed, *path)``, built the first time any of it is read.

    Every generator attribute is forwarded, so it draws the same numbers
    as the substream itself, and costs nothing if never read.
    """

    def __init__(self, seed: int, *path: int):
        self._path = (seed, *path)
        self._generator = None

    def __getattr__(self, name):
        if self._generator is None:
            self._generator = substream(*self._path)
        return getattr(self._generator, name)
