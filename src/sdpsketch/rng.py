"""Deterministic random stream management.

All randomness flows through counter-based Philox generators keyed by an
integer path, so any component can derive an independent stream from
(seed, *path) without coordinating with the rest of the run.  Results are
therefore reproducible for a fixed seed no matter how work is scheduled.
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

