"""Counter-based random streams for reproducible, order-independent trials.

Every randomized battery draws trial i from its own Philox stream keyed by
the run seed and offset by a counter, so results never depend on scheduling
and distinct batteries (distinguished by tag) never share a stream.  A seed
is an integer in [0, 2**64), the Philox key word it becomes unchanged, so
distinct seeds never share a stream either.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def trial_stream(seed: int, index: int, tag: int = 0) -> np.random.Generator:
    """Independent generator for trial `index` of the battery `tag` under
    `seed`; a seed outside [0, 2**64) raises ValueError."""
    if index < 0:
        raise ValueError("trial index must be non-negative")
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    key = np.array([seed, int(tag) & _MASK64], dtype=np.uint64)
    # 2^128 draws per trial stream; streams cannot overlap
    return np.random.Generator(np.random.Philox(key=key, counter=int(index) << 128))
