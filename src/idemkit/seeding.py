"""Counter-based random streams for reproducible, order-independent trials.

Every randomized battery draws trial i from its own Philox stream keyed by
the run seed and offset by a counter, so results never depend on scheduling
and distinct batteries (distinguished by tag) never share a stream.  A seed
is an integer in [0, 2**64), the Philox key word it becomes unchanged, so
distinct seeds never share a stream either.

`trial_stream` makes one trial's generator.  A loop over many trials takes
`trial_streams` instead: it checks the seed once and re-keys one private
Philox generator per trial by setting its state, which costs a tenth of a
new generator and draws exactly what `trial_stream` draws.  The generator
it returns belongs to that loop alone; a loop nested in a trial, such as
the characterization battery inside the `charac` law suite, takes its own.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .semiring import check_integer

_MASK64 = (1 << 64) - 1


def _stream_key(seed: int, tag: int) -> np.ndarray:
    """The Philox key [seed, tag] of a battery; a seed or tag that is not
    an integer, or a seed outside [0, 2**64), raises ValueError."""
    seed = check_integer("seed", seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    return np.array([seed, check_integer("tag", tag) & _MASK64], dtype=np.uint64)


def _checked_index(index: int) -> int:
    index = check_integer("trial index", index)
    if index < 0:
        raise ValueError("trial index must be non-negative")
    if index >> 128:
        raise ValueError("trial index must be below 2**128")
    return index


def trial_stream(seed: int, index: int, tag: int = 0) -> np.random.Generator:
    """Independent generator for trial `index` of the battery `tag` under
    `seed`; a seed, index or tag that is not an integer (a bool, float or
    str among them), a seed outside [0, 2**64), or an index outside
    [0, 2**128) raises ValueError naming it."""
    index = _checked_index(index)
    key = _stream_key(seed, tag)
    # 2^128 draws per trial stream; streams cannot overlap
    return np.random.Generator(np.random.Philox(key=key, counter=index << 128))


def trial_streams(seed: int, tag: int = 0) -> Callable[[int], np.random.Generator]:
    """`stream(i)`, the generator of trial i of the battery `tag` under
    `seed`, drawing what `trial_stream(seed, i, tag)` draws.  The seed and
    tag are checked here, once; a bad index raises as in `trial_stream`.

    Every call returns the same generator, re-keyed: its Philox state is set
    to counter i << 128, key [seed, tag], an empty buffer and no cached
    32-bit half, the state of a new generator.  So the generator of trial i
    is spent once trial i + 1 is asked for, and must not be shared with
    another loop."""
    bits = np.random.Philox(key=_stream_key(seed, tag))
    rng = np.random.Generator(bits)
    state = bits.state  # counter 0, empty buffer, has_uint32 = uinteger = 0
    counter = state["state"]["counter"]

    def stream(index: int) -> np.random.Generator:
        index = _checked_index(index)
        counter[2], counter[3] = index & _MASK64, index >> 64
        bits.state = state
        return rng

    return stream
