"""Counter-based random number streams built on numpy's Philox generator.

A stream is identified by a (seed, stream) pair of 64-bit integers and a
draw inside a stream by its index, so any value can be regenerated from
(seed, stream, index) alone, on any platform and in any order. Monte Carlo
replications derive disjoint streams from (master seed, replication index)
with no shared mutable state.

spawn opens a stream with a new generator. A caller that reads many short
streams under one seed re-keys one generator instead (restarter): that
costs a fraction of a new generator and draws exactly the same values.
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np


def spawn(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator positioned at the start of one stream.

    Equal (seed, stream) pairs yield identical sequences; distinct pairs
    yield statistically independent ones (distinct Philox keys). Batch
    draws and repeated scalar draws from the same stream produce the same
    sequence, which the engine relies on. seed and stream are the two
    64-bit words of the key: a value outside [0, 2^64) raises a ValueError
    naming it rather than wrapping onto another key.
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= operator.index(value) < 1 << 64:
            raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def restarter(gen: np.random.Generator, seed: int) -> Callable[[int], None]:
    """Re-keyer of gen under seed: rekey(stream) moves gen to that stream's start.

    After rekey(stream), gen draws exactly what spawn(seed, stream) would: a
    Philox stream is fixed by its key alone, so setting the key with a zero
    counter and an empty output buffer replaces building a fresh generator,
    which costs several times more. The state is built once here and each
    call changes only its stream word. A re-keyer owns its state, so give
    each thread its own generator and re-keyer. A seed or stream outside
    [0, 2^64) makes rekey raise OverflowError from numpy's state setter.
    """
    key = [seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator = gen.bit_generator

    def rekey(stream: int) -> None:
        key[1] = stream
        bit_generator.state = state

    return rekey
