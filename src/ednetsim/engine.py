"""Discrete-event kernel: event kinds, heap functions, reproducible random streams.

The kernel knows nothing about emergency departments.  It names the event
kinds and the heap functions the event loops push and pop with, checks a
replication's length, and provides a family of independent random
substreams derived from a single replication seed.
"""

import math
from dataclasses import dataclass
from heapq import heappop, heappush

# numpy loads numpy.random on first use; import it with the engine, not in the first replication
from numpy.random import PCG64, Generator, SeedSequence

# Event kinds (ints for cheap dispatch in the event loop).
SERVICE_COMPLETE = 1
TRANSFER_COMPLETE = 2
END_OF_HORIZON = 3

# Purpose tags for random substreams, one code per purpose.
STREAM_PURPOSES = ("arrival-yellow", "arrival-red", "los")
_PURPOSE_CODES = {name: i for i, name in enumerate(STREAM_PURPOSES)}


class SimulationLogicError(RuntimeError):
    """An internal invariant of the event loop was violated."""


class EventCalendar:
    """heapq's two functions on a class: the loops' one place to push and pop.

    Each event loop keeps a plain list as its heap of (time, seq, kind,
    payload) entries, seq being the insertion number, so ties go in
    insertion order and kinds and payloads are never compared.  A loop looks
    both names up on the class once per run, so a wrapper set on the class
    (to count or time heap work) is seen by every later run.
    """

    schedule = heappush
    pop = heappop


@dataclass(frozen=True)
class ReplicationSpec:
    """Length, warm-up and seed of one simulation replication (minutes)."""

    horizon: float = 365 * 1440.0
    warmup: float = 48 * 60.0
    seed: int = 1

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon ({self.horizon}) must be finite and above 0")
        if not 0.0 <= self.warmup < self.horizon:
            raise ValueError(
                f"warmup ({self.warmup}) must be at least 0 and shorter than horizon "
                f"({self.horizon})"
            )


class RandomStreams:
    """Independent substreams keyed by (ED index, purpose tag).

    Each substream is a PCG64 generator seeded from a SeedSequence over
    (replication seed, ED index, purpose code), so a stream's draw
    sequence depends only on the seed and its identifier, never on the
    order in which other streams are created or consumed.  Each call makes
    a new generator at the start of its stream; the simulator asks for each
    stream once per seed and keeps what it draws.
    """

    def __init__(self, seed):
        self.seed = int(seed)

    def get(self, ed, purpose):
        return Generator(PCG64(SeedSequence([self.seed, ed, _PURPOSE_CODES[purpose]])))
