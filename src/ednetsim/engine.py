"""Discrete-event kernel: event calendar, clock, reproducible random streams.

The kernel knows nothing about emergency departments.  It provides a
future-event heap with deterministic tie-breaking, the per-replication
clock, and a family of independent random substreams derived from a
single replication seed.
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
    """Future-event list: a heap of scheduled events and the clock.

    Events are ordered by (time, seq), seq being the insertion number, so
    ties go in insertion order and payloads are never compared.
    `heap` is the heapq list itself: heap[0] is the next event, and callers
    only read it.  Every replication is thus a pure function of its inputs.
    """

    def __init__(self):
        self.heap = []
        self._seq = 0
        self.clock = 0.0

    def schedule(self, time, kind, payload=None):
        if time < self.clock:
            raise SimulationLogicError(
                f"cannot schedule event kind {kind} at t={time:g} "
                f"before current clock t={self.clock:g}"
            )
        self._seq += 1
        heappush(self.heap, (time, self._seq, kind, payload))

    def pop(self):
        """Remove and return the next (time, seq, kind, payload); advances the clock."""
        ev = heappop(self.heap)
        self.clock = ev[0]
        return ev


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
