"""Discrete-event kernel: event calendar, clock, reproducible random streams.

The kernel knows nothing about emergency departments.  It provides a
future-event list with deterministic tie-breaking (a heap of scheduled
events merged with a pre-generated arrival timeline), the per-replication
clock, and a family of independent random substreams derived from a
single replication seed.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

# Event kinds (ints for cheap dispatch in the event loop).
ARRIVAL = 0
SERVICE_COMPLETE = 1
TRANSFER_COMPLETE = 2
SLOT_BOUNDARY = 3
END_OF_HORIZON = 4

# Purpose tags for random substreams, one code per purpose.
STREAM_PURPOSES = ("arrival-yellow", "arrival-red", "los")
_PURPOSE_CODES = {name: i for i, name in enumerate(STREAM_PURPOSES)}


class SimulationLogicError(RuntimeError):
    """An internal invariant of the event loop was violated."""


class EventCalendar:
    """Future-event list: a heap of scheduled events plus an arrival timeline.

    Scheduled events are ordered by (time, insertion sequence number), so
    ties among them go in insertion order.  A replication's arrivals are
    known before it starts: they are passed once, sorted by time (finite,
    non-negative), with one payload each, and never enter the heap.  At
    equal times a scheduled event goes before an arrival.  Every
    replication is thus a pure function of its inputs.
    """

    def __init__(self, arrival_times=(), arrival_payloads=()):
        times = np.asarray(arrival_times, dtype=float)
        if len(times) != len(arrival_payloads):
            raise ValueError(f"got {len(times)} arrival times for {len(arrival_payloads)} payloads")
        if not (np.all(np.isfinite(times) & (times >= 0.0)) and np.all(np.diff(times) >= 0.0)):
            raise SimulationLogicError("arrival times must be finite, non-negative and sorted")
        self._heap = []
        self._seq = 0
        self.clock = 0.0
        # +inf ends the timeline, so pop needs no bounds check
        self._arrival_times = times.tolist()
        self._arrival_times.append(math.inf)
        self._arrival_payloads = list(arrival_payloads)
        self._next_arrival = 0

    def schedule(self, time, kind, payload=None):
        if time < self.clock:
            raise SimulationLogicError(
                f"cannot schedule event kind {kind} at t={time:g} "
                f"before current clock t={self.clock:g}"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, payload))

    def pop(self):
        """Remove and return the next (time, seq, kind, payload); advances the clock.

        An arrival comes back as (time, its timeline index, ARRIVAL, payload).
        """
        i = self._next_arrival
        t = self._arrival_times[i]
        heap = self._heap
        if heap and heap[0][0] <= t:
            ev = heapq.heappop(heap)
            self.clock = ev[0]
            return ev
        if t == math.inf:
            raise IndexError("pop from an empty event calendar")
        self._next_arrival = i + 1
        self.clock = t
        return t, i, ARRIVAL, self._arrival_payloads[i]


@dataclass
class ReplicationSpec:
    """Length, warm-up and seed of one simulation replication (minutes)."""

    horizon: float = 365 * 1440.0
    warmup: float = 48 * 60.0
    seed: int = 1

    def __post_init__(self):
        if not self.warmup < self.horizon:
            raise ValueError(
                f"warmup ({self.warmup}) must be shorter than horizon ({self.horizon})"
            )


class RandomStreams:
    """Independent substreams keyed by (ED index, purpose tag).

    Each substream is a PCG64 generator seeded from a SeedSequence over
    (replication seed, ED index, purpose code), so a stream's draw
    sequence depends only on the seed and its identifier, never on the
    order in which other streams are created or consumed.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._streams = {}

    def get(self, ed, purpose):
        key = (ed, purpose)
        gen = self._streams.get(key)
        if gen is None:
            code = _PURPOSE_CODES[purpose]
            ss = np.random.SeedSequence([self.seed, ed, code])
            gen = np.random.Generator(np.random.PCG64(ss))
            self._streams[key] = gen
        return gen
