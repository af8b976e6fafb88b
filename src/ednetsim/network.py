"""Emergency-department network model: priority queues, diversion, transfers.

Each ED is a single multi-server queue whose server count ("sanitary
resources") changes at the three daily shift boundaries.  Red-tagged
patients have non-preemptive priority over yellow ones; within a tag the
queue is FIFO.  Four diversion policies decide whether an arriving
patient boards at the origin ED or is redirected to another ED of the
network.
"""

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import SLOT_MINUTES, SLOTS_PER_DAY

YELLOW = 0
RED = 1
TAG_NAMES = ("yellow", "red")

POLICY_IDS = ("P1", "P2", "P3", "P4")


def slot_of(t):
    """Index of the 8-hour staffing slot containing minute t of the run."""
    return int(t // SLOT_MINUTES) % SLOTS_PER_DAY


@dataclass
class PolicySpec:
    """Diversion policy and its parameters.

    P1  board always (no redirection anywhere in the network)
    P2  redirect to the nearest ED when all origin resources are busy,
        if the nearest ED has a free resource
    P3  like P2 but only yellow patients are redirected, triggered at a
        per-ED occupancy threshold (p3_thresholds, read under P3 only;
        default: full occupancy)
    P4  redirect to the least-occupied ED of the network, regardless of
        distance, when all origin resources are busy
    cascade: when the nearest ED is itself on diversion, try the next
        nearest instead of boarding (off by default)
    """

    id: str = "P1"
    p3_thresholds: list | None = None
    cascade: bool = False

    def __post_init__(self):
        if self.id not in POLICY_IDS:
            raise ValueError(f"unknown policy {self.id!r}; expected one of {POLICY_IDS}")

    @classmethod
    def coerce(cls, policy):
        if isinstance(policy, PolicySpec):
            return policy
        return cls(id=str(policy))


class Patient(NamedTuple):
    """Record of one completed visit, kept by run_replication(record_patients=True)."""

    tag: int
    origin: int
    serving: int
    t_triage: float
    t_service_start: float
    transfer_minutes: float
    redirects: int
    entry_slot: int

    @property
    def nva_minutes(self):
        """Waiting plus transfer time between triage and start of visit."""
        return self.t_service_start - self.t_triage


class EDState:
    """Occupancy and boarding queues of one ED.

    A patient is whatever the event loop passes (a timeline index); the
    loop keeps their service start times.  Capacity changes are
    non-preemptive: when a shift boundary lowers the server count below
    the number of patients in service, the excess drains as services
    complete and nobody is dequeued until busy falls below the new capacity.
    """

    __slots__ = ("capacity", "busy", "p3_threshold", "_queues")

    def __init__(self, capacity, p3_threshold=None):
        self.capacity = int(capacity)
        self.busy = 0
        self.p3_threshold = p3_threshold
        self._queues = (deque(), deque())  # indexed by tag: yellow, red

    def queue_length(self):
        return len(self._queues[YELLOW]) + len(self._queues[RED])

    def diversion_threshold(self):
        """Occupancy at or above which this ED counts as on (partial) diversion."""
        if self.p3_threshold is None:
            return self.capacity
        return min(self.p3_threshold, self.capacity)

    def admit(self, patient, tag):
        """Seize a free resource (True) or board the patient behind their tag (False)."""
        if self.busy < self.capacity:
            self.busy += 1
            return True
        self._queues[tag].append(patient)
        return False

    def _start_next(self):
        """Seize a resource for the first boarded red patient, else yellow; None if empty."""
        yellow, red = self._queues
        queue = red or yellow
        if not queue:
            return None
        self.busy += 1
        return queue.popleft()

    def release(self):
        """Release one resource; returns the boarded patient whose service starts, if any."""
        self.busy -= 1
        if self.busy < self.capacity:
            return self._start_next()
        return None

    def set_capacity(self, new_capacity):
        """Apply a shift-boundary capacity; returns patients whose service starts now."""
        self.capacity = int(new_capacity)
        started = []
        while self.busy < self.capacity:
            patient = self._start_next()
            if patient is None:
                break
            started.append(patient)
        return started


def validate_transfer_matrix(tau):
    """Ambulance transport times: square, zero diagonal, positive elsewhere."""
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 2 or tau.shape[0] != tau.shape[1]:
        raise ValueError(f"transfer matrix must be square, got shape {tau.shape}")
    n = tau.shape[0]
    for i in range(n):
        if tau[i, i] != 0.0:
            raise ValueError(f"transfer matrix diagonal must be zero, got tau[{i}][{i}]={tau[i, i]:g}")
        for j in range(n):
            if i != j and tau[i, j] <= 0.0:
                raise ValueError(
                    f"transfer time tau[{i}][{j}]={tau[i, j]:g} must be positive"
                )
    return tau


def nearest_order(tau):
    """For each origin, the other EDs sorted by (transfer time, index)."""
    tau = np.asarray(tau, dtype=float)
    n = tau.shape[0]
    return [
        sorted((j for j in range(n) if j != i), key=lambda j: (tau[i, j], j))
        for i in range(n)
    ]


def decide_routing(policy, eds, order, tag, origin):
    """Board-or-redirect decision for a patient arriving at `origin`.

    order is nearest_order of the transfer matrix; every policy tries candidates
    in that order.  Returns the target ED index for a redirection, or None to board.
    """
    if policy.id == "P1":
        return None
    origin_ed = eds[origin]

    if policy.id in ("P2", "P3"):
        # nearest-ED rule; under P2 every threshold is full occupancy
        if policy.id == "P3" and tag == RED:
            return None
        if origin_ed.busy < origin_ed.diversion_threshold():
            return None
        candidates = order[origin] if policy.cascade else order[origin][:1]
        for j in candidates:
            if eds[j].busy < eds[j].diversion_threshold():
                return j
        return None

    # P4: least occupied ED of the whole network (origin included), nearest on ties
    if origin_ed.busy < origin_ed.capacity:
        return None
    min_busy = min(ed.busy for ed in eds)
    if origin_ed.busy == min_busy:
        return None
    for j in order[origin]:
        if eds[j].busy == min_busy:
            return j

