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


class Patient:
    """One yellow- or red-tagged patient flowing through the network."""

    __slots__ = (
        "tag",
        "origin",
        "serving",
        "t_triage",
        "t_service_start",
        "transfer_minutes",
        "redirects",
        "entry_slot",
    )

    def __init__(self, tag, origin, t_triage):
        self.tag = tag
        self.origin = origin
        self.serving = origin
        self.t_triage = t_triage
        self.t_service_start = None
        self.transfer_minutes = 0.0
        self.redirects = 0
        self.entry_slot = 0

    @property
    def nva_minutes(self):
        """Waiting plus transfer time between triage and start of visit."""
        return self.t_service_start - self.t_triage


class EDState:
    """Occupancy and boarding queues of one ED.

    Capacity changes are non-preemptive: when a shift boundary lowers the
    server count below the number of patients in service, the excess
    drains as services complete and nobody is dequeued until busy falls
    below the new capacity.
    """

    __slots__ = ("ed_id", "capacity", "busy", "p3_threshold", "_queues")

    def __init__(self, ed_id, capacity, p3_threshold=None):
        self.ed_id = ed_id
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

    def admit(self, patient, clock):
        """Seize a free resource or board the patient; True if service started."""
        if self.busy < self.capacity:
            self.busy += 1
            patient.t_service_start = clock
            return True
        self._queues[patient.tag].append(patient)
        return False

    def _start_next(self, clock):
        """Start the first boarded red patient, else the first yellow; None if empty."""
        for q in (self._queues[RED], self._queues[YELLOW]):
            if q:
                patient = q.popleft()
                patient.t_service_start = clock
                self.busy += 1
                return patient
        return None

    def release(self, clock):
        """Release one resource; start the highest-priority boarded patient, if any."""
        self.busy -= 1
        if self.busy < self.capacity:
            return self._start_next(clock)
        return None

    def set_capacity(self, new_capacity, clock):
        """Apply a shift-boundary capacity; returns patients whose service starts now."""
        self.capacity = int(new_capacity)
        started = []
        while self.busy < self.capacity:
            patient = self._start_next(clock)
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


def decide_routing(policy, eds, tau, order, tag, origin):
    """Board-or-redirect decision for a patient arriving at `origin`.

    Returns the target ED index for a redirection, or None to board.
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

    # P4: least occupied ED of the whole network, origin included
    if origin_ed.busy < origin_ed.capacity:
        return None
    min_busy = min(ed.busy for ed in eds)
    if origin_ed.busy == min_busy:
        return None
    best = None
    for j, ed in enumerate(eds):
        if j == origin or ed.busy != min_busy:
            continue
        if best is None or (tau[origin][j], j) < (tau[origin][best], best):
            best = j
    return best


def start_transfer(patient, origin, target, tau):
    """Book-keep one redirection; returns the arrival time offset (minutes)."""
    if target == origin:
        raise ValueError(f"cannot transfer patient from ED {origin} to itself")
    minutes = float(tau[origin][target])
    patient.transfer_minutes += minutes
    patient.redirects += 1
    patient.serving = target
    return minutes
