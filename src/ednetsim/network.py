"""Emergency-department network model: diversion policies and transfers.

Four diversion policies decide whether an arriving patient boards at the
origin ED or is redirected to another ED of the network; the event loop
in simulate.py keeps each ED's servers and boarding queues.
"""

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


@dataclass(frozen=True)
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
    p3_thresholds: tuple | None = None
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


def validate_transfer_matrix(tau):
    """Ambulance transport times: square, zero diagonal, finite and positive elsewhere."""
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 2 or tau.shape[0] != tau.shape[1]:
        raise ValueError(f"transfer matrix must be square, got shape {tau.shape}")
    n = tau.shape[0]
    for i in range(n):
        if tau[i, i] != 0.0:
            raise ValueError(f"transfer matrix diagonal must be zero, got tau[{i}][{i}]={tau[i, i]:g}")
        for j in range(n):
            if i != j and not 0.0 < tau[i, j] < np.inf:
                raise ValueError(
                    f"transfer time tau[{i}][{j}]={tau[i, j]:g} must be finite and positive"
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


def decide_routing(policy, busy, capacity, thresholds, order, tag, origin):
    """Board-or-redirect decision for a patient arriving at `origin`.

    busy, capacity and thresholds hold each ED's servers in use, its current
    server count and its P3 occupancy threshold (math.inf for none: full
    occupancy).  order is nearest_order of the transfer matrix; every policy
    tries candidates in that order.  Returns the target ED index for a
    redirection, or None to board.  run_replication asks only at an origin
    at its threshold (busy >= min(threshold, capacity)), since every policy
    boards elsewhere; for direct callers the function stays total and
    returns None at an origin with room.
    """
    if policy.id == "P1":
        return None

    if policy.id in ("P2", "P3"):
        # nearest-ED rule; under P2 every threshold is full occupancy
        if policy.id == "P3" and tag == RED:
            return None
        if busy[origin] < min(thresholds[origin], capacity[origin]):
            return None
        candidates = order[origin] if policy.cascade else order[origin][:1]
        for j in candidates:
            if busy[j] < min(thresholds[j], capacity[j]):
                return j
        return None

    # P4: least occupied ED of the whole network (origin included), nearest on ties
    if busy[origin] < capacity[origin]:
        return None
    min_busy = min(busy)
    if busy[origin] == min_busy:
        return None
    for j in order[origin]:
        if busy[j] == min_busy:
            return j
