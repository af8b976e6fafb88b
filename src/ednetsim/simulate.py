"""Discrete-event driver for one replication of the ED network.

A replication runs the network for the scenario's horizon under a given
resource plan and diversion policy.  Statistics collected during the
warm-up transient are discarded; a patient contributes their
non-value-added time to the ED that eventually serves them, in the slot
during which they entered that ED.
"""

from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    ARRIVAL,
    END_OF_HORIZON,
    SERVICE_COMPLETE,
    SLOT_BOUNDARY,
    TRANSFER_COMPLETE,
    EventCalendar,
    RandomStreams,
    SimulationLogicError,
)
from .distributions import SLOT_MINUTES, SLOTS_PER_DAY
from .network import (
    RED,
    YELLOW,
    EDState,
    Patient,
    PolicySpec,
    decide_routing,
    nearest_order,
    slot_of,
    start_transfer,
)


@dataclass
class ReplicationOutput:
    """Post-warm-up statistics of a single replication.

    nva[ed][tag][slot] is the list of non-value-added times (minutes) of
    the patients served by `ed` who entered it during `slot`, one entry
    per completed visit.  redirects_out counts patients diverted away
    from each origin ED.
    """

    nva: list
    redirects_out: list
    created: int
    discharged: int
    in_system: int
    patients: list | None = None

    def mean_nva(self, ed, tag):
        """Mean NVA in minutes for one (ED, tag), slots pooled; 0.0 when nobody was served."""
        values = [v for slot_values in self.nva[ed][tag] for v in slot_values]
        return sum(values) / len(values) if values else 0.0

    def slot_tag_waits(self, ed):
        """3x2 matrix of mean waits by (slot, tag) for one ED; empty cells are 0."""
        waits = np.zeros((SLOTS_PER_DAY, 2))
        for tag in (YELLOW, RED):
            for slot in range(SLOTS_PER_DAY):
                values = self.nva[ed][tag][slot]
                if values:
                    waits[slot, tag] = sum(values) / len(values)
        return waits


def check_plan(plan, n_eds, bounds):
    """The plan as an int array of shape (n_eds, slots), or ValueError.

    Entries must be whole numbers within `bounds` (low, high).
    """
    plan = np.asarray(plan)
    if plan.shape != (n_eds, SLOTS_PER_DAY):
        raise ValueError(
            f"resource plan must have shape ({n_eds}, {SLOTS_PER_DAY}), got {plan.shape}"
        )
    if not np.issubdtype(plan.dtype, np.integer):
        if not np.all(plan == np.floor(plan)):
            raise ValueError("resource plan entries must be integers")
        plan = plan.astype(int)
    lo, hi = bounds
    if plan.min() < lo or plan.max() > hi:
        raise ValueError(
            f"resource plan entries must lie in [{lo}, {hi}], got range "
            f"[{plan.min()}, {plan.max()}]"
        )
    return plan


def run_replication(scenario, plan, policy, spec, record_patients=False):
    """Simulate the network once and return its post-warm-up statistics.

    scenario: a loaded Scenario (arrival processes, visit-time table,
        transfer matrix).
    plan: integer array, one row per ED, one column per daily slot.
    policy: PolicySpec or policy id string.
    spec: ReplicationSpec (horizon, warm-up, seed).
    record_patients: keep per-patient records of every completed visit
        (diagnostics; off by default to save memory).
    """
    policy = PolicySpec.coerce(policy)
    n = scenario.n_eds
    plan = check_plan(plan, n, scenario.plan_bounds)
    tau = scenario.transfer
    order = nearest_order(tau)
    horizon, warmup = spec.horizon, spec.warmup

    thresholds = policy.p3_thresholds
    if thresholds is not None and len(thresholds) != n:
        raise ValueError(
            f"policy thresholds must list one value per ED ({n}), got {len(thresholds)}"
        )
    if thresholds is None or policy.id != "P3":
        thresholds = [None] * n
    eds = [EDState(plan[i][0], thresholds[i]) for i in range(n)]

    streams = RandomStreams(spec.seed)
    times, payloads, sources = _arrival_timeline(scenario, horizon, streams)
    # Under P1 a patient only boards at the ED they arrive at, so EDs that
    # have no arrivals stay empty: they need no LOS stream and no staffing.
    routing_active = policy.id != "P1"
    staffed = range(n) if routing_active else sorted({ed for ed, _ in sources})
    los_rngs = {i: streams.get(i, "los") for i in staffed}
    los_table = scenario.los  # [ed][tag][slot] -> LosDistribution

    calendar = EventCalendar(times, payloads)
    calendar.schedule(horizon, END_OF_HORIZON)
    boundary = SLOT_MINUTES
    while boundary < horizon:
        calendar.schedule(boundary, SLOT_BOUNDARY)
        boundary += SLOT_MINUTES

    nva = [[[[] for _ in range(SLOTS_PER_DAY)] for _ in range(2)] for _ in range(n)]
    redirects_out = [0] * n
    created = discharged = 0
    records = [] if record_patients else None

    def start_service(patient, ed_idx, clock):
        dist = los_table[ed_idx][patient.tag][patient.entry_slot]
        calendar.schedule(clock + dist.sample(los_rngs[ed_idx]), SERVICE_COMPLETE, patient)

    def board(patient, ed_idx, clock):
        patient.serving = ed_idx
        patient.entry_slot = slot_of(clock)
        if eds[ed_idx].admit(patient, clock):
            start_service(patient, ed_idx, clock)

    while True:
        clock, _, kind, payload = calendar.pop()

        if kind == ARRIVAL:
            ed_idx, tag = payload
            created += 1
            patient = Patient(tag, ed_idx, clock)
            target = None
            if routing_active:
                target = decide_routing(policy, eds, order, tag, ed_idx)
            if target is None:
                board(patient, ed_idx, clock)
            else:
                if clock >= warmup:
                    redirects_out[ed_idx] += 1
                minutes = start_transfer(patient, ed_idx, target, tau)
                calendar.schedule(clock + minutes, TRANSFER_COMPLETE, patient)

        elif kind == SERVICE_COMPLETE:
            patient = payload
            discharged += 1
            ed_idx = patient.serving
            if patient.t_triage >= warmup:
                nva[ed_idx][patient.tag][patient.entry_slot].append(patient.nva_minutes)
                if records is not None:
                    records.append(patient)
            follower = eds[ed_idx].release(clock)
            if follower is not None:
                start_service(follower, ed_idx, clock)

        elif kind == TRANSFER_COMPLETE:
            # boarding without a routing decision: nobody is redirected twice
            patient = payload
            board(patient, patient.serving, clock)

        elif kind == SLOT_BOUNDARY:
            slot = slot_of(clock)
            for i in staffed:
                for started in eds[i].set_capacity(plan[i][slot], clock):
                    start_service(started, i, clock)

        elif kind == END_OF_HORIZON:
            break

        else:  # pragma: no cover - the calendar only holds the kinds above
            raise SimulationLogicError(f"unhandled event kind {kind}")

    in_system = created - discharged
    queued = sum(ed.queue_length() for ed in eds)
    in_service = sum(ed.busy for ed in eds)
    in_transit = in_system - queued - in_service
    if in_transit < 0:
        raise SimulationLogicError(
            f"patient accounting broken: created={created} discharged={discharged} "
            f"queued={queued} in_service={in_service}"
        )

    return ReplicationOutput(
        nva=nva,
        redirects_out=redirects_out,
        created=created,
        discharged=discharged,
        in_system=in_system,
        patients=records,
    )


def _arrival_timeline(scenario, horizon, streams):
    """Every arrival as (times, payloads, sources), sorted by time.

    The (ED, tag) streams are generated in ED then tag order and merged by
    a stable sort, so simultaneous arrivals keep that order.  A payload is
    the arrival's (ED index, tag); sources lists the pairs with arrivals.
    """
    keys, chunks = [], []
    for i in range(scenario.n_eds):
        for tag, purpose in ((YELLOW, "arrival-yellow"), (RED, "arrival-red")):
            process = scenario.arrivals[i][tag]
            if process is None or process.day_intensity == 0.0:
                continue
            times = process.arrival_times(horizon, streams.get(i, purpose))
            if len(times):
                keys.append((i, tag))
                chunks.append(times)
    times = np.concatenate([np.empty(0), *chunks])
    source = np.repeat(np.arange(len(keys)), [len(c) for c in chunks])
    order = np.argsort(times, kind="stable")
    return times[order], [keys[k] for k in source[order].tolist()], keys


def replicate(scenario, plan, policy, replications):
    """The outputs of `replications` runs of one plan, in order, as an iterator.

    The runs take the seeds following scenario.replication.seed, one each,
    so every plan evaluated on the same scenario shares its random streams
    (common random numbers).  This is the only place that maps a base seed
    to replication seeds.  Fewer than one replication raises ValueError at the call.
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    base = scenario.replication
    return (
        run_replication(scenario, plan, policy, replace(base, seed=base.seed + k + 1))
        for k in range(replications)
    )
