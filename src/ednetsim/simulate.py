"""Discrete-event driver for one replication of the ED network.

A replication runs the network for the scenario's horizon under a given
resource plan and diversion policy.  Statistics collected during the
warm-up transient are discarded; a patient contributes their
non-value-added time to the ED that eventually serves them, in the slot
during which they entered that ED.
"""

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    END_OF_HORIZON,
    SERVICE_COMPLETE,
    TRANSFER_COMPLETE,
    EventCalendar,
    RandomStreams,
    SimulationLogicError,
)
from .distributions import SLOT_MINUTES, SLOTS_PER_DAY, LosStore
from .network import (
    RED,
    YELLOW,
    Patient,
    PolicySpec,
    decide_routing,
    nearest_order,
    slot_of,
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
    integral = np.issubdtype(plan.dtype, np.integer)
    if not integral and not np.all(plan == np.floor(plan)):
        raise ValueError("resource plan entries must be integers")
    # bounds are checked before the cast, which would wrap inf or 1e30
    lo, hi = bounds
    if plan.min() < lo or plan.max() > hi:
        raise ValueError(
            f"resource plan entries must lie in [{lo}, {hi}], got range "
            f"[{plan.min()}, {plan.max()}]"
        )
    return plan if integral else plan.astype(int)


def run_replication(scenario, plan, policy, spec, record_patients=False, ed=None):
    """Simulate the network once and return its post-warm-up statistics.

    scenario: a loaded Scenario (arrival processes, visit-time table,
        transfer matrix).
    plan: integer array, one row per ED, one column per daily slot.
    policy: PolicySpec or policy id string.
    spec: ReplicationSpec (horizon, warm-up, seed).
    record_patients: keep a Patient record of every visit completed by a
        patient triaged at or after warm-up, in completion order; under P1
        ED by ED (diagnostics; off by default to save memory).
    ed: under P1 only, the index of the one ED to run; the others stay empty.

    A patient is the timeline index of their arrival.  Events and ED queues
    carry that index; origin and tag are the arrival's payload, the triage
    time its timeline time, and the rest lives in lists indexed by it.

    Each ED is a multi-server queue whose server count (its "sanitary
    resources") follows the plan's slot.  The loop keeps, per ED, the
    servers in use (busy), the server count (capacity) and the boarding
    queues (yellow, red): red patients go before yellow ones, and within a
    tag the queue is FIFO.  Capacity changes are non-preemptive: when a
    shift boundary lowers the server count below the number of patients in
    service, the excess drains as services complete and nobody is dequeued
    until busy falls below the new capacity.  Under P1 nobody moves: each ED
    with arrivals runs alone, on its slice of the timeline and its own heap,
    and the counts add up.  The network loop serves P2-P4.  Both loops push
    and pop a plain list with the heapq functions that EventCalendar holds.
    """
    policy = PolicySpec.coerce(policy)
    n = scenario.n_eds
    plan = check_plan(plan, n, scenario.plan_bounds).tolist()
    horizon, warmup = spec.horizon, spec.warmup

    thresholds = policy.p3_thresholds
    if thresholds is not None and len(thresholds) != n:
        raise ValueError(
            f"policy thresholds must list one value per ED ({n}), got {len(thresholds)}"
        )
    if thresholds is None or policy.id != "P3":
        thresholds = [math.inf] * n
    if ed is not None and not (policy.id == "P1" and 0 <= ed < n):
        raise ValueError(f"only P1 runs one ED alone, on an ED index in [0, {n}), got {ed}")

    timeline = _arrival_timeline(scenario, horizon, RandomStreams(spec.seed))
    los = timeline.los
    nva = [[[[] for _ in range(SLOTS_PER_DAY)] for _ in range(2)] for _ in range(n)]
    redirects_out = [0] * n
    records = [] if record_patients else None
    if policy.id == "P1":  # an ED without arrivals stays empty
        runs = [
            _run_alone(*timeline.slices[i], i, plan[i], los[i], warmup, horizon, nva[i], records)
            for i in (range(n) if ed is None else (ed,)) if timeline.slices[i][1]
        ]
        return _output(nva, redirects_out, records, *map(sum, zip((0, 0, 0, 0), *runs)))

    heap, seq, schedule, pop = [], 1, EventCalendar.schedule, EventCalendar.pop
    schedule(heap, (horizon, seq, END_OF_HORIZON, None))
    payloads = timeline.payloads
    triage = timeline.times.tolist() + [math.inf]  # inf ends it; the horizon comes first

    order = nearest_order(scenario.transfer)
    tau = scenario.transfer.tolist()
    busy = [0] * n
    capacity = [row[0] for row in plan]
    queues = [(deque(), deque()) for _ in range(n)]  # indexed by tag: yellow, red
    starts = [0] * n  # service starts so far, per ED
    serving, service_start, entry_slot = [0] * len(triage), [0.0] * len(triage), [0] * len(triage)
    clock = created = discharged = 0
    next_arrival = triage[0]  # triage[created], kept in a local
    boundary = SLOT_MINUTES if SLOT_MINUTES < horizon else math.inf  # the next slot's start
    slot = 0  # slot boundaries win exact ties, so this is slot_of(clock) at every event

    # Neither arrivals nor slot boundaries enter the heap: the loop keeps the
    # next of each in a local.  A tie goes to the slot boundary, then to
    # scheduled events in insertion order, then to the arrival (patient
    # `created`).  END_OF_HORIZON keeps the heap from emptying.
    while True:
        if boundary <= next_arrival and boundary <= heap[0][0]:
            # each pass starts one boarded patient: lowest ED first, red
            # before yellow.  Every earlier event was strictly before the
            # boundary, so clock < boundary marks its first pass
            if clock < boundary:
                clock = boundary
                slot = slot_of(clock)
                for e in range(n):
                    capacity[e] = plan[e][slot]
            for ed_idx in range(n):
                yellow, red = queues[ed_idx]
                if busy[ed_idx] < capacity[ed_idx] and (red or yellow):
                    break
            else:  # nobody left to start: the boundary is done
                boundary = clock + SLOT_MINUTES if clock + SLOT_MINUTES < horizon else math.inf
                continue
            i = (red or yellow).popleft()
            busy[ed_idx] += 1
            tag, entered = payloads[i][1], entry_slot[i]

        elif heap[0][0] > next_arrival:
            i = created
            created += 1
            clock = next_arrival
            next_arrival = triage[created]
            ed_idx, tag = payloads[i]
            b = busy[ed_idx]
            # divert only from an origin at its threshold (its P3 threshold,
            # else full occupancy); elsewhere every policy boards
            if b >= capacity[ed_idx] or b >= thresholds[ed_idx]:
                target = decide_routing(policy, busy, capacity, thresholds, order, tag, ed_idx)
                if target is not None:  # never the origin
                    if clock >= warmup:
                        redirects_out[ed_idx] += 1
                    serving[i] = target
                    seq += 1
                    schedule(heap, (clock + tau[ed_idx][target], seq, TRANSFER_COMPLETE, i))
                    continue
            serving[i] = ed_idx
            entry_slot[i] = entered = slot
            if b >= capacity[ed_idx]:
                queues[ed_idx][tag].append(i)
                continue
            busy[ed_idx] = b + 1

        else:
            clock, _, kind, i = pop(heap)  # the payload of a patient's event is the patient
            if kind == SERVICE_COMPLETE:
                discharged += 1
                ed_idx = serving[i]
                t_triage = triage[i]
                if t_triage >= warmup:
                    origin, tag = payloads[i]
                    nva[ed_idx][tag][entry_slot[i]].append(service_start[i] - t_triage)
                    if records is not None:
                        records.append(Patient(
                            tag, origin, ed_idx, t_triage, service_start[i], entry_slot[i]
                        ))
                # the freed server goes to the first boarded red patient, else
                # yellow, unless a capacity drop left the ED over its server count
                yellow, red = queues[ed_idx]
                queue = red or yellow
                if not queue or busy[ed_idx] > capacity[ed_idx]:
                    busy[ed_idx] -= 1
                    continue
                i = queue.popleft()
                tag, entered = payloads[i][1], entry_slot[i]

            elif kind == TRANSFER_COMPLETE:
                # boarding without a routing decision: nobody is redirected twice
                ed_idx, tag = serving[i], payloads[i][1]
                entry_slot[i] = entered = slot
                if busy[ed_idx] >= capacity[ed_idx]:
                    queues[ed_idx][tag].append(i)
                    continue
                busy[ed_idx] += 1

            else:  # END_OF_HORIZON
                break

        # service starts for patient i at ed_idx, on the LOS value kept for
        # its (distribution, k) if an earlier replication computed it
        service_start[i] = clock
        k = starts[ed_idx]
        starts[ed_idx] = k + 1
        los_minutes = los[ed_idx].table[tag][entered][k]
        if los_minutes != los_minutes:
            los_minutes = los[ed_idx].value(tag, entered, k)
        seq += 1
        schedule(heap, (clock + los_minutes, seq, SERVICE_COMPLETE, i))

    queued = sum(len(yellow) + len(red) for yellow, red in queues)
    return _output(nva, redirects_out, records, created, discharged, queued, sum(busy))


def _run_alone(times, tags, ed, plan_row, store, warmup, horizon, nva, records):
    """run_replication's loop for one ED working alone (P1), on its own heap.

    (times, tags) is the ED's slice of the timeline and nva its [tag][slot]
    table.  It keeps the ED's state in locals and no serving ED, as nobody
    is redirected.  Returns (created, discharged, queued, in_service).
    """
    heap, schedule, pop = [], EventCalendar.schedule, EventCalendar.pop
    # every later entry is a service start: the k-th (from 0) has seq k + 2
    schedule(heap, (horizon, 1, END_OF_HORIZON, None))
    triage = times.tolist() + [math.inf]  # ends the timeline; the horizon event comes first
    table = store.table
    service_start, entry_slot = [0.0] * len(tags), [0] * len(tags)
    next_arrival, busy, capacity = triage[0], 0, plan_row[0]
    boundary = SLOT_MINUTES if SLOT_MINUTES < horizon else math.inf
    queues = yellow, red = deque(), deque()
    clock = starts = created = discharged = slot = 0  # starts: service starts so far
    while True:
        if boundary <= next_arrival and boundary <= heap[0][0]:
            if clock < boundary:  # the boundary's first pass, as in run_replication
                clock = boundary
                slot = slot_of(clock)
                capacity = plan_row[slot]
            queue = red or yellow
            if busy >= capacity or not queue:
                boundary = clock + SLOT_MINUTES if clock + SLOT_MINUTES < horizon else math.inf
                continue
            i = queue.popleft()
            busy += 1
            tag, entered = tags[i], entry_slot[i]
        elif heap[0][0] > next_arrival:
            i = created
            created += 1
            clock = next_arrival
            next_arrival = triage[created]
            tag = tags[i]
            entry_slot[i] = entered = slot
            if busy >= capacity:
                queues[tag].append(i)
                continue
            busy += 1
        else:
            clock, _, kind, i = pop(heap)
            if kind == END_OF_HORIZON:  # a lone ED schedules completions only
                break
            discharged += 1
            t = triage[i]
            if t >= warmup:
                tag, entered = tags[i], entry_slot[i]
                nva[tag][entered].append(service_start[i] - t)
                if records is not None:
                    records.append(Patient(tag, ed, ed, t, service_start[i], entered))
            queue = red or yellow
            if not queue or busy > capacity:
                busy -= 1
                continue
            i = queue.popleft()
            tag, entered = tags[i], entry_slot[i]
        service_start[i] = clock
        los_minutes = table[tag][entered][starts]
        if los_minutes != los_minutes:
            los_minutes = store.value(tag, entered, starts)
        starts += 1
        schedule(heap, (clock + los_minutes, starts + 1, SERVICE_COMPLETE, i))

    return created, discharged, len(yellow) + len(red), busy


def _output(nva, redirects_out, records, created, discharged, queued, in_service):
    """A finished loop's ReplicationOutput, once its patients add up."""
    in_system = created - discharged
    if in_system - queued - in_service < 0:  # the rest are in transit
        raise SimulationLogicError(
            f"patient accounting broken: created={created} discharged={discharged} "
            f"queued={queued} in_service={in_service}"
        )
    return ReplicationOutput(nva, redirects_out, created, discharged, in_system, records)


class Timeline:
    """One (horizon, seed)'s arrivals, sorted by time, and each ED's LosStore.

    payloads[i] is arrival i's (ED, tag), and slices[ed] the ED's own times
    and tags: the merge is stable, so that is the timeline of a scenario
    with that ED's arrivals alone.  Times are read-only, and finite,
    non-negative and sorted, or SimulationLogicError before anything is built.
    """

    def __init__(self, times, eds, tags, scenario, streams):
        if not (np.isfinite(times).all() and (np.diff(times, prepend=0.0) >= 0.0).all()):
            raise SimulationLogicError("arrival times must be finite, non-negative and sorted")
        n = scenario.n_eds
        keys = [(ed, tag) for ed in range(n) for tag in (YELLOW, RED)]
        self.payloads = tuple(map(keys.__getitem__, (2 * eds + tags).tolist()))
        self.slices = tuple((times[eds == ed], tuple(tags[eds == ed].tolist())) for ed in range(n))
        for array in (times, *(t for t, _ in self.slices)):
            array.flags.writeable = False
        self.los = [LosStore(streams.get(ed, "los"), scenario.los[ed]) for ed in range(n)]
        self.times = times


def _arrival_timeline(scenario, horizon, streams):
    """The Timeline of (horizon, streams.seed), drawn at its first use.

    The (ED, tag) streams are generated in ED then tag order and merged by
    a stable sort, so simultaneous arrivals keep that order.  The arrivals
    depend on the scenario, horizon and seed alone, so they are kept on
    scenario.timelines; a kept timeline leaves the arrival streams unused.
    """
    key = horizon, streams.seed
    if key not in scenario.timelines:
        keys, chunks = [], []
        for i in range(scenario.n_eds):
            for tag, purpose in ((YELLOW, "arrival-yellow"), (RED, "arrival-red")):
                process = scenario.arrivals[i][tag]
                if process is not None and process.day_intensity > 0.0:
                    keys.append((i, tag))
                    chunks.append(process.arrival_times(horizon, streams.get(i, purpose)))
        times = np.concatenate([np.empty(0), *chunks])
        order = np.argsort(times, kind="stable")
        pairs = np.array(keys, dtype=int).reshape(-1, 2).repeat([len(c) for c in chunks], axis=0)
        scenario.timelines[key] = Timeline(times[order], *pairs[order].T, scenario, streams)
    return scenario.timelines[key]


def replicate(scenario, plan, policy, replications, first=0, ed=None):
    """The outputs of runs first, ..., replications - 1 of one plan, in order, as an iterator.

    Run k takes the seed scenario.replication.seed + k + 1, whatever the
    count, so every plan evaluated on the same scenario shares its random
    streams (common random numbers) and a longer run extends a shorter one.
    This is the only place that maps a base seed to replication seeds.
    ed is passed on to run_replication: under P1, the one ED to run.
    Fewer than one replication raises ValueError at the call.
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    base = scenario.replication
    return (
        run_replication(scenario, plan, policy, replace(base, seed=base.seed + k + 1), ed=ed)
        for k in range(first, replications)
    )


def replicate_alone(scenario, plan, replications, ed):
    """One ED's first `replications` results when it works alone (P1): (means, waits).

    means lists the ED's pooled mean NVA by tag, (yellow, red), per
    replication, and waits its 3x2 mean waits by (slot, tag).  The runs are
    run_replication's with ed=ed: that ED's share of whole-network P1 runs,
    bit for bit.  Replication k runs on the same seed whatever the count, so
    scenario.solo_runs keeps one growing list of results per (ED, plan row):
    a call simulates only the replications that list does not hold yet.
    """
    if not 0 <= ed < scenario.n_eds:
        raise ValueError(f"ED index {ed} out of range [0, {scenario.n_eds})")
    means, waits = scenario.solo_runs.setdefault((ed, tuple(plan[ed].tolist())), ([], []))
    # replicate rejects a bad replication count before anything runs
    for out in replicate(scenario, plan, "P1", replications, first=len(means), ed=ed):
        means.append((out.mean_nva(ed, YELLOW), out.mean_nva(ed, RED)))
        waits.append(out.slot_tag_waits(ed))
    return means[:replications], waits[:replications]
