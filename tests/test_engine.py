"""Event heap, replication spec, and random-stream tests.

The loops keep scheduled events on a plain list, pushed and popped with
the heapq functions that EventCalendar holds, and merge the arrival
timeline and slot boundaries in themselves, so the heap's order is tested
through the loops on planted timelines and random networks, here and in
test_simulate.py.
"""

import heapq
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ednetsim import run_replication, scenario_from_dict
from ednetsim.engine import (
    END_OF_HORIZON,
    SERVICE_COMPLETE,
    EventCalendar,
    RandomStreams,
    ReplicationSpec,
)
from ednetsim.network import RED, YELLOW, PolicySpec

from util import one_ed_run, planted_network, starts


def test_loops_push_and_pop_with_heapq_itself():
    # no Python frame between the loops and heapq's C functions: a wrapper
    # belongs on the class only while something counts or times heap work
    assert EventCalendar.schedule is heapq.heappush
    assert EventCalendar.pop is heapq.heappop


def test_calendar_breaks_ties_by_insertion_order():
    # every visit takes 100 minutes on a row of (1, 3, 3) servers.  Patient 0
    # ends at 500; at the boundary at 480 the queue sends red patient 2, then
    # yellow patient 1, into service, so both end at 580 and leave in that
    # order, not by index or tag.  Patient 3 starts at 500.  Patient 4's
    # visit would end at the horizon, where END_OF_HORIZON, scheduled first,
    # wins the tie: the run ends with patient 4 still in service
    arrivals = [(400.0, YELLOW), (410.0, YELLOW), (420.0, RED), (430.0, YELLOW),
                (1340.0, YELLOW)]
    for policy in ("P1", "P2"):  # the lone-ED loop, then the network loop
        sc, spec = planted_network([(t, 0, tag) for t, tag in arrivals], visit=100.0)
        out = run_replication(sc, np.array([[1, 3, 3]]), policy, spec, record_patients=True)
        assert [(p.t_triage, p.t_service_start) for p in out.patients] == [
            (400.0, 400.0), (420.0, 480.0), (410.0, 480.0), (430.0, 500.0),
        ]
        assert (out.created, out.discharged, out.in_system) == (5, 4, 1)


def test_calendar_tie_break_ignores_payload():
    # payloads may be unorderable objects: (time, seq) decides every
    # comparison, so heapq never reaches kind or payload
    heap = []
    EventCalendar.schedule(heap, (1.0, 2, SERVICE_COMPLETE, object()))
    EventCalendar.schedule(heap, (1.0, 3, SERVICE_COMPLETE, object()))
    assert [EventCalendar.pop(heap)[1] for _ in range(2)] == [2, 3]
    # in the planted run above two visits end at 580 and one at the horizon,
    # yet no two entries pushed on one heap share a seq
    for policy in ("P1", "P2"):
        pushed = []

        def schedule(heap, entry):
            pushed.append(entry[:2])
            return heapq.heappush(heap, entry)

        sc, spec = planted_network([(400.0, 0, YELLOW), (410.0, 0, YELLOW), (420.0, 0, RED),
                                    (430.0, 0, YELLOW), (1340.0, 0, YELLOW)], visit=100.0)
        with mock.patch.object(EventCalendar, "schedule", schedule):
            run_replication(sc, np.array([[1, 3, 3]]), policy, spec)
        times = [t for t, _ in pushed]
        assert times.count(580.0) == 2 and times.count(spec.horizon) == 2
        assert len({seq for _, seq in pushed}) == len(pushed)


@st.composite
def small_networks(draw):
    """(scenario, plan, policy, spec) of 1-3 EDs over one to three days."""
    n = draw(st.integers(1, 3))
    rates = st.lists(st.sampled_from([0.0, 0.02, 0.05, 0.1]), min_size=3, max_size=3)
    los = st.sampled_from([
        {"family": "exponential", "mean": 45.0},
        {"family": "empirical", "values": [20.0, 60.0]},  # visits often end together
    ])
    eds = [
        {
            "name": f"ED{i}",
            "arrivals": {"yellow": {"rates": draw(rates)}, "red": {"rates": draw(rates)}},
            "los": {"yellow": draw(los), "red": draw(los)},
        }
        for i in range(n)
    ]
    tau = [[0.0 if i == j else draw(st.sampled_from([10.0, 20.0])) for j in range(n)]
           for i in range(n)]
    sc = scenario_from_dict({"eds": eds, "transfer_minutes": tau, "plan_bounds": [1, 3]})
    plan = np.array(draw(st.lists(st.lists(st.integers(1, 3), min_size=3, max_size=3),
                                  min_size=n, max_size=n)))
    thresholds = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    policy = PolicySpec(draw(st.sampled_from(["P1", "P2", "P3", "P4"])),
                        p3_thresholds=thresholds, cascade=draw(st.booleans()))
    spec = ReplicationSpec(horizon=draw(st.integers(1, 3)) * 1440.0,
                           warmup=draw(st.sampled_from([0.0, 480.0])),
                           seed=draw(st.integers(0, 99)))
    return sc, plan, policy, spec


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_networks())
def test_calendar_orders_by_time(case):
    # each loop pops its heap in (time, seq) order: times never decrease,
    # no two entries tie on seq (so kinds and payloads are never compared),
    # and none comes after the horizon, where END_OF_HORIZON, with seq 1,
    # ends the loop.  Under P1 each ED with arrivals runs its own loop
    sc, plan, policy, spec = case
    runs, popped = [], []

    def pop(heap):
        entry = heapq.heappop(heap)
        popped.append(entry)
        if entry[2] == END_OF_HORIZON:
            runs.append(popped[:])
            popped.clear()
        return entry

    with mock.patch.object(EventCalendar, "pop", pop):
        run_replication(sc, plan, policy, spec)
    slices = sc.timelines[spec.horizon, spec.seed].slices
    assert not popped
    assert len(runs) == (sum(bool(tags) for _, tags in slices) if policy.id == "P1" else 1)
    for entries in runs:
        keys = [entry[:2] for entry in entries]
        assert keys == sorted(set(keys))
        assert keys[-1] == (spec.horizon, 1)
        assert all(kind != END_OF_HORIZON for _, _, kind, _ in entries[:-1])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_networks())
def test_clock_advances_and_rejects_past_events(case):
    # the clock is the time of the last entry popped, or of the arrival
    # being handled; no loop pushes an entry before it, so popped times
    # never go back, and each run's clock reaches the horizon (under P1 an
    # ED without arrivals runs no loop)
    sc, plan, policy, spec = case
    clock, ends = [0.0], []

    def schedule(heap, entry):
        assert entry[0] >= clock[0]
        return heapq.heappush(heap, entry)

    def pop(heap):
        entry = heapq.heappop(heap)
        assert entry[0] >= clock[0]
        clock[0] = entry[0]
        if entry[2] == END_OF_HORIZON:
            ends.append(clock[0])
            clock[0] = 0.0  # under P1 the next ED's run starts its own clock
        return entry

    with (
        mock.patch.object(EventCalendar, "schedule", schedule),
        mock.patch.object(EventCalendar, "pop", pop),
    ):
        run_replication(sc, plan, policy, spec)
    slices = sc.timelines[spec.horizon, spec.seed].slices
    runs = sum(bool(tags) for _, tags in slices) if policy.id == "P1" else 1
    assert ends == [spec.horizon] * runs


def test_calendar_empties_after_every_event():
    # END_OF_HORIZON is the last entry a run pops.  When every visit has
    # ended before the horizon the heap is empty after it, and a further pop
    # fails as on any empty list; a visit still running at the horizon is
    # all that is left on it
    ended = []

    def pop(heap):
        entry = heapq.heappop(heap)
        if entry[2] == END_OF_HORIZON:
            ended.append(heap)
        return entry

    with mock.patch.object(EventCalendar, "pop", pop):
        one_ed_run([(10.0, YELLOW), (1000.0, RED)], [1, 1, 1])
        for policy in ("P1", "P2"):
            sc, spec = planted_network([(400.0, 0, YELLOW), (1420.0, 0, RED)], visit=100.0)
            run_replication(sc, np.array([[1, 1, 1]]), policy, spec)
    assert ended[0] == []
    with pytest.raises(IndexError):
        EventCalendar.pop(ended[0])
    assert [[entry[0] for entry in heap] for heap in ended[1:]] == [[1520.0], [1520.0]]


def test_calendar_interleaves_arrivals_and_scheduled_events():
    # arrivals, completions (at 40 and 75) and the boundary at 480 run in
    # time order, and arrivals go on after the last completion of the day
    out = one_ed_run([(10.0, YELLOW), (45.0, RED), (600.0, YELLOW), (1000.0, RED)], [1, 1, 1])
    assert starts(out) == [
        (YELLOW, 10.0, 10.0), (RED, 45.0, 45.0), (YELLOW, 600.0, 600.0), (RED, 1000.0, 1000.0),
    ]
    assert [p.entry_slot for p in out.patients] == [0, 0, 1, 2]


def test_calendar_arrivals_pop_after_heap_empties():
    # after the completion at 40 and the last boundary at 960 the heap holds
    # only the end of the horizon; the arrivals left on the timeline still
    # run, each on a free server, and all of them end before the horizon
    arrivals = [(10.0, YELLOW), (1000.0, RED), (1100.0, YELLOW), (1200.0, YELLOW)]
    out = one_ed_run(arrivals, [1, 1, 1])
    assert starts(out) == [(tag, t, t) for t, tag in arrivals]
    assert [p.entry_slot for p in out.patients] == [0, 2, 2, 2]


def test_replication_spec_validates_warmup():
    spec = ReplicationSpec()
    assert spec.horizon == 365 * 1440.0
    assert spec.warmup == 48 * 60.0
    with pytest.raises(ValueError):
        ReplicationSpec(horizon=100.0, warmup=100.0)
    with pytest.raises(ValueError):
        ReplicationSpec(horizon=100.0, warmup=200.0)


@pytest.mark.parametrize(
    "horizon, warmup, message",
    [
        (-10.0, -20.0, "^horizon"),
        (0.0, -1.0, "^horizon"),
        (math.inf, 0.0, "^horizon"),
        (math.nan, 0.0, "^horizon"),
        (100.0, -1.0, "^warmup"),
    ],
)
def test_replication_spec_rejects_what_the_loop_cannot_run(horizon, warmup, message):
    # the event loop needs a finite horizon above 0 and a warm-up inside it
    with pytest.raises(ValueError, match=message):
        ReplicationSpec(horizon=horizon, warmup=warmup)


def test_streams_are_reproducible():
    a = RandomStreams(99).get(2, "los")
    b = RandomStreams(99).get(2, "los")
    assert np.array_equal(a.random(16), b.random(16))


def test_streams_differ_across_eds_purposes_and_seeds():
    base = RandomStreams(7).get(0, "los").random(8)
    assert not np.array_equal(base, RandomStreams(7).get(1, "los").random(8))
    assert not np.array_equal(base, RandomStreams(7).get(0, "arrival-red").random(8))
    assert not np.array_equal(base, RandomStreams(8).get(0, "los").random(8))


def test_stream_independent_of_creation_order():
    s1 = RandomStreams(5)
    s1.get(0, "arrival-yellow").random(100)  # consume another stream first
    v1 = s1.get(3, "los").random(4)
    s2 = RandomStreams(5)
    v2 = s2.get(3, "los").random(4)
    assert np.array_equal(v1, v2)


def test_unknown_purpose_rejected():
    with pytest.raises(KeyError):
        RandomStreams(1).get(0, "nonsense")
