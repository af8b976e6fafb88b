"""Event calendar, replication spec, and random-stream tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ednetsim.engine import (
    ARRIVAL,
    SERVICE_COMPLETE,
    SLOT_BOUNDARY,
    EventCalendar,
    RandomStreams,
    ReplicationSpec,
    SimulationLogicError,
)


def test_calendar_orders_by_time():
    cal = EventCalendar()
    cal.schedule(5.0, ARRIVAL, "a")
    cal.schedule(3.0, ARRIVAL, "b")
    cal.schedule(4.0, SERVICE_COMPLETE, "c")
    popped = [cal.pop()[3] for _ in range(3)]
    assert popped == ["b", "c", "a"]


def test_calendar_breaks_ties_by_insertion_order():
    cal = EventCalendar()
    for name in ("first", "second", "third"):
        cal.schedule(7.0, ARRIVAL, name)
    assert [cal.pop()[3] for _ in range(3)] == ["first", "second", "third"]


def test_calendar_tie_break_ignores_payload():
    # payloads may be unorderable objects; ties must not compare them
    cal = EventCalendar()
    cal.schedule(1.0, ARRIVAL, object())
    cal.schedule(1.0, ARRIVAL, object())
    cal.pop()
    cal.pop()


def test_clock_advances_and_rejects_past_events():
    cal = EventCalendar()
    cal.schedule(10.0, ARRIVAL)
    assert cal.clock == 0.0
    cal.pop()
    assert cal.clock == 10.0
    with pytest.raises(SimulationLogicError):
        cal.schedule(9.0, ARRIVAL)
    cal.schedule(10.0, ARRIVAL)  # same-time scheduling stays legal


def test_calendar_empties_after_every_event():
    cal = EventCalendar()
    with pytest.raises(IndexError):
        cal.pop()
    cal.schedule(1.0, ARRIVAL, "x")
    cal.schedule(2.0, ARRIVAL, "y")
    assert [cal.pop()[3] for _ in range(2)] == ["x", "y"]
    with pytest.raises(IndexError):
        cal.pop()
    # pending arrivals of the timeline are events too
    cal = EventCalendar([1.0, 2.0, 3.0], ["a", "b", "c"])
    cal.schedule(2.5, SERVICE_COMPLETE, "s")
    assert [cal.pop()[3] for _ in range(4)] == ["a", "b", "s", "c"]
    with pytest.raises(IndexError):
        cal.pop()


def test_calendar_interleaves_arrivals_and_scheduled_events():
    cal = EventCalendar([1.0, 4.0, 6.0], ["a1", "a2", "a3"])
    cal.schedule(5.0, SERVICE_COMPLETE, "s5")
    cal.schedule(2.0, SLOT_BOUNDARY, "b2")
    popped = [cal.pop() for _ in range(5)]
    assert [(t, kind, payload) for t, _, kind, payload in popped] == [
        (1.0, ARRIVAL, "a1"),
        (2.0, SLOT_BOUNDARY, "b2"),
        (4.0, ARRIVAL, "a2"),
        (5.0, SERVICE_COMPLETE, "s5"),
        (6.0, ARRIVAL, "a3"),
    ]


def test_calendar_scheduled_event_wins_tie_with_arrival():
    cal = EventCalendar([3.0, 3.0], ["a", "b"])
    cal.schedule(3.0, SLOT_BOUNDARY, "boundary")
    assert [cal.pop()[3] for _ in range(3)] == ["boundary", "a", "b"]


def test_calendar_arrivals_pop_after_heap_empties():
    cal = EventCalendar([2.0, 7.0, 9.0], ["a", "b", "c"])
    cal.schedule(1.0, SERVICE_COMPLETE, "s")
    assert cal.pop()[3] == "s"  # the heap is now empty
    assert [cal.pop()[2:] for _ in range(3)] == [(ARRIVAL, "a"), (ARRIVAL, "b"), (ARRIVAL, "c")]


def test_arrival_pop_advances_clock():
    cal = EventCalendar([10.0], ["a"])
    cal.schedule(20.0, SERVICE_COMPLETE)
    assert cal.pop()[2] == ARRIVAL
    assert cal.clock == 10.0
    with pytest.raises(SimulationLogicError):
        cal.schedule(9.0, SERVICE_COMPLETE)
    cal.schedule(10.0, SERVICE_COMPLETE)  # same-time scheduling stays legal


def test_calendar_rejects_bad_arrival_timeline():
    with pytest.raises(SimulationLogicError):
        EventCalendar([2.0, 1.0], ["a", "b"])
    with pytest.raises(SimulationLogicError):
        EventCalendar([-1.0, 1.0], ["a", "b"])
    with pytest.raises(SimulationLogicError):
        EventCalendar([1.0, np.inf], ["a", "b"])
    with pytest.raises(ValueError):
        EventCalendar([1.0, 2.0], ["a"])


@st.composite
def arrivals_and_events(draw):
    """Distinct times, each an arrival of the timeline or a scheduled event."""
    times = sorted(draw(st.lists(st.floats(0.0, 1e4), unique=True, max_size=60)))
    is_arrival = draw(st.lists(st.booleans(), min_size=len(times), max_size=len(times)))
    return times, is_arrival


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arrivals_and_events())
def test_merged_calendar_matches_all_heap_calendar(case):
    times, is_arrival = case
    arrivals = [t for t, a in zip(times, is_arrival) if a]
    scheduled = [t for t, a in zip(times, is_arrival) if not a]
    merged = EventCalendar(arrivals, [("arrival", t) for t in arrivals])
    heap = EventCalendar()
    for t in arrivals:
        heap.schedule(t, ARRIVAL, ("arrival", t))
    for t in reversed(scheduled):
        merged.schedule(t, SERVICE_COMPLETE, ("service", t))
        heap.schedule(t, SERVICE_COMPLETE, ("service", t))
    got = [merged.pop() for _ in range(len(times))]
    want = [heap.pop() for _ in range(len(times))]
    assert [(t, kind, payload) for t, _, kind, payload in got] == [
        (t, kind, payload) for t, _, kind, payload in want
    ]
    assert [t for t, *_ in got] == times
    for cal in (merged, heap):
        with pytest.raises(IndexError):
            cal.pop()


def test_replication_spec_validates_warmup():
    spec = ReplicationSpec()
    assert spec.horizon == 365 * 1440.0
    assert spec.warmup == 48 * 60.0
    with pytest.raises(ValueError):
        ReplicationSpec(horizon=100.0, warmup=100.0)
    with pytest.raises(ValueError):
        ReplicationSpec(horizon=100.0, warmup=200.0)


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
