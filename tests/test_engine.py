"""Event calendar, replication spec, and random-stream tests."""

import numpy as np
import pytest

from ednetsim.engine import (
    ARRIVAL,
    SERVICE_COMPLETE,
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


def test_calendar_len():
    cal = EventCalendar()
    assert len(cal) == 0
    cal.schedule(1.0, ARRIVAL)
    cal.schedule(2.0, ARRIVAL)
    assert len(cal) == 2
    cal.pop()
    assert len(cal) == 1


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
