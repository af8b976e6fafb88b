"""Event calendar, replication spec, and random-stream tests.

The calendar holds scheduled events only; run_replication merges the
arrival timeline into it, so the merge is tested through the loop on
planted timelines, here and in test_simulate.py.
"""

import math

import numpy as np
import pytest

from ednetsim.engine import (
    SERVICE_COMPLETE,
    EventCalendar,
    RandomStreams,
    ReplicationSpec,
    SimulationLogicError,
)
from ednetsim.network import RED, YELLOW

from util import one_ed_run, starts


def test_calendar_orders_by_time():
    cal = EventCalendar()
    cal.schedule(5.0, SERVICE_COMPLETE, "a")
    cal.schedule(3.0, SERVICE_COMPLETE, "b")
    cal.schedule(4.0, SERVICE_COMPLETE, "c")
    popped = [cal.pop()[3] for _ in range(3)]
    assert popped == ["b", "c", "a"]


def test_calendar_breaks_ties_by_insertion_order():
    cal = EventCalendar()
    for name in ("first", "second", "third"):
        cal.schedule(7.0, SERVICE_COMPLETE, name)
    assert [cal.pop()[3] for _ in range(3)] == ["first", "second", "third"]


def test_calendar_tie_break_ignores_payload():
    # payloads may be unorderable objects; ties must not compare them
    cal = EventCalendar()
    cal.schedule(1.0, SERVICE_COMPLETE, object())
    cal.schedule(1.0, SERVICE_COMPLETE, object())
    cal.pop()
    cal.pop()


def test_clock_advances_and_rejects_past_events():
    cal = EventCalendar()
    cal.schedule(10.0, SERVICE_COMPLETE)
    assert cal.clock == 0.0
    cal.pop()
    assert cal.clock == 10.0
    with pytest.raises(SimulationLogicError):
        cal.schedule(9.0, SERVICE_COMPLETE)
    cal.schedule(10.0, SERVICE_COMPLETE)  # same-time scheduling stays legal


def test_calendar_empties_after_every_event():
    cal = EventCalendar()
    with pytest.raises(IndexError):
        cal.pop()
    cal.schedule(1.0, SERVICE_COMPLETE, "x")
    cal.schedule(2.0, SERVICE_COMPLETE, "y")
    assert [cal.pop()[3] for _ in range(2)] == ["x", "y"]
    with pytest.raises(IndexError):
        cal.pop()


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
