"""ED state machine and diversion-policy tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ednetsim.network import (
    RED,
    YELLOW,
    EDState,
    Patient,
    PolicySpec,
    decide_routing,
    nearest_order,
    slot_of,
    start_transfer,
    validate_transfer_matrix,
)


def mk(tag=YELLOW, origin=0, t=0.0):
    return Patient(tag, origin, t)


def test_slot_of():
    assert slot_of(0.0) == 0
    assert slot_of(479.9) == 0
    assert slot_of(480.0) == 1
    assert slot_of(1439.9) == 2
    assert slot_of(1440.0) == 0
    assert slot_of(2000.0) == 1


def test_admit_starts_service_when_free():
    ed = EDState(capacity=2)
    p = mk()
    assert ed.admit(p, 5.0) is True
    assert p.t_service_start == 5.0
    assert ed.busy == 1 and ed.queue_length() == 0


def test_admit_queues_when_full():
    ed = EDState(capacity=1)
    ed.admit(mk(), 0.0)
    p = mk(t=1.0)
    assert ed.admit(p, 1.0) is False
    assert p.t_service_start is None
    assert ed.busy == 1 and ed.queue_length() == 1


def test_release_is_fifo_within_tag():
    ed = EDState(capacity=1)
    ed.admit(mk(), 0.0)
    first, second = mk(t=1.0), mk(t=2.0)
    ed.admit(first, 1.0)
    ed.admit(second, 2.0)
    nxt = ed.release(10.0)
    assert nxt is first and nxt.t_service_start == 10.0
    assert ed.release(20.0) is second


def test_red_has_priority_over_earlier_yellow():
    ed = EDState(capacity=1)
    ed.admit(mk(), 0.0)
    yellow = mk(YELLOW, t=1.0)
    red = mk(RED, t=2.0)
    ed.admit(yellow, 1.0)
    ed.admit(red, 2.0)
    assert ed.release(5.0) is red
    assert ed.release(6.0) is yellow


def test_release_with_empty_queue_frees_resource():
    ed = EDState(capacity=2)
    ed.admit(mk(), 0.0)
    assert ed.release(3.0) is None
    assert ed.busy == 0


def test_capacity_drop_is_nonpreemptive():
    ed = EDState(capacity=3)
    for _ in range(3):
        ed.admit(mk(), 0.0)
    assert ed.set_capacity(1, 480.0) == []
    assert ed.busy == 3  # overloaded until services finish
    ed.admit(mk(t=481.0), 481.0)
    assert ed.queue_length() == 1
    # releases drain the excess before anyone new starts
    assert ed.release(500.0) is None
    assert ed.release(510.0) is None
    assert ed.busy == 1
    started = ed.release(520.0)
    assert started is not None and ed.busy == 1


def test_capacity_raise_starts_queued_red_first():
    ed = EDState(capacity=1)
    ed.admit(mk(), 0.0)
    y1, r1, y2 = mk(YELLOW, t=1.0), mk(RED, t=2.0), mk(YELLOW, t=3.0)
    for p in (y1, r1, y2):
        ed.admit(p, p.t_triage)
    started = ed.set_capacity(3, 480.0)
    assert started == [r1, y1]
    assert all(p.t_service_start == 480.0 for p in started)
    assert ed.busy == 3 and ed.queue_length() == 1


def test_transfer_matrix_validation():
    validate_transfer_matrix([[0.0, 5.0], [7.0, 0.0]])
    with pytest.raises(ValueError):
        validate_transfer_matrix([[0.0, 5.0]])
    with pytest.raises(ValueError):
        validate_transfer_matrix([[0.0, 5.0], [7.0, 3.0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        validate_transfer_matrix([[0.0, 0.0], [7.0, 0.0]])  # zero off-diagonal


def test_nearest_order():
    tau = [[0.0, 30.0, 10.0], [30.0, 0.0, 20.0], [10.0, 20.0, 0.0]]
    assert nearest_order(tau) == [[2, 1], [2, 0], [0, 1]]
    # ties broken by smaller index
    tau_tied = [[0.0, 15.0, 15.0], [15.0, 0.0, 15.0], [15.0, 15.0, 0.0]]
    assert nearest_order(tau_tied)[0] == [1, 2]


def _network(busy, capacity=2, thresholds=None):
    eds = []
    for i, b in enumerate(busy):
        ed = EDState(capacity, None if thresholds is None else thresholds[i])
        ed.busy = b
        eds.append(ed)
    return eds


TAU = [[0.0, 10.0, 20.0], [10.0, 0.0, 15.0], [20.0, 15.0, 0.0]]
ORDER = nearest_order(TAU)


def test_p1_always_boards():
    eds = _network([2, 0, 0])
    assert decide_routing(PolicySpec("P1"), eds, ORDER, YELLOW, 0) is None


def test_p2_redirects_to_nearest_when_full():
    eds = _network([2, 0, 0])
    assert decide_routing(PolicySpec("P2"), eds, ORDER, YELLOW, 0) == 1
    assert decide_routing(PolicySpec("P2"), eds, ORDER, RED, 0) == 1


def test_p2_boards_when_not_full_or_nearest_full():
    eds = _network([1, 0, 0])
    assert decide_routing(PolicySpec("P2"), eds, ORDER, YELLOW, 0) is None
    eds = _network([2, 2, 0])  # nearest full, no cascade: board
    assert decide_routing(PolicySpec("P2"), eds, ORDER, YELLOW, 0) is None


def test_p2_cascade_tries_next_nearest():
    eds = _network([2, 2, 0])
    policy = PolicySpec("P2", cascade=True)
    assert decide_routing(policy, eds, ORDER, YELLOW, 0) == 2


def test_p3_never_redirects_red():
    eds = _network([2, 0, 0])
    assert decide_routing(PolicySpec("P3"), eds, ORDER, RED, 0) is None
    assert decide_routing(PolicySpec("P3"), eds, ORDER, YELLOW, 0) == 1


def test_p3_partial_threshold():
    # origin at busy=1 with threshold 1 is already on diversion
    eds = _network([1, 0, 0], thresholds=[1, 2, 2])
    assert decide_routing(PolicySpec("P3"), eds, ORDER, YELLOW, 0) == 1
    # destination on its own diversion threshold refuses the transfer
    eds = _network([2, 1, 0], thresholds=[2, 1, 2])
    assert decide_routing(PolicySpec("P3"), eds, ORDER, YELLOW, 0) is None


def test_p3_threshold_clipped_to_capacity():
    # threshold above capacity behaves like full occupancy
    ed = EDState(capacity=2, p3_threshold=5)
    assert ed.diversion_threshold() == 2


def test_p4_picks_least_busy_network_wide():
    eds = _network([2, 1, 0])
    assert decide_routing(PolicySpec("P4"), eds, ORDER, YELLOW, 0) == 2


def test_p4_boards_when_origin_not_full_or_origin_least_busy():
    eds = _network([1, 2, 2])
    assert decide_routing(PolicySpec("P4"), eds, ORDER, YELLOW, 0) is None
    eds = _network([2, 2, 2])  # origin ties for least busy: board
    assert decide_routing(PolicySpec("P4"), eds, ORDER, YELLOW, 0) is None


def test_p4_tie_breaks_by_transfer_time_then_index():
    eds = _network([2, 1, 1])
    # both candidates at busy=1; ED1 is 10 min away, ED2 is 20
    assert decide_routing(PolicySpec("P4"), eds, ORDER, YELLOW, 0) == 1
    tau_tied = [[0.0, 15.0, 15.0], [15.0, 0.0, 15.0], [15.0, 15.0, 0.0]]
    assert decide_routing(PolicySpec("P4"), eds, nearest_order(tau_tied), YELLOW, 0) == 1


@st.composite
def p4_networks(draw):
    """2-6 EDs whose transfer times take three values, so distances often tie."""
    n = draw(st.integers(2, 6))
    tau = [
        [0.0 if i == j else draw(st.sampled_from((5.0, 10.0, 15.0))) for j in range(n)]
        for i in range(n)
    ]
    capacity = draw(st.integers(1, 3))
    # busy may exceed capacity after a shift boundary lowers it
    busy = draw(st.lists(st.integers(0, capacity + 1), min_size=n, max_size=n))
    return tau, capacity, busy, draw(st.integers(0, n - 1)), draw(st.sampled_from((YELLOW, RED)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p4_networks())
def test_p4_matches_reference_rule(case):
    tau, capacity, busy, origin, tag = case
    eds = _network(busy, capacity)
    got = decide_routing(PolicySpec("P4"), eds, nearest_order(tau), tag, origin)
    # reference: a full origin redirects when another ED is strictly less
    # busy, to the least busy one, then the nearest, then the lowest index
    want = None
    if busy[origin] >= capacity and min(busy) < busy[origin]:
        others = [j for j in range(len(busy)) if j != origin]
        want = min(others, key=lambda j: (busy[j], tau[origin][j], j))
    assert got == want


def test_start_transfer_bookkeeping():
    p = mk(origin=0)
    minutes = start_transfer(p, 0, 1, TAU)
    assert minutes == 10.0
    assert p.transfer_minutes == 10.0
    assert p.redirects == 1
    assert p.serving == 1
    with pytest.raises(ValueError):
        start_transfer(p, 2, 2, TAU)


def test_policy_spec_validation():
    with pytest.raises(ValueError):
        PolicySpec("P9")
    assert PolicySpec.coerce("P2").id == "P2"
    spec = PolicySpec("P3", p3_thresholds=[1, 2, 3])
    assert PolicySpec.coerce(spec) is spec
