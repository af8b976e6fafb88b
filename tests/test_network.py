"""Diversion-policy and transfer-matrix tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ednetsim.network import (
    RED,
    YELLOW,
    PolicySpec,
    decide_routing,
    nearest_order,
    slot_of,
    validate_transfer_matrix,
)


def test_slot_of():
    assert slot_of(0.0) == 0
    assert slot_of(479.9) == 0
    assert slot_of(480.0) == 1
    assert slot_of(1439.9) == 2
    assert slot_of(1440.0) == 0
    assert slot_of(2000.0) == 1


def test_transfer_matrix_validation():
    validate_transfer_matrix([[0.0, 5.0], [7.0, 0.0]])
    with pytest.raises(ValueError):
        validate_transfer_matrix([[0.0, 5.0]])
    with pytest.raises(ValueError):
        validate_transfer_matrix([[0.0, 5.0], [7.0, 3.0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        validate_transfer_matrix([[0.0, 0.0], [7.0, 0.0]])  # zero off-diagonal


@pytest.mark.parametrize("minutes", [math.nan, math.inf])
def test_transfer_matrix_rejects_non_finite_times(minutes):
    with pytest.raises(ValueError, match=r"tau\[1\]\[0\]=(nan|inf) must be finite"):
        validate_transfer_matrix([[0.0, 5.0], [minutes, 0.0]])


def test_nearest_order():
    tau = [[0.0, 30.0, 10.0], [30.0, 0.0, 20.0], [10.0, 20.0, 0.0]]
    assert nearest_order(tau) == [[2, 1], [2, 0], [0, 1]]
    # ties broken by smaller index
    tau_tied = [[0.0, 15.0, 15.0], [15.0, 0.0, 15.0], [15.0, 15.0, 0.0]]
    assert nearest_order(tau_tied)[0] == [1, 2]


def _network(busy, capacity=2, thresholds=None):
    """decide_routing's (busy, capacity, thresholds) for EDs of one capacity."""
    n = len(busy)
    return list(busy), [capacity] * n, [math.inf] * n if thresholds is None else list(thresholds)


TAU = [[0.0, 10.0, 20.0], [10.0, 0.0, 15.0], [20.0, 15.0, 0.0]]
ORDER = nearest_order(TAU)


def test_p1_always_boards():
    eds = _network([2, 0, 0])
    assert decide_routing(PolicySpec("P1"), *eds, ORDER, YELLOW, 0) is None


def test_p2_redirects_to_nearest_when_full():
    eds = _network([2, 0, 0])
    assert decide_routing(PolicySpec("P2"), *eds, ORDER, YELLOW, 0) == 1
    assert decide_routing(PolicySpec("P2"), *eds, ORDER, RED, 0) == 1


def test_p2_boards_when_not_full_or_nearest_full():
    eds = _network([1, 0, 0])
    assert decide_routing(PolicySpec("P2"), *eds, ORDER, YELLOW, 0) is None
    eds = _network([2, 2, 0])  # nearest full, no cascade: board
    assert decide_routing(PolicySpec("P2"), *eds, ORDER, YELLOW, 0) is None


def test_p2_cascade_tries_next_nearest():
    eds = _network([2, 2, 0])
    policy = PolicySpec("P2", cascade=True)
    assert decide_routing(policy, *eds, ORDER, YELLOW, 0) == 2


def test_p3_never_redirects_red():
    eds = _network([2, 0, 0])
    assert decide_routing(PolicySpec("P3"), *eds, ORDER, RED, 0) is None
    assert decide_routing(PolicySpec("P3"), *eds, ORDER, YELLOW, 0) == 1


def test_p3_partial_threshold():
    # origin at busy=1 with threshold 1 is already on diversion
    eds = _network([1, 0, 0], thresholds=[1, 2, 2])
    assert decide_routing(PolicySpec("P3"), *eds, ORDER, YELLOW, 0) == 1
    # destination on its own diversion threshold refuses the transfer
    eds = _network([2, 1, 0], thresholds=[2, 1, 2])
    assert decide_routing(PolicySpec("P3"), *eds, ORDER, YELLOW, 0) is None


def test_p3_threshold_clipped_to_capacity():
    # a threshold above capacity behaves like full occupancy, at the origin
    # and at the nearest ED
    eds = _network([2, 0, 0], thresholds=[5, 5, 5])
    assert decide_routing(PolicySpec("P3"), *eds, ORDER, YELLOW, 0) == 1
    eds = _network([2, 2, 0], thresholds=[5, 5, 5])
    assert decide_routing(PolicySpec("P3"), *eds, ORDER, YELLOW, 0) is None


def test_p4_picks_least_busy_network_wide():
    eds = _network([2, 1, 0])
    assert decide_routing(PolicySpec("P4"), *eds, ORDER, YELLOW, 0) == 2


def test_p4_boards_when_origin_not_full_or_origin_least_busy():
    eds = _network([1, 2, 2])
    assert decide_routing(PolicySpec("P4"), *eds, ORDER, YELLOW, 0) is None
    eds = _network([2, 2, 2])  # origin ties for least busy: board
    assert decide_routing(PolicySpec("P4"), *eds, ORDER, YELLOW, 0) is None


def test_p4_tie_breaks_by_transfer_time_then_index():
    eds = _network([2, 1, 1])
    # both candidates at busy=1; ED1 is 10 min away, ED2 is 20
    assert decide_routing(PolicySpec("P4"), *eds, ORDER, YELLOW, 0) == 1
    tau_tied = [[0.0, 15.0, 15.0], [15.0, 0.0, 15.0], [15.0, 15.0, 0.0]]
    assert decide_routing(PolicySpec("P4"), *eds, nearest_order(tau_tied), YELLOW, 0) == 1


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
    got = decide_routing(PolicySpec("P4"), *eds, nearest_order(tau), tag, origin)
    # reference: a full origin redirects when another ED is strictly less
    # busy, to the least busy one, then the nearest, then the lowest index
    want = None
    if busy[origin] >= capacity and min(busy) < busy[origin]:
        others = [j for j in range(len(busy)) if j != origin]
        want = min(others, key=lambda j: (busy[j], tau[origin][j], j))
    assert got == want


@st.composite
def routing_cases(draw):
    """A diverting policy, cascade on or off, and random per-ED vectors.

    Capacities, thresholds (some infinite: full occupancy) and busy servers
    vary per ED; busy may exceed capacity after a shift boundary lowers it.
    """
    n = draw(st.integers(2, 6))

    def vector(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    policy = PolicySpec(draw(st.sampled_from(("P2", "P3", "P4"))), cascade=draw(st.booleans()))
    capacity = vector(st.integers(1, 4))
    thresholds = vector(st.sampled_from((1, 2, 3, 4, math.inf)))
    busy = vector(st.integers(0, 5))
    tau = [[0.0 if i == j else draw(st.sampled_from((5.0, 10.0, 15.0))) for j in range(n)]
           for i in range(n)]
    origin, tag = draw(st.integers(0, n - 1)), draw(st.sampled_from((YELLOW, RED)))
    return policy, busy, capacity, thresholds, nearest_order(tau), tag, origin


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(routing_cases())
def test_routing_never_returns_the_origin(case):
    # the network loop schedules a transfer to whatever ED this returns, and
    # does not check it: a redirect is always to another ED of the network
    target = decide_routing(*case)
    assert target is None or target in range(len(case[1])) and target != case[-1]


def test_policy_spec_validation():
    with pytest.raises(ValueError):
        PolicySpec("P9")
    assert PolicySpec.coerce("P2").id == "P2"
    spec = PolicySpec("P3", p3_thresholds=[1, 2, 3])
    assert PolicySpec.coerce(spec) is spec
