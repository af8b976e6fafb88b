"""Replication-driver tests: conservation, warm-up, determinism, policies."""

import argparse
import contextlib
import hashlib
import math
import re
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ednetsim import (
    RandomStreams,
    ReplicationSpec,
    parse_scenario,
    run_replication,
    saa_evaluate,
    scenario_from_dict,
)
from ednetsim import simulate
from ednetsim.calibrate import simulated_waits
from ednetsim.cli import _with_flags
from ednetsim.distributions import SLOT_MINUTES, ArrivalProcess, LosDistribution
from ednetsim.engine import (
    END_OF_HORIZON,
    SERVICE_COMPLETE,
    TRANSFER_COMPLETE,
    EventCalendar,
    SimulationLogicError,
)
from ednetsim.network import RED, YELLOW, PolicySpec, decide_routing

from util import (
    asymmetric_pair_scenario,
    exp_los,
    network_scenario,
    one_ed_run,
    plan_for,
    planted_ed,
    planted_network,
    single_ed_scenario,
    starts,
    with_replication,
)


LAZIO = Path(__file__).resolve().parent.parent / "scenarios" / "lazio_synthetic.yaml"


def short_spec(seed=1, days=20, warmup=480.0):
    return ReplicationSpec(horizon=days * 1440.0, warmup=warmup, seed=seed)


def test_patient_conservation():
    sc = network_scenario(n=3, policy="P2")
    out = run_replication(sc, plan_for(sc, 3), sc.policy, short_spec())
    assert out.created == out.discharged + out.in_system
    assert out.created > 0


def test_rerun_is_identical():
    sc = network_scenario(n=2, policy="P4")
    a = run_replication(sc, plan_for(sc, 2), "P4", short_spec(seed=9))
    b = run_replication(sc, plan_for(sc, 2), "P4", short_spec(seed=9))
    assert a.nva == b.nva
    assert a.redirects_out == b.redirects_out
    assert a.created == b.created


def test_different_seeds_differ():
    sc = single_ed_scenario()
    a = run_replication(sc, plan_for(sc, 2), "P1", short_spec(seed=1))
    b = run_replication(sc, plan_for(sc, 2), "P1", short_spec(seed=2))
    assert a.nva != b.nva


def test_warmup_excludes_early_patients():
    sc = single_ed_scenario(rates_yellow=(0.05, 0.05, 0.05))
    spec = ReplicationSpec(horizon=10 * 1440.0, warmup=1440.0, seed=3)
    out = run_replication(sc, plan_for(sc, 4), "P1", spec, record_patients=True)
    assert all(p.t_triage >= spec.warmup for p in out.patients)
    # a run with no warm-up sees strictly more recorded visits
    out_all = run_replication(
        sc, plan_for(sc, 4), "P1", ReplicationSpec(10 * 1440.0, 0.0, 3)
    )
    n_recorded = sum(len(v) for tag in out.nva[0] for v in tag)
    n_all = sum(len(v) for tag in out_all.nva[0] for v in tag)
    assert n_all > n_recorded


def test_nva_equals_wait_plus_transfer():
    # overloaded ED0 next to a mostly idle ED1: P2 diverts a steady stream
    sc = asymmetric_pair_scenario()
    plan = np.array([[1, 1, 1], [4, 4, 4]])
    out = run_replication(sc, plan, "P2", short_spec(seed=5), record_patients=True)
    redirected = [p for p in out.patients if p.redirects > 0]
    assert redirected, "expected at least one diverted patient under load"
    for p in out.patients:
        assert p.t_service_start - p.t_triage >= p.transfer_minutes - 1e-9
        assert p.redirects <= 1
        if p.redirects:
            assert p.serving != p.origin


def _three_ed_dict(active=None):
    """3-ED P1 scenario; EDs outside `active` get zero arrival rates."""
    eds = []
    for j in range(3):
        on = active is None or j in active
        eds.append(
            {
                "name": f"ED{j + 1}",
                "arrivals": {
                    "yellow": {"rates": [0.08, 0.08, 0.08] if on else [0.0, 0.0, 0.0]},
                    "red": {"rates": [0.01, 0.01, 0.01] if on else [0.0, 0.0, 0.0]},
                },
                "los": {
                    "yellow": {"family": "exponential", "mean": 60.0},
                    "red": {"family": "exponential", "mean": 60.0},
                },
            }
        )
    return {
        "eds": eds,
        "transfer_minutes": [[0, 10, 15], [10, 0, 10], [15, 10, 0]],
        "policy": "P1",
        "plan_bounds": [1, 20],
    }


def test_p1_matches_single_ed_runs():
    # with diversion off, each ED's statistics equal its run alone;
    # random streams are keyed by ED index, so zeroing the others changes nothing
    from ednetsim import scenario_from_dict

    plan = np.full((3, 3), 2, dtype=int)
    whole = run_replication(scenario_from_dict(_three_ed_dict()), plan, "P1", short_spec(seed=21))
    for i in range(3):
        solo_sc = scenario_from_dict(_three_ed_dict(active={i}))
        solo = run_replication(solo_sc, plan, "P1", short_spec(seed=21))
        assert solo.nva[i] == whole.nva[i]


def test_capacity_slots_change_behavior():
    # the middle slot is undersized against a burst; its backlog drains
    # through the evening and the night shift starts from an empty room
    sc = single_ed_scenario(rates_yellow=(0.02, 0.2, 0.02), los_mean=30.0)
    plan = np.array([[4, 2, 4]])
    out = run_replication(sc, plan, "P1", short_spec(seed=2, days=30))
    waits = out.slot_tag_waits(0)[:, YELLOW]
    assert waits[1] > 10 * waits[0]
    assert waits[1] > waits[2] > waits[0]


def test_plan_validation():
    sc = single_ed_scenario(plan_bounds=(2, 10))
    with pytest.raises(ValueError):
        run_replication(sc, np.array([[2, 2]]), "P1", short_spec())
    with pytest.raises(ValueError):
        run_replication(sc, np.array([[1, 2, 2]]), "P1", short_spec())
    with pytest.raises(ValueError):
        run_replication(sc, np.array([[2, 2, 11]]), "P1", short_spec())
    with pytest.raises(ValueError):
        run_replication(sc, np.array([[2.5, 2.0, 2.0]]), "P1", short_spec())
    with pytest.raises(ValueError):
        saa_evaluate(with_replication(sc, short_spec()), [[2.5, 2, 2]], "P1", replications=1)
    # out-of-range floats are reported as given, never cast to int first
    for entry, shown in ((math.inf, "inf"), (1e30, "1e+30")):
        with pytest.raises(ValueError, match=re.escape(f"[2, 10], got range [2.0, {shown}]")):
            run_replication(sc, np.array([[entry, 2, 2]]), "P1", short_spec())


def test_replication_k_runs_on_seed_base_plus_k_plus_one():
    # pins the seed layout that saa_evaluate and simulated_waits share;
    # a change of layout must change this test on purpose
    sc = single_ed_scenario(rates_yellow=(0.08, 0.08, 0.08), rates_red=(0.02, 0.02, 0.02))
    plan = np.array([[2, 3, 2]])
    seeded = with_replication(sc, short_spec(seed=40, days=5))
    direct = [run_replication(sc, plan, "P1", short_spec(seed=41 + k, days=5)) for k in range(2)]
    summary = saa_evaluate(seeded, plan, "P1", replications=2)
    for k, out in enumerate(direct):
        assert summary.rep_means[k, 0, YELLOW] == out.mean_nva(0, YELLOW)
        assert summary.rep_means[k, 0, RED] == out.mean_nva(0, RED)
    waits = simulated_waits(seeded, (2, 3, 2), 2, 0)
    expected = (direct[0].slot_tag_waits(0) + direct[1].slot_tag_waits(0)) / 2
    assert np.array_equal(waits, expected)


def test_p3_thresholds_length_checked():
    sc = network_scenario(n=2, policy={"id": "P3", "p3_thresholds": [1, 1]})
    run_replication(sc, plan_for(sc, 2), sc.policy, short_spec(days=2))
    from ednetsim.network import PolicySpec

    bad = PolicySpec("P3", p3_thresholds=[1, 1, 1])
    with pytest.raises(ValueError):
        run_replication(sc, plan_for(sc, 2), bad, short_spec(days=2))


@st.composite
def nearest_ed_cases(draw):
    """A random 2-4 ED network under P2 or P3 (random thresholds, cascade or not)."""
    n = draw(st.integers(2, 4))
    rates = st.lists(st.floats(0.0, 0.15), min_size=3, max_size=3)
    los_mean = st.floats(10.0, 120.0)
    eds = [
        {
            "name": f"ED{i + 1}",
            "arrivals": {"yellow": {"rates": draw(rates)}, "red": {"rates": draw(rates)}},
            "los": {"yellow": exp_los(draw(los_mean)), "red": exp_los(draw(los_mean))},
        }
        for i in range(n)
    ]
    minutes = st.floats(1.0, 60.0)
    transfer = [[0.0 if i == j else draw(minutes) for j in range(n)] for i in range(n)]
    sc = scenario_from_dict({"eds": eds, "transfer_minutes": transfer, "plan_bounds": [1, 4]})
    policy_id = draw(st.sampled_from(["P2", "P3"]))
    thresholds = None
    if policy_id == "P3":
        thresholds = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    policy = PolicySpec(policy_id, p3_thresholds=thresholds, cascade=draw(st.booleans()))
    plan = np.array([draw(st.lists(st.integers(1, 4), min_size=3, max_size=3)) for _ in range(n)])
    spec = short_spec(seed=draw(st.integers(0, 2**31)), days=draw(st.integers(2, 4)), warmup=0.0)
    return sc, policy, plan, spec


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(nearest_ed_cases())
def test_nearest_ed_policies_property(case):
    sc, policy, plan, spec = case
    out = run_replication(sc, plan, policy, spec, record_patients=True)
    assert out.created == out.discharged + out.in_system
    assert out.in_system >= 0
    for p in out.patients:
        assert p.redirects <= 1
        if p.redirects:
            assert policy.id == "P2" or p.tag == YELLOW
            assert p.serving != p.origin
            assert p.transfer_minutes == sc.transfer[p.origin][p.serving]
            # (t + tau) - t rounds
            assert p.t_service_start - p.t_triage >= p.transfer_minutes - 1e-9
        else:
            assert p.serving == p.origin and p.transfer_minutes == 0.0


def test_service_starts_are_stamped_by_the_loop():
    # every visit takes exactly 30 minutes, so a patient who waited starts
    # when another visit ends or when the shift boundary raises capacity
    fixed = {"family": "empirical", "values": [30.0]}
    sc = scenario_from_dict(
        {
            "eds": [
                {
                    "name": "A",
                    "arrivals": {"yellow": {"rates": [0.06, 0.02, 0.02]},
                                 "red": {"rates": [0.02, 0.01, 0.01]}},
                    "los": {"yellow": fixed, "red": fixed},
                }
            ],
            "plan_bounds": [1, 6],
        }
    )
    spec = short_spec(seed=3, days=5, warmup=0.0)
    out = run_replication(sc, np.array([[1, 3, 1]]), "P1", spec, record_patients=True)
    ends = {p.t_service_start + 30.0 for p in out.patients}
    raises = {480.0 + 1440.0 * d for d in range(5)}
    free = [p for p in out.patients if p.t_service_start == p.t_triage]
    waited = [p for p in out.patients if p.t_service_start != p.t_triage]
    assert free and waited
    for p in waited:
        assert p.t_service_start > p.t_triage
        assert p.t_service_start in ends or p.t_service_start in raises
    at_raise = [p.t_service_start for p in waited if p.t_service_start in raises]
    assert at_raise and all(at_raise.count(t) <= 2 for t in raises)


def test_admit_starts_service_when_free():
    out = one_ed_run([(10.0, YELLOW), (20.0, RED)], [2, 2, 2])
    assert starts(out) == [(YELLOW, 10.0, 10.0), (RED, 20.0, 20.0)]


def test_admit_queues_when_full():
    # the second patient boards until the first visit ends at 40
    out = one_ed_run([(10.0, YELLOW), (20.0, YELLOW)], [1, 1, 1])
    assert starts(out) == [(YELLOW, 10.0, 10.0), (YELLOW, 20.0, 40.0)]


def test_release_is_fifo_within_tag():
    out = one_ed_run([(10.0, YELLOW), (15.0, YELLOW), (20.0, YELLOW)], [1, 1, 1])
    assert starts(out) == [(YELLOW, 10.0, 10.0), (YELLOW, 15.0, 40.0), (YELLOW, 20.0, 70.0)]


def test_red_has_priority_over_earlier_yellow():
    out = one_ed_run([(10.0, YELLOW), (15.0, YELLOW), (20.0, RED)], [1, 1, 1])
    assert starts(out) == [(YELLOW, 10.0, 10.0), (RED, 20.0, 40.0), (YELLOW, 15.0, 70.0)]


def test_release_with_empty_queue_frees_resource():
    # the only server is free again once the first visit ends at 40
    out = one_ed_run([(10.0, YELLOW), (50.0, YELLOW), (60.0, RED)], [1, 1, 1])
    assert starts(out) == [(YELLOW, 10.0, 10.0), (YELLOW, 50.0, 50.0), (RED, 60.0, 80.0)]


def test_capacity_drop_is_nonpreemptive():
    # three visits run across the drop from 3 servers to 1 at minute 480;
    # the ED stays overloaded until they end, and the patient boarded at 475
    # starts only when busy falls to the new capacity, at the third release
    out = one_ed_run(
        [(460.0, YELLOW), (465.0, YELLOW), (470.0, YELLOW), (475.0, YELLOW), (485.0, YELLOW)],
        [3, 1, 1],
    )
    assert starts(out) == [
        (YELLOW, 460.0, 460.0),
        (YELLOW, 465.0, 465.0),
        (YELLOW, 470.0, 470.0),
        (YELLOW, 475.0, 500.0),
        (YELLOW, 485.0, 530.0),
    ]


def test_capacity_raise_starts_queued_red_first():
    # at 480 two more servers take the boarded red patient, then the first
    # yellow; the second yellow waits for the visit that ends at 490
    out = one_ed_run([(460.0, YELLOW), (465.0, YELLOW), (470.0, RED), (475.0, YELLOW)], [1, 3, 1])
    assert starts(out) == [
        (YELLOW, 460.0, 460.0),
        (RED, 470.0, 480.0),
        (YELLOW, 465.0, 480.0),
        (YELLOW, 475.0, 490.0),
    ]


@pytest.mark.parametrize("policy", ["P2", "P4"])
def test_capacity_raise_at_two_eds_starts_each_ed_red_first(policy):
    # the network loop: both EDs are full from 405, so nobody is redirected
    # and four patients board.  At 480 each ED gets two more servers: ED0's
    # red and yellow start, then ED1's, and the four visits end at 580 in
    # that order, after the first two at 500 and 505
    arrivals = [(400.0, 0, YELLOW), (405.0, 1, YELLOW), (410.0, 0, YELLOW),
                (415.0, 1, RED), (420.0, 0, RED), (425.0, 1, YELLOW)]
    sc, spec = planted_network(arrivals, n=2, visit=100.0)
    original, popped = EventCalendar.pop, []

    def pop(heap):
        entry = original(heap)
        popped.append(entry[0])
        return entry

    with mock.patch.object(EventCalendar, "pop", pop):
        out = run_replication(sc, np.array([[1, 3, 1]] * 2), policy, spec, record_patients=True)
    assert out.redirects_out == [0, 0]
    assert [(p.serving, p.tag, p.t_triage, p.t_service_start) for p in out.patients] == [
        (0, YELLOW, 400.0, 400.0),
        (1, YELLOW, 405.0, 405.0),
        (0, RED, 420.0, 480.0),
        (0, YELLOW, 410.0, 480.0),
        (1, RED, 415.0, 480.0),
        (1, YELLOW, 425.0, 480.0),
    ]
    assert popped == [500.0, 505.0, 580.0, 580.0, 580.0, 580.0, spec.horizon]


def test_arrival_at_a_slot_boundary_enters_the_new_slot():
    # the boundary at 480 goes before the arrival at the same minute, so the
    # patient enters slot 1 and takes one of its two servers at once
    out = one_ed_run([(470.0, YELLOW), (480.0, YELLOW)], [1, 2, 1])
    assert starts(out) == [(YELLOW, 470.0, 470.0), (YELLOW, 480.0, 480.0)]
    assert [p.entry_slot for p in out.patients] == [0, 1]


def test_completion_at_an_arrival_minute_serves_the_queue_first():
    # the visit that ends at 40 hands its server to the boarded yellow
    # patient before the red arrival at 40 boards; had the arrival gone
    # first, red priority would have given it the server
    out = one_ed_run([(10.0, YELLOW), (20.0, YELLOW), (40.0, RED)], [1, 1, 1])
    assert starts(out) == [(YELLOW, 10.0, 10.0), (YELLOW, 20.0, 40.0), (RED, 40.0, 70.0)]


def test_slot_boundary_goes_before_a_completion_at_its_minute():
    # the visit that starts at the boundary at 480 ends at the boundary at
    # 1440.  The boundary goes first and drops the ED to one server, so that
    # completion frees the excess server, and the patient boarded at 1434
    # waits for the visit that ends at 2392: their own visit outlasts the run
    arrivals = [(t, 0, YELLOW) for t in (470.0, 475.0, 1432.0, 1434.0)]
    sc, spec = planted_network(arrivals, visit=960.0, horizon=2 * 1440.0)
    out = run_replication(sc, np.array([[1, 2, 2]]), "P1", spec, record_patients=True)
    assert [(p.t_triage, p.t_service_start) for p in out.patients] == [
        (470.0, 470.0), (475.0, 480.0), (1432.0, 1432.0),
    ]
    assert (out.created, out.discharged) == (4, 3)


def test_each_loop_takes_every_slot_boundary_off_the_heap():
    # no slot boundary is scheduled: the network loop (P4) and the lone-ED
    # loop (one-ED P1) each change slot at every multiple of SLOT_MINUTES
    # before the horizon, in order, and the heap holds patients' events and
    # END_OF_HORIZON only
    days = 4
    runs = [
        (network_scenario(policy="P4"), np.array([[1, 2, 1], [2, 1, 2], [1, 1, 1]]), "P4", False),
        (single_ed_scenario(), np.array([[1, 3, 2]]), "P1", True),
    ]
    original, slot_of = EventCalendar.schedule, simulate.slot_of
    for sc, plan, policy, alone in runs:
        kinds, changes = [], []

        def schedule(heap, entry):
            kinds.append(entry[2])
            return original(heap, entry)

        def slot_change(t):
            changes.append(t)
            return slot_of(t)

        with (
            mock.patch.object(EventCalendar, "schedule", schedule),
            mock.patch.object(simulate, "slot_of", slot_change),
            mock.patch.object(simulate, "_run_alone", wraps=simulate._run_alone) as lone,
        ):
            run_replication(sc, plan, policy, short_spec(days=days))
        assert lone.called == alone
        assert changes == [k * SLOT_MINUTES for k in range(1, days * 3)]
        assert set(kinds) <= {SERVICE_COMPLETE, TRANSFER_COMPLETE, END_OF_HORIZON}
        assert kinds.count(END_OF_HORIZON) == 1 and kinds.count(SERVICE_COMPLETE) > days


def test_arrival_advances_the_calendar_clock():
    # every visit is scheduled 30 minutes after the clock: an arrival that
    # starts service at once (at 10 and 100) has moved the clock to its own
    # time, and the one at 15 starts when the first visit ends at 40
    seen = []
    original = EventCalendar.schedule

    def schedule(heap, entry):
        if entry[2] == SERVICE_COMPLETE:
            seen.append(entry[0])
        return original(heap, entry)

    with mock.patch.object(EventCalendar, "schedule", schedule):
        one_ed_run([(10.0, YELLOW), (15.0, RED), (100.0, YELLOW)], [1, 1, 1])
    assert seen == [10.0 + 30.0, 40.0 + 30.0, 100.0 + 30.0]


@pytest.mark.parametrize(
    "times",
    [[2.0, 1.0], [-1.0, 1.0], [1.0, math.inf], [math.nan, 1.0]],
    ids=["unsorted", "negative", "infinite", "nan"],
)
def test_run_replication_rejects_bad_timeline(times):
    sc, spec = planted_ed([(t, YELLOW) for t in times])
    with pytest.raises(SimulationLogicError, match="sorted"):
        run_replication(sc, np.array([[1, 1, 1]]), "P1", spec)


@st.composite
def planted_days(draw):
    """Arrivals on multiples of 10 minutes around both boundaries of the day.

    Visits take 30 minutes, so arrivals often tie with boundaries and with
    completions; at most 12 patients all finish before the horizon.
    """
    times = sorted(draw(st.lists(st.sampled_from(range(440, 1001, 10)), max_size=12)))
    tags = draw(st.lists(st.sampled_from([YELLOW, RED]), min_size=len(times), max_size=len(times)))
    capacities = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    return [(float(t), tag) for t, tag in zip(times, tags)], capacities


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(planted_days())
def test_planted_timelines_keep_the_event_order(case):
    # each patient enters the slot of their arrival minute, a boundary
    # included, and every wait ends at a completion or at a capacity raise
    arrivals, capacities = case
    out = one_ed_run(arrivals, capacities)
    completions = {p.t_service_start + 30.0 for p in out.patients}
    raises = {480.0 * s for s in (1, 2) if capacities[s] > capacities[s - 1]}
    assert sorted((p.t_triage, p.tag) for p in out.patients) == sorted(arrivals)
    for p in out.patients:
        assert p.entry_slot == int(p.t_triage // 480.0)
        assert p.t_service_start >= p.t_triage
        if p.t_service_start > p.t_triage:
            assert p.t_service_start in completions | raises


def run_both_loops(make, plan):
    """(P1, P2) outputs of one ED with arrivals, each on a fresh (scenario, spec) from make().

    P1 takes the lone-ED loop and P2 the network loop, which asks the policy
    at a full ED but never diverts from an ED with no neighbour.
    """
    outputs = []
    with mock.patch.object(simulate, "_run_alone", wraps=simulate._run_alone) as alone:
        for policy in ("P1", "P2"):
            sc, spec = make()
            outputs.append(run_replication(sc, plan, policy, spec, record_patients=True))
            assert alone.call_count == 1
    return outputs


LOS_FAMILIES = st.sampled_from([
    {"family": "exponential", "mean": 40.0},
    {"family": "lognormal", "mean": 45.0, "cv": 0.8},
    {"family": "weibull", "shape": 1.5, "scale": 50.0},
    {"family": "empirical", "values": [15.0, 40.0, 70.0]},
])


@st.composite
def lone_ed_cases(draw):
    """(scenario data, plan row, spec) of one ED over 2-5 days.

    The red slot rates may all be zero, the row may drop capacity at a
    boundary, and a tag's visit times may differ by slot.
    """
    rates = st.lists(st.sampled_from([0.0, 0.02, 0.06, 0.12]), min_size=3, max_size=3)
    los = st.one_of(LOS_FAMILIES, st.lists(LOS_FAMILIES, min_size=3, max_size=3))
    ed = {
        "name": "A",
        "arrivals": {"yellow": {"rates": draw(rates.filter(any))}, "red": {"rates": draw(rates)}},
        "los": {"yellow": draw(los), "red": draw(los)},
    }
    row = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))
    spec = ReplicationSpec(
        horizon=draw(st.integers(2, 5)) * 1440.0,
        warmup=draw(st.sampled_from([0.0, 480.0])),
        seed=draw(st.integers(0, 99)),
    )
    return {"eds": [ed], "plan_bounds": [1, 4]}, row, spec


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lone_ed_cases())
def test_lone_ed_loop_matches_the_network_loop(case):
    data, row, spec = case
    alone, network = run_both_loops(lambda: (scenario_from_dict(data), spec), np.array([row]))
    assert alone == network


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(planted_days().filter(lambda case: case[0]))
def test_lone_ed_loop_keeps_the_network_loop_ties(case):
    arrivals, capacities = case
    alone, network = run_both_loops(lambda: planted_ed(arrivals), np.array([capacities]))
    assert alone == network


def routing_recorder():
    """(calls, a decide_routing that records each call in calls).

    A record is (busy, capacity, thresholds, tag, origin, target), the
    lists copied as the loop passed them.
    """
    calls = []

    def record(policy, busy, capacity, thresholds, order, tag, origin):
        target = decide_routing(policy, busy, capacity, thresholds, order, tag, origin)
        calls.append((list(busy), list(capacity), list(thresholds), tag, origin, target))
        return target

    return calls, record


@pytest.mark.parametrize(
    "policy", [PolicySpec("P2"), PolicySpec("P3", p3_thresholds=[1, 2, 1]), PolicySpec("P4")],
    ids=["P2", "P3", "P4"],
)
def test_routing_is_asked_only_at_an_origin_at_its_threshold(policy):
    # ED A is flooded, B is busy and C mostly idle; every P3 threshold is
    # below its ED's capacity
    arrivals = sorted(
        [(5.0 * k, 0, (YELLOW, YELLOW, RED)[k % 3]) for k in range(31)]
        + [(3.0 + 10.0 * k, 1, YELLOW) for k in range(20)]
        + [(7.0 + 30.0 * k, 2, (RED, YELLOW)[k % 2]) for k in range(10)],
        key=lambda a: a[0],
    )
    plan = np.array([[2, 2, 2], [3, 3, 3], [2, 2, 2]])
    sc, spec = planted_network(arrivals, n=3)
    calls, record = routing_recorder()
    with mock.patch.object(simulate, "decide_routing", record):
        out = run_replication(sc, plan, policy, spec, record_patients=True)
    for busy, capacity, thresholds, _, origin, _ in calls:
        assert busy[origin] >= min(thresholds[origin], capacity[origin])
    assert 0 < len(calls) < len(arrivals)
    assert any(target is not None for *_, target in calls)
    bare = run_replication(sc, plan, policy, spec, record_patients=True)
    assert out.patients == bare.patients
    assert (out.nva, out.redirects_out) == (bare.nva, bare.redirects_out)


def test_p3_red_arrival_is_asked_only_at_an_origin_at_its_threshold():
    policy = PolicySpec("P3", p3_thresholds=[1, 1])
    plan = np.array([[2, 2, 2], [2, 2, 2]])
    sc, spec = planted_network([(10.0, 0, RED)], n=2)
    calls, record = routing_recorder()
    with mock.patch.object(simulate, "decide_routing", record):
        run_replication(sc, plan, policy, spec)
    assert calls == []
    # behind a yellow patient the origin is at its threshold (1 of 2 busy):
    # the red patient gets a call, which says board, and boards at once
    sc, spec = planted_network([(10.0, 0, YELLOW), (15.0, 0, RED)], n=2)
    with mock.patch.object(simulate, "decide_routing", record):
        out = run_replication(sc, plan, policy, spec, record_patients=True)
    assert [(tag, origin, target) for *_, tag, origin, target in calls] == [(RED, 0, None)]
    assert starts(out) == [(YELLOW, 10.0, 10.0), (RED, 15.0, 15.0)]


def test_redirect_counts_only_under_diverting_policies():
    sc = asymmetric_pair_scenario()
    plan = np.array([[1, 1, 1], [4, 4, 4]])
    p1 = run_replication(sc, plan, "P1", short_spec(seed=4))
    assert sum(p1.redirects_out) == 0
    p2 = run_replication(sc, plan, "P2", short_spec(seed=4))
    assert p2.redirects_out[0] > 0


def test_zero_rate_scenario_is_empty():
    sc = single_ed_scenario(rates_yellow=(0.0, 0.0, 0.0))
    out = run_replication(sc, plan_for(sc, 2), "P1", short_spec(days=2))
    assert out.created == 0
    assert out.mean_nva(0, YELLOW) == 0.0
    assert out.mean_nva(0, RED) == 0.0


def test_entry_slot_attribution():
    # all arrivals in slot 0; their NVA lands in slot 0 of the serving ED
    sc = single_ed_scenario(rates_yellow=(0.1, 0.0, 0.0))
    out = run_replication(sc, plan_for(sc, 3), "P1", short_spec(seed=6, days=10))
    assert sum(len(v) for v in out.nva[0][YELLOW]) > 0
    assert len(out.nva[0][YELLOW][1]) == 0
    assert len(out.nva[0][YELLOW][2]) == 0


# sha256 of saa_evaluate's (rep_means, redirects) under P2 and P3; any change
# to either policy's routing moves them.
PINNED_P2_P3 = {
    "P2 thresholds": "41968f01fc7d4ca9c4fe9abd54edb434c4f38599ca8b18946374f85c92241db7",
    "P2 cascade": "5cdb74fb3800e0de3f79d4fc9639051c0733935f899efb18c0d880efd1801e33",
    "P3": "d032688fd9c86ef26bae62a988722c88d40cf3e1c5470b24b2dcb71dbac41a93",
    "P3 cascade": "16b339bda7c2c7f69c0093c17a77e0fd402cd469e58c5ab419e6d01bf5197ddc",
}


def _digest(summary):
    return hashlib.sha256(summary.rep_means.tobytes() + summary.redirects.tobytes()).hexdigest()


def test_p2_p3_outputs_pinned():
    cases = {
        "P2 thresholds": {"id": "P2", "p3_thresholds": [2, 3, 2]},
        "P2 cascade": {"id": "P2", "cascade": True},
        "P3": {"id": "P3", "p3_thresholds": [2, 3, 2]},
        "P3 cascade": {"id": "P3", "p3_thresholds": [2, 3, 2], "cascade": True},
    }
    plan = np.array([[3, 4, 3], [4, 4, 5], [3, 3, 4]])
    base = ReplicationSpec(horizon=10 * 1440.0, warmup=480.0, seed=31)
    got = {}
    for name, policy in cases.items():
        sc = network_scenario(n=3, rates_yellow=(0.05, 0.07, 0.04), policy=policy)
        s = saa_evaluate(with_replication(sc, base), plan, sc.policy, replications=3)
        assert s.redirects.sum() > 0
        got[name] = _digest(s)
    # P2 ignores p3_thresholds: same outputs as without them
    sc = network_scenario(n=3, rates_yellow=(0.05, 0.07, 0.04), policy="P2")
    plain = saa_evaluate(with_replication(sc, base), plan, "P2", replications=3)
    assert _digest(plain) == got["P2 thresholds"]
    assert got == PINNED_P2_P3


# sha256 of saa_evaluate's (rep_means, redirects) for the six-ED network on
# its starting plan (10 days, R=2); any change to the event order of the
# coupled loop moves them.
PINNED_LAZIO = {
    "P1": "156e11ea82bd467164050f326ac272541ae8126848d7a9e4c1d0fb26e388c1cd",
    "P2": "9c118bcaead4038ed14879d0423d3c7d587c59c0aa424e445046d7f553ca638e",
    "P3": "e642612867ab17674f955a34b2e3a968e5ab09d0e2a997061c67d4a87d449d4d",
    "P4": "52571b82a5a4dcef14426b22cba4245eb7d5393590ae775d920e8f50c9546b41",
}


def test_six_ed_outputs_pinned():
    sc = parse_scenario(LAZIO)
    sc = with_replication(sc, ReplicationSpec(horizon=10 * 1440.0, warmup=48 * 60.0, seed=7))
    got = {}
    for policy in PINNED_LAZIO:
        s = saa_evaluate(sc, sc.starting_plan, policy, replications=2)
        assert (s.redirects.sum() > 0) == (policy != "P1")
        got[policy] = _digest(s)
    assert got == PINNED_LAZIO


def _families_scenario(policy):
    """3-ED network whose visit times use every LOS family but exponential."""
    from ednetsim import scenario_from_dict

    def ed(name, rate, yellow, red):
        return {
            "name": name,
            "arrivals": {"yellow": {"rates": [rate] * 3}, "red": {"rates": [rate / 5] * 3}},
            "los": {"yellow": yellow, "red": red},
        }

    return scenario_from_dict(
        {
            "eds": [
                ed(
                    "gamma",
                    0.06,
                    {"family": "gamma", "mean": 55.0, "cv": 0.7},
                    {"family": "weibull", "shape": 1.5, "scale": 50.0},
                ),
                ed(
                    "per-slot",
                    0.05,
                    [
                        {"family": "gamma", "shape": 2.0, "scale": 25.0},
                        {"family": "empirical", "values": [20.0, 35.0, 60.0, 90.0]},
                        {"family": "weibull", "shape": 0.9, "scale": 45.0},
                    ],
                    {"family": "empirical", "values": [15.0, 40.0, 70.0]},
                ),
                ed(
                    "mixed",
                    0.07,
                    {"family": "weibull", "shape": 2.5, "scale": 60.0},
                    {"family": "gamma", "shape": 3.0, "scale": 12.0},
                ),
            ],
            "transfer_minutes": [[0, 12, 20], [12, 0, 15], [20, 15, 0]],
            "policy": policy,
            "plan_bounds": [1, 20],
            "replication": {"horizon_days": 10, "warmup_minutes": 480, "seed": 23},
        }
    )


# sha256 of saa_evaluate's (rep_means, redirects) on _families_scenario;
# any change to how gamma, weibull, empirical or per-slot visit times are
# drawn moves them.
PINNED_LOS_FAMILIES = {
    "P1": "34cad31f81b85cbcaadb12f4882c98d848fa04abdfd3946db4b7d7cb4ffdbf9b",
    "P4": "56ec419b2e5eacfea968782e64e3ee2d79b439bca6d8481a02734edaf3b418aa",
}


def test_los_families_outputs_pinned():
    plan = np.array([[3, 4, 3], [3, 3, 4], [4, 4, 3]])
    got = {}
    for policy in PINNED_LOS_FAMILIES:
        s = saa_evaluate(_families_scenario(policy), plan, policy, replications=3)
        assert (s.redirects.sum() > 0) == (policy != "P1")
        got[policy] = _digest(s)
    assert got == PINNED_LOS_FAMILIES


def _summary_arrays(s):
    return [s.plan, s.rep_means, s.mean_nva, s.half_width, s.violations, s.redirects]


def test_repeated_evaluation_reuses_arrivals_bit_for_bit():
    sc = with_replication(network_scenario(n=3, policy="P4"), short_spec(seed=12, days=5))
    plan = plan_for(sc, 3)
    first = saa_evaluate(sc, plan, "P4", replications=3)
    assert sorted(sc.timelines) == [(5 * 1440.0, 13 + k) for k in range(3)]
    second = saa_evaluate(sc, plan, "P4", replications=3)
    for a, b in zip(_summary_arrays(first), _summary_arrays(second)):
        assert a.tobytes() == b.tobytes()
    assert first.objective == second.objective


def test_replaced_arrivals_are_drawn_afresh():
    spec = short_spec(seed=3, days=5)
    busier = ArrivalProcess([0.09, 0.12, 0.06])
    sc = with_replication(network_scenario(n=2, policy="P2"), spec)
    plan = plan_for(sc, 2)
    before = saa_evaluate(sc, plan, "P2", replications=2)
    assert sc.timelines
    copy = replace(sc, arrivals=[(busier, a[1]) for a in sc.arrivals])
    assert not copy.timelines
    fresh = network_scenario(n=2, rates_yellow=(0.09, 0.12, 0.06), policy="P2")
    fresh = with_replication(fresh, spec)
    got = saa_evaluate(copy, plan, "P2", replications=2)
    want = saa_evaluate(fresh, plan, "P2", replications=2)
    assert _digest(got) == _digest(want)
    assert _digest(got) != _digest(before)


def test_kept_timeline_survives_a_replication():
    sc = network_scenario(n=3, policy="P3")
    spec = short_spec(seed=8, days=4)
    first = run_replication(sc, plan_for(sc, 2), "P3", spec)
    timeline = sc.timelines[(spec.horizon, spec.seed)]
    times, slices = timeline.times, timeline.slices

    def contents():
        return times.tobytes(), timeline.payloads, [(t.tobytes(), tags) for t, tags in slices]

    kept = contents()
    assert not any(t.flags.writeable for t in (times, *(t for t, _ in slices)))
    again = run_replication(sc, plan_for(sc, 2), "P3", spec)
    assert sc.timelines[(spec.horizon, spec.seed)] is timeline
    assert timeline.times is times and timeline.slices is slices
    assert contents() == kept
    assert len(times) == again.created == first.created
    assert again.nva == first.nva


@pytest.mark.parametrize("case", ["lazio", "three EDs", "three EDs, whole minutes"])
def test_each_ed_slice_is_its_solo_timeline(case):
    # a P1 run of one ED takes its slice of the network's kept timeline; it
    # must be, bit for bit, the timeline of a copy of the scenario that holds
    # that ED's arrivals alone.  Whole-minute times tie across EDs and tags,
    # and an unstable merge would reorder the tied tags
    if case == "lazio":
        sc = parse_scenario(LAZIO)
        spec = ReplicationSpec(horizon=sc.replication.horizon, warmup=0.0, seed=8)
    else:
        sc, spec = scenario_from_dict(_three_ed_dict()), short_spec(seed=21, days=10)
    draw = ArrivalProcess.arrival_times
    floored = mock.patch.object(
        ArrivalProcess, "arrival_times", lambda *args: np.floor(draw(*args))
    )
    with floored if "whole" in case else contextlib.nullcontext():
        timeline = simulate._arrival_timeline(sc, spec.horizon, RandomStreams(spec.seed))
        ties = len(timeline.times) - len(np.unique(timeline.times))
        assert (ties > 100) == ("whole" in case)
        for ed in range(sc.n_eds):
            alone = tuple(a if j == ed else (None, None) for j, a in enumerate(sc.arrivals))
            solo = simulate._arrival_timeline(
                replace(sc, arrivals=alone), spec.horizon, RandomStreams(spec.seed)
            )
            times, tags = timeline.slices[ed]
            assert len(times) > 0
            assert times.tobytes() == solo.times.tobytes()
            assert list(tags) == [tag for _, tag in solo.payloads]
            assert {origin for origin, _ in solo.payloads} == {ed}


def test_p1_runs_read_only_their_slices_after_the_first_check():
    # the timeline's times are checked once, at its first use; after that a
    # P1 run reads its EDs' slices alone, not the whole network's timeline
    sc = scenario_from_dict(_three_ed_dict())
    spec = short_spec(seed=4, days=3)
    first = run_replication(sc, plan_for(sc, 2), "P1", spec, ed=1)
    timeline = sc.timelines[spec.horizon, spec.seed]
    assert timeline.checked and first.created == len(timeline.slices[1][1])
    want = run_replication(sc, plan_for(sc, 3), "P1", spec)
    timeline.times = timeline.payloads = None
    assert run_replication(sc, plan_for(sc, 2), "P1", spec, ed=1).nva == first.nva
    assert run_replication(sc, plan_for(sc, 3), "P1", spec).nva == want.nva
    with pytest.raises(AttributeError):  # the network loop reads the whole timeline
        run_replication(sc, plan_for(sc, 2), "P2", spec)


@pytest.mark.parametrize("policy, ed", [("P1", -1), ("P1", 3), ("P2", 0), ("P4", 1)])
def test_run_replication_names_an_ed_under_p1_only(policy, ed):
    sc = scenario_from_dict(_three_ed_dict())
    with pytest.raises(ValueError, match=rf"only P1 runs one ED alone.*\[0, 3\), got {ed}"):
        run_replication(sc, plan_for(sc, 2), policy, short_spec(seed=4, days=3), ed=ed)
    assert sc.timelines == {}


def counting_los_samples():
    """Patches LosDistribution.sample to record (distribution, k) of every call."""
    calls = []
    original = LosDistribution.sample

    def sample(self, uniforms, k):
        calls.append((self, k))
        return original(self, uniforms, k)

    return calls, mock.patch.object(LosDistribution, "sample", sample)


def los_stores(sc):
    """Every LosStore kept on the scenario, by (seed, ED)."""
    return {
        (seed, ed): store
        for (_, seed), timeline in sc.timelines.items()
        for ed, store in enumerate(timeline.los)
    }


def computed_los(sc):
    """Every kept LOS value of the scenario, by (seed, ED, row, k)."""
    return {
        (seed, ed, r, k): x
        for (seed, ed), store in los_stores(sc).items()
        for r, row in enumerate(store.rows)
        for k, x in enumerate(row)
        if x == x
    }


def _loaded_network(policy):
    sc = network_scenario(n=3, rates_yellow=(0.05, 0.1, 0.05), policy=policy)
    return with_replication(sc, short_spec(seed=31, days=5))


@pytest.mark.parametrize("policy", ["P1", "P4"])
def test_one_shot_evaluation_computes_each_los_value_once(policy):
    # the three replications start service 1,148 times under P1 and 1,147
    # under P4, and each start computes its own value: no more, no fewer
    sc = _loaded_network(policy)
    calls, patch = counting_los_samples()
    with patch:
        saa_evaluate(sc, plan_for(sc, 1), policy, replications=3)
    assert len(calls) == {"P1": 1148, "P4": 1147}[policy]
    assert len(computed_los(sc)) == len(calls)
    assert sorted(los_stores(sc)) == [(32 + k, ed) for k in range(3) for ed in range(3)]


def test_second_plan_computes_only_new_los_values():
    sc = _loaded_network("P4")
    saa_evaluate(sc, plan_for(sc, 1), "P4", replications=3)
    before = computed_los(sc)
    calls, patch = counting_los_samples()
    plan = np.array([[2, 3, 1], [1, 2, 2], [3, 1, 2]])
    with patch:
        got = saa_evaluate(sc, plan, "P4", replications=3)
    after = computed_los(sc)
    assert calls and len(calls) == len(after) - len(before)
    assert after.items() >= before.items()
    want = saa_evaluate(_loaded_network("P4"), plan, "P4", replications=3)
    for a, b in zip(_summary_arrays(got), _summary_arrays(want)):
        assert a.tobytes() == b.tobytes()
    assert got.objective == want.objective


def test_kept_los_values_survive_a_replication():
    sc = network_scenario(n=3, policy="P3")
    spec = short_spec(seed=8, days=4)
    run_replication(sc, plan_for(sc, 2), "P3", spec)
    stores = los_stores(sc)
    uniforms = {key: store.uniforms.tobytes() for key, store in stores.items()}
    values = computed_los(sc)
    run_replication(sc, np.array([[1, 2, 1], [3, 1, 2], [1, 1, 4]]), "P3", spec)
    assert los_stores(sc) == stores
    for key, store in stores.items():
        assert store.uniforms.tobytes()[: len(uniforms[key])] == uniforms[key]
    assert computed_los(sc).items() >= values.items()


def test_copies_start_with_no_los_values():
    sc = with_replication(network_scenario(n=2, policy="P2"), short_spec(seed=4, days=3))
    run_replication(sc, plan_for(sc, 2), "P2", short_spec(seed=4, days=3))
    saa_evaluate(sc, plan_for(sc, 2), "P1", replications=1)
    assert sc.timelines and sc.solo_runs
    flags = argparse.Namespace(seed=11)
    for copy in (replace(sc), _with_flags(sc, flags), with_replication(sc, short_spec())):
        assert copy.timelines == {}
        assert copy.solo_runs == {}


def test_per_slot_los_table_keeps_one_row_per_distinct_distribution():
    yellow = [
        {"family": "gamma", "shape": 2.0, "scale": 25.0},
        {"family": "exponential", "mean": 40.0},
        {"family": "gamma", "shape": 2.0, "scale": 25.0},
    ]
    sc = scenario_from_dict(
        {
            "eds": [
                {
                    "name": "A",
                    "arrivals": {"yellow": {"rates": [0.05, 0.05, 0.05]}},
                    "los": {"yellow": yellow, "red": {"family": "exponential", "mean": 40.0}},
                }
            ],
            "plan_bounds": [1, 6],
        }
    )
    run_replication(sc, plan_for(sc, 2), "P1", short_spec(seed=3, days=3))
    (store,) = los_stores(sc).values()
    assert len(store.rows) == 2
    gamma, exponential = store.rows
    # the loops read the table's rows, which are the cells' rows themselves
    assert store.table == [[row for _, row in slots] for slots in store.cells] == [
        [gamma, exponential, gamma],
        [exponential] * 3,
    ]
    assert [[dist for dist, _ in slots] for slots in store.cells] == list(map(list, sc.los[0]))


def _records_digest(records):
    fields = [
        (int(p.tag), int(p.origin), int(p.serving), float(p.t_triage),
         float(p.t_service_start), float(p.transfer_minutes), int(p.redirects),
         int(p.entry_slot))
        for p in records
    ]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


# sha256 over every field of run_replication's patient records, in
# completion order (under P1, ED by ED), on a loaded three-ED network; any
# change to how a patient is routed, queued, served or recorded moves them.
PINNED_RECORDS = {
    "P1": "61f611364f7dc5c13581a576688825d0975fd62e450a52cbd4eff35d462b8d24",
    "P2": "5772c7e29633683e5c8c93ecf4a36de5f62d5d14f5c7824e2bf48749d1f57d09",
    "P3 thresholds cascade": "852eb41cc47549110acb691ec80ee933801e85afece990ff8ba7f1d15f883305",
    "P4": "ac26d0cb163b0162c3f626317030b7951e646bc15589a0a6c80a7190bf9deafb",
}


def test_patient_records_pinned():
    policies = {
        "P1": PolicySpec("P1"),
        "P2": PolicySpec("P2"),
        "P3 thresholds cascade": PolicySpec("P3", p3_thresholds=[2, 3, 2], cascade=True),
        "P4": PolicySpec("P4"),
    }
    sc = network_scenario(n=3, rates_yellow=(0.05, 0.08, 0.04), rates_red=(0.01, 0.02, 0.01))
    plan = np.array([[3, 4, 3], [4, 4, 5], [3, 3, 4]])
    got = {}
    for name, policy in policies.items():
        out = run_replication(sc, plan, policy, short_spec(seed=17, days=6), record_patients=True)
        assert len(out.patients) > 500
        assert (sum(p.redirects for p in out.patients) > 0) == (policy.id != "P1")
        got[name] = _records_digest(out.patients)
    assert got == PINNED_RECORDS


def counting_calls(owner, name):
    """Patches owner.name to count its calls; returns (counter, patch)."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    return calls, mock.patch.object(owner, name, counted)


def counting_arrivals():
    """Patches run_replication to count its runs and sum their arrivals.

    Returns ([arrivals, runs], patch).
    """
    arrivals = [0, 0]
    original = simulate.run_replication

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        arrivals[0] += out.created
        arrivals[1] += 1
        return out

    return arrivals, mock.patch.object(simulate, "run_replication", counted)


# Heap pops and schedules, LOS values computed and arrivals of one small
# saa_evaluate; a loop that skips or adds event work moves them.  Arrivals
# and slot boundaries bypass the heap, so heap pops, arrivals and the 14
# boundaries of each 5-day replication are every event of the loop: 6,267
# under P1 (nine replications, each ED alone) and 6,195 under P4 (three).
PINNED_EVENT_WORK = {
    "P1": (1148, 1157, 1148, 4993),
    "P4": (1160, 1169, 1147, 4993),
}


@pytest.mark.parametrize("policy", ["P1", "P4"])
def test_event_work_pinned(policy):
    sc = _loaded_network(policy)
    pops, pop_patch = counting_calls(EventCalendar, "pop")
    schedules, schedule_patch = counting_calls(EventCalendar, "schedule")
    samples, sample_patch = counting_calls(LosDistribution, "sample")
    arrivals, arrival_patch = counting_arrivals()
    with pop_patch, schedule_patch, sample_patch, arrival_patch:
        saa_evaluate(sc, plan_for(sc, 1), policy, replications=3)
    got = (pops[0], schedules[0], samples[0], arrivals[0])
    assert got == PINNED_EVENT_WORK[policy]
    boundaries = arrivals[1] * (5 * 3 - 1)
    assert pops[0] + arrivals[0] + boundaries == {"P1": 6267, "P4": 6195}[policy]
