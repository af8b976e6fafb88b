"""Calibration tests: L1 fit, exhaustive grid, self-recovery, exact stopping."""

import math
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ednetsim import (
    ReplicationSpec,
    calibrate_ed,
    calibrate_network,
    l1_error,
    parse_scenario,
    saa_evaluate,
)
from ednetsim.calibrate import simulated_waits
from ednetsim.simulate import replicate

from util import network_scenario, plan_for, single_ed_scenario, with_replication


def test_l1_error_hand_values():
    real = np.array([[12.0, 5.0], [18.0, 10.0], [33.0, 9.0]])
    sim = np.array([[10.0, 5.0], [20.0, 8.0], [30.0, 9.0]])
    assert l1_error(sim, real) == pytest.approx(9.0)
    assert l1_error(real, real) == 0.0
    assert l1_error(real + 1.0, real) == pytest.approx(6.0)


def test_l1_error_symmetric_nonnegative():
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0, 50, (3, 2)), rng.uniform(0, 50, (3, 2))
    assert l1_error(a, b) == pytest.approx(l1_error(b, a))
    assert l1_error(a, b) > 0.0


def test_l1_error_shape_checked():
    with pytest.raises(ValueError):
        l1_error(np.zeros((2, 2)), np.zeros((3, 2)))


def _loaded_single_ed():
    return single_ed_scenario(
        rates_yellow=(0.12, 0.18, 0.12),
        rates_red=(0.02, 0.03, 0.02),
        los_mean=30.0,
        plan_bounds=(1, 20),
    )


def test_self_recovery():
    sc = _loaded_single_ed()
    base = ReplicationSpec(horizon=15 * 1440.0, warmup=960.0, seed=77)
    sc = with_replication(sc, base)
    true_caps = (4, 5, 3)
    real = simulated_waits(sc, true_caps, replications=2, ed=0)
    assert real.max() > 0.0
    caps, err = calibrate_ed(replace(sc, plan_bounds=(2, 5)), 0, real, replications=2)
    assert caps == true_caps
    assert err == 0.0


def test_zero_waits_drive_capacities_to_maximum():
    sc = single_ed_scenario(rates_yellow=(0.3, 0.3, 0.3), los_mean=30.0)
    base = ReplicationSpec(horizon=10 * 1440.0, warmup=480.0, seed=5)
    sc = with_replication(sc, base)
    caps, err = calibrate_ed(replace(sc, plan_bounds=(2, 4)), 0, np.zeros((3, 2)), replications=2)
    assert caps == (4, 4, 4)
    assert err > 0.0


def _full_enumeration(sc, real, replications):
    """(triple, error) of the exhaustive search on unstopped, freshly simulated waits."""
    sc = replace(sc)  # keeps no runs
    lo, hi = sc.plan_bounds
    err, _, triple = min(
        (l1_error(simulated_waits(sc, t, replications, 0), real), sum(t), t)
        for t in product(range(lo, hi + 1), repeat=3)
    )
    return triple, err


def test_grid_matches_independent_enumeration():
    sc = _loaded_single_ed()
    base = ReplicationSpec(horizon=8 * 1440.0, warmup=480.0, seed=11)
    sc = replace(with_replication(sc, base), plan_bounds=(2, 4))
    real = np.full((3, 2), 12.0)
    assert calibrate_ed(sc, 0, real, replications=2) == _full_enumeration(sc, real, 2)


def _searched_triples(monkeypatch):
    from ednetsim import calibrate

    searched = []
    original = calibrate.simulated_waits

    def recording(scenario, capacities, replications, ed, bound=None):
        searched.append(tuple(capacities))
        return original(scenario, capacities, replications, ed, bound)

    monkeypatch.setattr(calibrate, "simulated_waits", recording)
    return searched


def test_calibrate_ed_searches_plan_bounds_by_default(monkeypatch):
    sc = single_ed_scenario(rates_yellow=(0.05, 0.05, 0.05), los_mean=30.0, plan_bounds=(2, 3))
    sc = with_replication(sc, ReplicationSpec(horizon=4 * 1440.0, warmup=480.0, seed=5))
    searched = _searched_triples(monkeypatch)
    caps, _ = calibrate_ed(sc, 0, np.zeros((3, 2)), replications=1)
    assert sorted(searched) == list(product((2, 3), repeat=3))
    assert caps == (3, 3, 3)


def test_search_starts_at_the_offered_load(monkeypatch):
    # offered load per slot: (0.05 + 0.01) * 30, (0.09 + 0.02) * 30 and
    # (0.03 + 0.01) * 30 minutes = 1.8, 3.3 and 1.2 busy servers
    sc = single_ed_scenario(
        rates_yellow=(0.05, 0.09, 0.03), rates_red=(0.01, 0.02, 0.01), plan_bounds=(1, 5)
    )
    sc = with_replication(sc, ReplicationSpec(horizon=2 * 1440.0, warmup=480.0, seed=5))
    searched = _searched_triples(monkeypatch)
    calibrate_ed(sc, 0, np.full((3, 2), 10.0), replications=1)
    assert searched[0] == (2, 4, 2)
    assert sorted(searched) == list(product(range(1, 6), repeat=3))
    distances = [sum(abs(c - x) for c, x in zip(t, (2, 4, 2))) for t in searched]
    assert distances == sorted(distances)


@pytest.mark.parametrize(
    "rates_yellow, rates_red, bounds",
    [
        ((0.12, 0.18, 0.12), (0.02, 0.03, 0.02), (2, 3)),  # load 4.2 / 6.3 / 4.2, above
        ((0.01, 0.02, 0.01), (0.002, 0.002, 0.002), (3, 4)),  # load under 1, below
        ((0.06, 0.09, 0.06), None, (2, 4)),  # no red arrivals
    ],
)
def test_search_from_any_offered_load_matches_full_enumeration(rates_yellow, rates_red, bounds):
    sc = single_ed_scenario(rates_yellow=rates_yellow, rates_red=rates_red, plan_bounds=bounds)
    sc = with_replication(sc, ReplicationSpec(horizon=3 * 1440.0, warmup=480.0, seed=23))
    real = simulated_waits(replace(sc), (bounds[1], bounds[0], bounds[1]), 2, 0) + 1.5
    assert calibrate_ed(sc, 0, real, 2) == _full_enumeration(sc, real, 2)


def _counting_replications(monkeypatch):
    from ednetsim import simulate

    ran = []
    original = simulate.run_replication

    def counting(scenario, plan, policy, spec, **kwargs):
        ran.append((tuple(plan[0].tolist()), spec.seed))
        return original(scenario, plan, policy, spec, **kwargs)

    monkeypatch.setattr(simulate, "run_replication", counting)
    return ran


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 10**6),
    source=st.tuples(*[st.integers(2, 4)] * 3),
    noise=st.lists(st.floats(-20.0, 20.0), min_size=6, max_size=6),
)
def test_stopped_search_matches_full_enumeration(seed, source, noise):
    # real waits near those of a random triple, or far from all of them where
    # the noise is large: either way the stopped search picks what the
    # exhaustive one picks, to the last bit of the error
    sc = single_ed_scenario(
        rates_yellow=(0.06, 0.09, 0.06), rates_red=(0.01, 0.02, 0.01), plan_bounds=(2, 4)
    )
    sc = with_replication(sc, ReplicationSpec(horizon=3 * 1440.0, warmup=480.0, seed=seed))
    real = simulated_waits(replace(sc), source, 2, 0) + np.reshape(noise, (3, 2))
    real = np.maximum(real, 0.0)
    assert calibrate_ed(sc, 0, real, 2) == _full_enumeration(sc, real, 2)


def test_stopping_runs_fewer_replications_than_the_grid(monkeypatch):
    sc = with_replication(
        _loaded_single_ed(), ReplicationSpec(horizon=6 * 1440.0, warmup=480.0, seed=77)
    )
    real = simulated_waits(replace(sc), (4, 5, 3), 2, 0)
    ran = _counting_replications(monkeypatch)
    caps, err = calibrate_ed(replace(sc, plan_bounds=(2, 5)), 0, real, replications=2)
    assert (caps, err) == ((4, 5, 3), 0.0)
    assert len(ran) < 4**3 * 2
    # no replication of a triple ran twice, and the winner ran all of them
    assert len(set(ran)) == len(ran)
    assert {((4, 5, 3), 78), ((4, 5, 3), 79)} <= set(ran)


def test_a_tie_on_error_goes_to_fewer_resources():
    # at this light load slots 1 and 3 never need a third server, so (2, 2, 2),
    # (2, 2, 3), (3, 2, 2) and (3, 2, 3) wait alike; as do (1, 2, 2) and
    # (1, 2, 3).  The tie rule does not depend on the order the search
    # visits the triples in.
    sc = single_ed_scenario(rates_yellow=(0.003,) * 3, rates_red=(0.002,) * 3, plan_bounds=(1, 3))
    sc = with_replication(sc, ReplicationSpec(horizon=3 * 1440.0, warmup=480.0, seed=5))
    waits = simulated_waits(replace(sc), (2, 2, 2), 2, 0)
    assert waits.max() > 0.0
    ties = {0.0: [(3, 2, 3), (3, 2, 2), (2, 2, 3), (2, 2, 2)], 0.5: [(1, 2, 3), (1, 2, 2)]}
    for offset, tied in ties.items():
        real = waits + offset
        errors = {l1_error(simulated_waits(replace(sc), t, 2, 0), real) for t in tied}
        assert len(errors) == 1
        expected = tied[-1], errors.pop()
        assert calibrate_ed(replace(sc), 0, real, 2) == expected == _full_enumeration(sc, real, 2)


def test_calibrate_network_recovers_every_ed():
    sc = network_scenario(
        n=2, rates_yellow=(0.15, 0.15, 0.15), rates_red=(0.02, 0.02, 0.02), los_mean=30.0
    )
    base = ReplicationSpec(horizon=10 * 1440.0, warmup=480.0, seed=31)
    sc = with_replication(sc, base)
    true_plan = np.array([[3, 4, 3], [4, 3, 4]])
    rows = [
        simulated_waits(sc, true_plan[i], replications=2, ed=i)
        for i in range(2)
    ]
    sc = replace(sc, real_waits=np.stack(rows), plan_bounds=(2, 4))
    plan, errors = calibrate_network(sc, replications=2)
    assert np.array_equal(plan, true_plan)
    assert np.allclose(errors, 0.0)


def test_calibrate_network_requires_real_waits():
    sc = network_scenario(n=2)
    with pytest.raises(ValueError):
        calibrate_network(sc, replications=1)


def test_calibrate_ed_input_validation(monkeypatch):
    ran = _counting_replications(monkeypatch)
    sc = network_scenario(n=2)
    for ed in (-1, 2):
        with pytest.raises(ValueError, match=rf"ED index {ed} out of range \[0, 2\)"):
            calibrate_ed(sc, ed, np.zeros((3, 2)), replications=1)
    single = _loaded_single_ed()
    with pytest.raises(ValueError):
        calibrate_ed(single, 0, np.zeros((2, 2)), replications=1)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="real waits must be finite and non-negative"):
            calibrate_ed(single, 0, np.full((3, 2), bad), replications=1)
    for replications in (0, -1):
        with pytest.raises(ValueError, match="at least one replication"):
            calibrate_ed(single, 0, np.zeros((3, 2)), replications=replications)
        with pytest.raises(ValueError, match="at least one replication"):
            simulated_waits(single, (2, 2, 2), replications, 0, (np.zeros((3, 2)), 1.0))
    # every bad input fails before anything is simulated
    assert ran == []
    assert single.solo_runs == {}


def test_simulated_waits_rejects_an_ed_outside_the_network():
    sc = network_scenario(n=3)
    for ed in (-1, 3):
        with pytest.raises(ValueError, match=rf"ED index {ed} out of range \[0, 3\)"):
            simulated_waits(sc, (2, 2, 2), 1, ed)
    assert sc.solo_runs == {}


def _three_ed_network():
    sc = network_scenario(
        n=3, rates_yellow=(0.1, 0.15, 0.1), rates_red=(0.02, 0.02, 0.02), los_mean=30.0
    )
    return with_replication(sc, ReplicationSpec(horizon=6 * 1440.0, warmup=480.0, seed=17))


def test_simulated_waits_draw_the_p1_random_numbers():
    # each ED is calibrated on its own streams, so its waits are its share of
    # whole-network P1 runs, for every ED and not only the first
    sc = _three_ed_network()
    triple, replications = (2, 3, 2), 3
    whole = list(replicate(replace(sc), np.tile(triple, (3, 1)), "P1", replications))
    for i in range(3):
        expected = sum((out.slot_tag_waits(i) for out in whole), np.zeros((3, 2)))
        expected /= replications
        assert expected.min() > 0.0
        assert np.array_equal(simulated_waits(sc, triple, replications, i), expected)


def test_p1_evaluation_reuses_the_calibration_runs(monkeypatch):
    from ednetsim import simulate

    triple, replications = (3, 2, 3), 2
    for i in range(3):
        sc = _three_ed_network()
        simulated_waits(sc, triple, replications, i)
        means, _ = sc.solo_runs[i, triple]
        ran = []
        original = simulate.run_replication

        def counting(*args, **kwargs):
            ran.append(kwargs["ed"])
            return original(*args, **kwargs)

        monkeypatch.setattr(simulate, "run_replication", counting)
        plan = plan_for(sc, 2)
        plan[i] = triple
        summary = saa_evaluate(sc, plan, "P1", replications)
        monkeypatch.undo()
        assert sorted(ran) == [j for j in range(3) if j != i for _ in range(replications)]
        assert summary.rep_means[:, i].tolist() == [list(m) for m in means]


def test_calibration_demo_header_recipe_reproduces_real_waits():
    # the recipe in the file's header comment, bit for bit: a change that moves
    # these waits (random streams, event loop) must regenerate the file's tables
    path = Path(__file__).resolve().parent.parent / "scenarios" / "calibration_demo.yaml"
    sc = parse_scenario(path)
    for ed, plan in enumerate([(4, 5, 3), (3, 4, 2)]):
        assert np.array_equal(simulated_waits(sc, plan, 10, ed), sc.real_waits[ed])
