"""Calibration tests: L1 fit, exhaustive grid, self-recovery."""

from dataclasses import replace

import numpy as np
import pytest

from ednetsim import ReplicationSpec, calibrate_ed, calibrate_network, l1_error, saa_evaluate
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


def test_grid_matches_independent_enumeration():
    from itertools import product

    sc = _loaded_single_ed()
    base = ReplicationSpec(horizon=8 * 1440.0, warmup=480.0, seed=11)
    sc = with_replication(sc, base)
    real = np.full((3, 2), 12.0)
    caps, err = calibrate_ed(replace(sc, plan_bounds=(2, 4)), 0, real, replications=2)

    best = None
    for triple in product(range(2, 5), repeat=3):
        waits = simulated_waits(sc, triple, replications=2, ed=0)
        key = (l1_error(waits, real), sum(triple), triple)
        if best is None or key < best:
            best = key
    assert caps == best[2]
    assert err == pytest.approx(best[0])


def test_calibrate_ed_searches_plan_bounds_by_default(monkeypatch):
    from itertools import product

    from ednetsim import calibrate

    sc = single_ed_scenario(rates_yellow=(0.05, 0.05, 0.05), los_mean=30.0, plan_bounds=(2, 3))
    sc = with_replication(sc, ReplicationSpec(horizon=4 * 1440.0, warmup=480.0, seed=5))
    searched = []
    original = calibrate.simulated_waits

    def recording(scenario, capacities, replications, ed):
        searched.append(tuple(capacities))
        return original(scenario, capacities, replications, ed)

    monkeypatch.setattr(calibrate, "simulated_waits", recording)
    caps, _ = calibrate_ed(sc, 0, np.zeros((3, 2)), replications=1)
    assert sorted(searched) == list(product((2, 3), repeat=3))
    assert caps == (3, 3, 3)


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
    sc.real_waits = np.stack(rows)
    plan, errors = calibrate_network(replace(sc, plan_bounds=(2, 4)), replications=2)
    assert np.array_equal(plan, true_plan)
    assert np.allclose(errors, 0.0)


def test_calibrate_network_requires_real_waits():
    sc = network_scenario(n=2)
    with pytest.raises(ValueError):
        calibrate_network(sc, replications=1)


def test_calibrate_ed_input_validation():
    sc = network_scenario(n=2)
    for ed in (-1, 2):
        with pytest.raises(ValueError, match=rf"ED index {ed} out of range \[0, 2\)"):
            calibrate_ed(sc, ed, np.zeros((3, 2)), replications=1)
    single = _loaded_single_ed()
    with pytest.raises(ValueError):
        calibrate_ed(single, 0, np.zeros((2, 2)), replications=1)
    with pytest.raises(ValueError):
        calibrate_ed(single, 0, np.full((3, 2), -1.0), replications=1)
    for replications in (0, -1):
        with pytest.raises(ValueError, match="at least one replication"):
            calibrate_ed(single, 0, np.zeros((3, 2)), replications=replications)


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
        solo = sc.solo_runs[i][0]
        ran = []
        original = simulate.run_replication

        def counting(scenario, *args, **kwargs):
            ran.append(scenario)
            return original(scenario, *args, **kwargs)

        monkeypatch.setattr(simulate, "run_replication", counting)
        plan = plan_for(sc, 2)
        plan[i] = triple
        saa_evaluate(sc, plan, "P1", replications)
        monkeypatch.undo()
        assert not any(scenario is solo for scenario in ran)
        assert len(ran) == 2 * replications  # the other two EDs only
