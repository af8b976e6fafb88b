"""Replication-driver tests: conservation, warm-up, determinism, policies."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from ednetsim import ReplicationSpec, parse_scenario, run_replication, saa_evaluate
from ednetsim.calibrate import simulated_waits
from ednetsim.network import RED, YELLOW

from util import (
    asymmetric_pair_scenario,
    network_scenario,
    plan_for,
    single_ed_scenario,
    with_replication,
)


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


def test_p1_matches_isolated_single_ed_runs():
    # with diversion off, each ED's statistics equal its isolated run's;
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
    waits = simulated_waits(seeded, (2, 3, 2), 2)
    expected = (direct[0].slot_tag_waits(0) + direct[1].slot_tag_waits(0)) / 2
    assert np.array_equal(waits, expected)


def test_p3_thresholds_length_checked():
    sc = network_scenario(n=2, policy={"id": "P3", "p3_thresholds": [1, 1]})
    run_replication(sc, plan_for(sc, 2), sc.policy, short_spec(days=2))
    from ednetsim.network import PolicySpec

    bad = PolicySpec("P3", p3_thresholds=[1, 1, 1])
    with pytest.raises(ValueError):
        run_replication(sc, plan_for(sc, 2), bad, short_spec(days=2))


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
    "P1": "32e451012ce4454fd5cd25eb454fa7555ad627c76aa0d79056602ed67ec2d0eb",
    "P2": "36b3736e0bfd52f27f7b3a5d9ca0247140e7385ffb637eba3b8c57bc6fc2be2a",
    "P3": "a3f131d3b9073718747882007c48f110c0e6eae01a4dc3c20cd684ce253f7ac0",
    "P4": "52571b82a5a4dcef14426b22cba4245eb7d5393590ae775d920e8f50c9546b41",
}


def test_six_ed_outputs_pinned():
    path = Path(__file__).resolve().parent.parent / "scenarios" / "lazio_synthetic.yaml"
    sc = parse_scenario(path)
    sc = with_replication(sc, ReplicationSpec(horizon=10 * 1440.0, warmup=48 * 60.0, seed=7))
    got = {}
    for policy in PINNED_LAZIO:
        s = saa_evaluate(sc, sc.starting_plan, policy, replications=2)
        assert (s.redirects.sum() > 0) == (policy != "P1")
        got[policy] = _digest(s)
    assert got == PINNED_LAZIO
