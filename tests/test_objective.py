"""Cost-function, constraint, and sample-average estimation tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ednetsim import (
    ObjectiveSpec,
    ReplicationSpec,
    constraint_violations,
    make_allocation_problem,
    objective_value,
    saa_evaluate,
    scenario_from_dict,
    simulate,
)
from ednetsim.network import RED, YELLOW

from util import asymmetric_pair_scenario, exp_los, single_ed_scenario, with_replication

# published starting point: per-ED slot capacities and the P1 NVA means
START_PLAN = [
    [4, 4, 4],
    [4, 5, 4],
    [4, 4, 3],
    [4, 5, 2],
    [4, 5, 3],
    [3, 2, 2],
]
NVA_P1 = [
    [15.89, 6.78],
    [25.77, 11.18],
    [5.96, 3.94],
    [50.28, 24.40],
    [54.63, 23.70],
    [12.51, 7.10],
]


def test_objective_value_published_starting_point():
    f = objective_value(np.array(START_PLAN), NVA_P1, ObjectiveSpec())
    assert f == pytest.approx(480.0 * 66 + 300.0 * 165.04 + 600.0 * 77.10)
    assert f == pytest.approx(127454.63, rel=1e-3)


def test_objective_value_weights():
    spec = ObjectiveSpec(weights=(2.0, 10.0, 20.0))
    nva = [[1.0, 2.0]]
    f = objective_value(np.array([[1, 1, 1]]), nva, spec)
    assert f == pytest.approx(2.0 * 480.0 * 3 + 10.0 * 1.0 + 20.0 * 2.0)
    f = objective_value(np.array([[2.9, 2.9, 2.9]]), nva, spec)
    assert f == pytest.approx(2.0 * 480.0 * 8.7 + 10.0 * 1.0 + 20.0 * 2.0)


def test_constraint_violations_published_rows():
    g = constraint_violations(NVA_P1, ObjectiveSpec())
    expected = np.zeros((6, 2))
    expected[3] = [10.28, 4.40]
    expected[4] = [14.63, 3.70]
    assert np.allclose(g, expected, atol=1e-9)


def test_constraint_violations_all_satisfied():
    g = constraint_violations([[40.0, 20.0], [0.0, 0.0]], ObjectiveSpec())
    assert np.all(g == 0.0)


def test_objective_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(weights=(1.0, 2.0))
    with pytest.raises(ValueError):
        ObjectiveSpec(nva_limits=(40.0,))


def test_saa_is_reproducible_and_uses_common_seeds():
    sc = single_ed_scenario(rates_yellow=(0.08, 0.08, 0.08))
    base = ReplicationSpec(horizon=15 * 1440.0, warmup=480.0, seed=100)
    sc = with_replication(sc, base)
    a = saa_evaluate(sc, [[2, 2, 2]], "P1", replications=4)
    b = saa_evaluate(sc, [[2, 2, 2]], "P1", replications=4)
    assert a.objective == b.objective
    assert np.array_equal(a.rep_means, b.rep_means)
    # a different plan under the same base shares every replication seed,
    # so more capacity can only shorten each replication's estimate here
    c = saa_evaluate(sc, [[6, 6, 6]], "P1", replications=4)
    assert np.all(c.rep_means[:, 0, YELLOW] <= a.rep_means[:, 0, YELLOW])


def test_saa_half_width_matches_summarize():
    from ednetsim import summarize

    sc = single_ed_scenario(rates_yellow=(0.08, 0.08, 0.08))
    base = ReplicationSpec(horizon=15 * 1440.0, warmup=480.0, seed=3)
    sc = with_replication(sc, base)
    s = saa_evaluate(sc, [[2, 2, 2]], "P1", replications=5)
    ci = summarize(s.rep_means[:, 0, YELLOW])
    assert s.mean_nva[0, YELLOW] == pytest.approx(ci.mean)
    assert s.half_width[0, YELLOW] == pytest.approx(ci.half_width)
    assert s.nva_ci(0, YELLOW).n == 5


def test_saa_empty_tag_counts_as_zero():
    sc = single_ed_scenario(rates_yellow=(0.05, 0.05, 0.05))  # no red arrivals
    base = ReplicationSpec(horizon=5 * 1440.0, warmup=480.0, seed=1)
    sc = with_replication(sc, base)
    s = saa_evaluate(sc, [[2, 2, 2]], "P1", replications=2)
    assert np.all(s.rep_means[:, 0, RED] == 0.0)
    assert s.mean_nva[0, RED] == 0.0


def test_saa_single_replication_has_no_half_width():
    sc = single_ed_scenario()
    base = ReplicationSpec(horizon=5 * 1440.0, warmup=480.0, seed=1)
    sc = with_replication(sc, base)
    s = saa_evaluate(sc, [[2, 2, 2]], "P1", replications=1)
    assert np.isnan(s.half_width).all()
    for replications in (0, -1):
        for memo in (None, {}):
            with pytest.raises(ValueError, match="at least one replication"):
                saa_evaluate(sc, [[2, 2, 2]], "P1", replications=replications, ed_memo=memo)


def test_make_allocation_problem_round_trip():
    sc = asymmetric_pair_scenario()
    base = ReplicationSpec(horizon=10 * 1440.0, warmup=480.0, seed=50)
    sc = with_replication(sc, base)
    evaluate = make_allocation_problem(sc, "P2", replications=2)
    x = (1, 1, 1, 4, 4, 4)
    f, g = evaluate(x)
    summary = evaluate.summaries[x]
    assert f == summary.objective
    assert len(g) == 4  # 2 EDs x 2 tags
    assert np.all(np.asarray(g) >= 0.0)
    assert summary.plan.tolist() == [[1, 1, 1], [4, 4, 4]]
    with pytest.raises(ValueError):
        evaluate((1, 2, 3))


def distinct_three_ed_scenario(policy="P1"):
    """Three EDs with different volumes and visit times, close enough to divert."""
    eds = [
        {
            "name": f"ED{i + 1}",
            "arrivals": {
                "yellow": {"rates": [0.03 * (i + 1), 0.05 * (i + 1), 0.04]},
                "red": {"rates": [0.01, 0.005 * (i + 1), 0.01]},
            },
            "los": {"yellow": exp_los(40.0 + 15.0 * i), "red": exp_los(70.0 - 10.0 * i)},
        }
        for i in range(3)
    ]
    return scenario_from_dict(
        {
            "eds": eds,
            "transfer_minutes": [[0, 10, 15], [10, 0, 10], [15, 10, 0]],
            "policy": policy,
            "plan_bounds": [1, 8],
        }
    )


def counting_replications():
    """Patches simulate.run_replication to record every output, in call order."""
    outputs = []
    original = simulate.run_replication

    def recorder(*args, **kwargs):
        out = original(*args, **kwargs)
        outputs.append(out)
        return out

    return outputs, mock.patch.object(simulate, "run_replication", recorder)


def assert_same_estimate(a, b):
    assert np.array_equal(a.rep_means, b.rep_means)
    assert np.array_equal(a.mean_nva, b.mean_nva)
    assert np.array_equal(a.half_width, b.half_width, equal_nan=True)
    assert a.objective == b.objective
    assert np.array_equal(a.violations, b.violations)
    assert np.array_equal(a.redirects, b.redirects)


def test_p1_memo_matches_whole_network_evaluation():
    # per-ED blocks keep each ED's own streams: a solo run keyed to
    # stream 0 would change the numbers of ED2 and ED3
    sc = distinct_three_ed_scenario()
    base = ReplicationSpec(horizon=6 * 1440.0, warmup=480.0, seed=12)
    sc = with_replication(sc, base)
    evaluate = make_allocation_problem(sc, "P1", replications=3)
    points = [
        (2, 2, 2, 3, 3, 3, 2, 3, 2),
        (2, 2, 2, 1, 3, 3, 2, 3, 2),
        (4, 2, 2, 1, 3, 3, 2, 3, 2),
        (4, 2, 2, 1, 3, 3, 2, 3, 5),
        (2, 2, 2, 1, 3, 3, 2, 3, 5),
    ]
    for x in points:
        f, g = evaluate(x)
        fresh = saa_evaluate(sc, np.reshape(x, (3, 3)), "P1", replications=3)
        assert_same_estimate(evaluate.summaries[x], fresh)
        assert f == fresh.objective
        assert np.array_equal(g, fresh.violations.reshape(-1))


def test_p1_memo_simulates_each_row_once():
    sc = distinct_three_ed_scenario()
    base = ReplicationSpec(horizon=3 * 1440.0, warmup=480.0, seed=5)
    sc = with_replication(sc, base)
    evaluate = make_allocation_problem(sc, "P1", replications=2)
    outputs, patch = counting_replications()
    with patch:
        evaluate((2, 2, 2, 3, 3, 3, 2, 3, 2))
        assert len(outputs) == 3 * 2  # every ED, every replication
        evaluate((2, 2, 2, 4, 3, 3, 2, 3, 2))
        assert len(outputs) == 3 * 2 + 2  # only ED 1's new row
        evaluate((3, 2, 2, 3, 3, 3, 2, 3, 2))
        assert len(outputs) == 3 * 2 + 2 + 2
        # every row of this plan was seen in an earlier one
        evaluate((3, 2, 2, 4, 3, 3, 2, 3, 2))
        evaluate((2, 2, 2, 3, 3, 3, 2, 3, 2))
        assert len(outputs) == 3 * 2 + 2 + 2


def test_coupled_policies_simulate_every_evaluation():
    sc = distinct_three_ed_scenario(policy="P4")
    base = ReplicationSpec(horizon=3 * 1440.0, warmup=480.0, seed=5)
    sc = with_replication(sc, base)
    evaluate = make_allocation_problem(sc, "P4", replications=2)
    outputs, patch = counting_replications()
    with patch:
        evaluate((2, 2, 2, 3, 3, 3, 2, 3, 2))
        evaluate((2, 2, 2, 4, 3, 3, 2, 3, 2))
        evaluate((2, 2, 2, 3, 3, 3, 2, 3, 2))
    assert len(outputs) == 3 * 2
    with pytest.raises(ValueError, match="P1"):
        saa_evaluate(sc, np.full((3, 3), 2), "P4", replications=1, ed_memo={})


@st.composite
def p1_networks(draw):
    """A random 2-4 ED P1 network, a plan, a one-row change of it, and a base spec."""
    n = draw(st.integers(2, 4))
    rates = st.lists(st.floats(0.0, 0.12), min_size=3, max_size=3)
    los_mean = st.floats(5.0, 120.0)
    eds = []
    for i in range(n):
        arrivals = {"yellow": {"rates": draw(rates)}}
        if draw(st.booleans()):
            arrivals["red"] = {"rates": draw(rates)}
        eds.append(
            {
                "name": f"ED{i + 1}",
                "arrivals": arrivals,
                "los": {"yellow": exp_los(draw(los_mean)), "red": exp_los(draw(los_mean))},
            }
        )
    sc = scenario_from_dict(
        {
            "eds": eds,
            "transfer_minutes": [[0.0 if i == j else 10.0 for j in range(n)] for i in range(n)],
            "plan_bounds": [1, 6],
        }
    )
    row = st.lists(st.integers(1, 6), min_size=3, max_size=3)
    plan = np.array([draw(row) for _ in range(n)])
    changed = plan.copy()
    ed = draw(st.integers(0, n - 1))
    changed[ed] = draw(row.filter(lambda r: r != plan[ed].tolist()))
    days = draw(st.integers(2, 5))
    base = ReplicationSpec(horizon=days * 1440.0, warmup=480.0, seed=draw(st.integers(0, 2**31)))
    return sc, plan, changed, base


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(p1_networks())
def test_p1_memo_property(case):
    sc, plan, changed, base = case
    sc = with_replication(sc, base)
    n, reps = sc.n_eds, 2
    evaluate = make_allocation_problem(sc, "P1", replications=reps)
    outputs, patch = counting_replications()
    with patch:
        whole = saa_evaluate(sc, plan, "P1", replications=reps)
        f, _ = evaluate(tuple(plan.reshape(-1).tolist()))
        solo = outputs[reps:]
        assert len(solo) == n * reps
        evaluate(tuple(changed.reshape(-1).tolist()))
        assert len(outputs) == reps + n * reps + reps
    assert_same_estimate(evaluate.summaries[tuple(plan.reshape(-1).tolist())], whole)
    assert_same_estimate(
        evaluate.summaries[tuple(changed.reshape(-1).tolist())],
        saa_evaluate(sc, changed, "P1", replications=reps),
    )
    # patients are conserved in every replication, whole and per ED, and
    # the per-ED runs of a replication add up to the whole-network run
    for out in outputs:
        assert out.created == out.discharged + out.in_system
        assert out.in_system >= 0
    for k in range(reps):
        blocks = solo[k::reps]
        for count in ("created", "discharged", "in_system"):
            assert sum(getattr(b, count) for b in blocks) == getattr(outputs[k], count)
