"""Cost-function, constraint, and sample-average estimation tests."""

import numpy as np
import pytest

from ednetsim import (
    ObjectiveSpec,
    ReplicationSpec,
    constraint_violations,
    make_allocation_problem,
    objective_value,
    saa_evaluate,
)
from ednetsim.network import RED, YELLOW

from util import asymmetric_pair_scenario, single_ed_scenario

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
    f = objective_value(np.array(START_PLAN), NVA_P1)
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
    g = constraint_violations(NVA_P1)
    expected = np.zeros((6, 2))
    expected[3] = [10.28, 4.40]
    expected[4] = [14.63, 3.70]
    assert np.allclose(g, expected, atol=1e-9)


def test_constraint_violations_all_satisfied():
    g = constraint_violations([[40.0, 20.0], [0.0, 0.0]])
    assert np.all(g == 0.0)


def test_objective_spec_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(weights=(1.0, 2.0))
    with pytest.raises(ValueError):
        ObjectiveSpec(nva_limits=(40.0,))


def test_saa_is_reproducible_and_uses_common_seeds():
    sc = single_ed_scenario(rates_yellow=(0.08, 0.08, 0.08))
    base = ReplicationSpec(horizon=15 * 1440.0, warmup=480.0, seed=100)
    a = saa_evaluate(sc, [[2, 2, 2]], "P1", replications=4, base_spec=base)
    b = saa_evaluate(sc, [[2, 2, 2]], "P1", replications=4, base_spec=base)
    assert a.objective == b.objective
    assert np.array_equal(a.rep_means, b.rep_means)
    # a different plan under the same base shares every replication seed,
    # so more capacity can only shorten each replication's estimate here
    c = saa_evaluate(sc, [[6, 6, 6]], "P1", replications=4, base_spec=base)
    assert np.all(c.rep_means[:, 0, YELLOW] <= a.rep_means[:, 0, YELLOW])


def test_saa_half_width_matches_summarize():
    from ednetsim import summarize

    sc = single_ed_scenario(rates_yellow=(0.08, 0.08, 0.08))
    base = ReplicationSpec(horizon=15 * 1440.0, warmup=480.0, seed=3)
    s = saa_evaluate(sc, [[2, 2, 2]], "P1", replications=5, base_spec=base)
    ci = summarize(s.rep_means[:, 0, YELLOW])
    assert s.mean_nva[0, YELLOW] == pytest.approx(ci.mean)
    assert s.half_width[0, YELLOW] == pytest.approx(ci.half_width)
    assert s.nva_ci(0, YELLOW).n == 5


def test_saa_empty_tag_counts_as_zero():
    sc = single_ed_scenario(rates_yellow=(0.05, 0.05, 0.05))  # no red arrivals
    base = ReplicationSpec(horizon=5 * 1440.0, warmup=480.0, seed=1)
    s = saa_evaluate(sc, [[2, 2, 2]], "P1", replications=2, base_spec=base)
    assert np.all(s.rep_means[:, 0, RED] == 0.0)
    assert s.mean_nva[0, RED] == 0.0


def test_saa_single_replication_has_no_half_width():
    sc = single_ed_scenario()
    base = ReplicationSpec(horizon=5 * 1440.0, warmup=480.0, seed=1)
    s = saa_evaluate(sc, [[2, 2, 2]], "P1", replications=1, base_spec=base)
    assert np.isnan(s.half_width).all()
    with pytest.raises(ValueError):
        saa_evaluate(sc, [[2, 2, 2]], "P1", replications=0, base_spec=base)


def test_make_allocation_problem_round_trip():
    sc = asymmetric_pair_scenario()
    base = ReplicationSpec(horizon=10 * 1440.0, warmup=480.0, seed=50)
    evaluate, n_vars = make_allocation_problem(sc, "P2", replications=2, base_spec=base)
    assert n_vars == 6
    x = (1, 1, 1, 4, 4, 4)
    f, g = evaluate(x)
    summary = evaluate.summaries[x]
    assert f == summary.objective
    assert len(g) == 4  # 2 EDs x 2 tags
    assert np.all(np.asarray(g) >= 0.0)
    assert summary.plan.tolist() == [[1, 1, 1], [4, 4, 4]]
    with pytest.raises(ValueError):
        evaluate((1, 2, 3))
