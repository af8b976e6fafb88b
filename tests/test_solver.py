"""Integer pattern-search solver tests, including brute-force oracles."""

from itertools import product

import numpy as np
import pytest

from ednetsim import solver
from ednetsim.solver import (
    BoxedIntegerProblem,
    SolverState,
    discrete_linesearch,
    merit,
    solve,
)


def counting(fn):
    """Wrap an evaluate function with a call counter."""

    calls = []

    def wrapped(x):
        calls.append(tuple(x))
        return fn(x)

    wrapped.calls = calls
    return wrapped


def quadratic(x):
    return float(sum((v - 5) ** 2 for v in x)), ()


def linear_constrained(x):
    return float(sum(x)), [max(0.0, 6.0 - x[0])]


def test_merit_examples():
    assert merit(100.0, [0.0, 0.0], 1.0) == 100.0
    assert merit(100.0, [0.0, 0.0], 0.01) == 100.0
    assert merit(100.0, [2.0, 3.0], 0.1) == pytest.approx(150.0)
    assert merit(10.0, [1.0], 1.0) < merit(10.0, [1.0], 0.5)
    with pytest.raises(ValueError):
        merit(1.0, [0.0], 0.0)


def test_problem_validation():
    with pytest.raises(ValueError):
        BoxedIntegerProblem(2, 10, quadratic, start=[1, 5, 5], budget=10)
    with pytest.raises(ValueError):
        BoxedIntegerProblem(10, 2, quadratic, start=[5, 5, 5], budget=10)
    with pytest.raises(ValueError):
        BoxedIntegerProblem(2, 10, quadratic, start=[], budget=10)
    with pytest.raises(ValueError):
        BoxedIntegerProblem(2, 10, quadratic, start=5, budget=10)  # size comes from start
    with pytest.raises(TypeError):
        BoxedIntegerProblem([2, 3], [10, 12], quadratic, start=[5, 5], budget=10)  # scalars only
    prob = BoxedIntegerProblem(2, 10, quadratic, start=[5, 5], budget=10)
    assert np.array_equal(prob.clip([1, 20]), [2, 10])


def test_quadratic_18_vars_reaches_optimum():
    prob = BoxedIntegerProblem(2, 10, quadratic, start=[2] * 18, budget=700)
    res = solve(prob)
    assert res.x == (5,) * 18
    assert res.f == 0.0
    assert res.total_violation == 0.0
    assert res.evaluations <= 700
    assert res.converged


def test_constrained_linear_matches_brute_force():
    prob = BoxedIntegerProblem(2, 10, linear_constrained, start=[2, 2, 2], budget=100)
    res = solve(prob)
    assert res.x == (6, 2, 2)
    assert res.f == 10.0
    assert res.total_violation == 0.0


def exhaustive_best(fn, lower, upper, dim):
    best = None
    for x in product(range(lower, upper + 1), repeat=dim):
        f, g = fn(x)
        key = (float(np.sum(g)), f, x)
        if best is None or key < best:
            best = key
    return best[2], best[1], best[0]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_small_problems_match_exhaustive_enumeration(seed):
    # random separable-ish integer problems with one active constraint
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 5, size=3)
    c = rng.integers(2, 7, size=3)
    limit = int(rng.integers(8, 13))

    def fn(x):
        f = float(sum(int(ai) * (xi - int(ci)) ** 2 for ai, xi, ci in zip(a, x, c)))
        g = [max(0.0, float(limit - (x[0] + x[1])))]
        return f, g

    prob = BoxedIntegerProblem(2, 8, fn, start=[2, 2, 2], budget=600)
    res = solve(prob)
    x_best, f_best, g_best = exhaustive_best(fn, 2, 8, 3)
    assert (res.total_violation, res.f) == (g_best, f_best)
    assert res.x == x_best or fn(res.x) == fn(x_best)


def test_budget_zero_and_one_return_start():
    for budget in (0, 1):
        fn = counting(quadratic)
        prob = BoxedIntegerProblem(2, 10, fn, start=[3, 4, 5], budget=budget)
        res = solve(prob)
        assert res.x == (3, 4, 5)
        assert fn.calls == [(3, 4, 5)]
        assert res.evaluations == 1
        assert not res.converged


def test_budget_respected_and_cache_free():
    fn = counting(quadratic)
    prob = BoxedIntegerProblem(2, 10, fn, start=[2] * 6, budget=25)
    res = solve(prob)
    assert res.evaluations == 25
    assert len(fn.calls) == 25
    assert len(set(fn.calls)) == 25  # the cache prevents duplicate black-box calls


def test_determinism():
    prob1 = BoxedIntegerProblem(2, 10, quadratic, start=[2] * 5, budget=200)
    prob2 = BoxedIntegerProblem(2, 10, quadratic, start=[2] * 5, budget=200)
    r1, r2 = solve(prob1), solve(prob2)
    assert r1.x == r2.x and r1.evaluations == r2.evaluations and r1.sweeps == r2.sweeps


def test_incumbent_merit_nonincreasing_at_fixed_eps(monkeypatch):
    merits = []

    def watched(x, d, step, problem, state):
        result = discrete_linesearch(x, d, step, problem, state)
        merits.append((state.eps, state.incumbent_merit))
        return result

    monkeypatch.setattr(solver, "discrete_linesearch", watched)
    prob = BoxedIntegerProblem(2, 10, quadratic, start=[2] * 4, budget=300)
    solve(prob)
    assert merits
    for (eps_a, m_a), (eps_b, m_b) in zip(merits, merits[1:]):
        if eps_a == eps_b:
            assert m_b <= m_a + 1e-12


def test_linesearch_expands_and_clips():
    def fn(x):
        return float(-x[0]), ()  # larger is better, pushes to the upper bound

    prob = BoxedIntegerProblem(0, 9, fn, start=[0], budget=50)
    state = SolverState(eps=1.0, steps=np.array([1]))
    x_new, step = discrete_linesearch(np.array([0]), np.array([1]), 1, prob, state)
    # doubling: 1, 2, 4 then clipped at the bound
    assert x_new[0] == 9
    assert step >= 2


def test_linesearch_failure_keeps_step():
    prob = BoxedIntegerProblem(2, 10, quadratic, start=[5], budget=50)
    state = SolverState(eps=1.0, steps=np.array([4]))
    x_new, step = discrete_linesearch(np.array([5]), np.array([1]), 4, prob, state)
    assert x_new[0] == 5 and step == 4
    # clipped-to-same-point probes are skipped without consuming budget
    state2 = SolverState(eps=1.0, steps=np.array([1]))
    evals_before = state2.evaluations
    x_new, _ = discrete_linesearch(np.array([10]), np.array([1]), 1, prob, state2)
    assert x_new[0] == 10
    assert state2.evaluations == evals_before + 1  # only the base point


def test_lexicographic_reporting_prefers_feasible():
    # infeasible points have much smaller f; the solver must still report
    # the best feasible point it evaluated
    def fn(x):
        f = float(x[0])
        g = [max(0.0, 5.0 - x[0])]
        return f, g

    prob = BoxedIntegerProblem(2, 10, fn, start=[2], budget=50)
    res = solve(prob)
    assert res.total_violation == 0.0
    assert res.x == (5,)
    assert res.f == 5.0


def test_negative_violation_rejected():
    def fn(x):
        return 0.0, [-1.0]

    prob = BoxedIntegerProblem(2, 10, fn, start=[5], budget=10)
    with pytest.raises(ValueError):
        solve(prob)


def test_evaluations_within_budget_on_constrained_problem():
    fn = counting(linear_constrained)
    prob = BoxedIntegerProblem(2, 10, fn, start=[2, 2, 2], budget=12)
    res = solve(prob)
    assert res.evaluations <= 12
    assert len(fn.calls) == res.evaluations
