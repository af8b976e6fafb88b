"""Derivative-free solver for box-constrained integer problems.

Minimizes a black-box objective over integer vectors in a box, subject
to inequality constraints supplied as non-negative violation values.
Constraints are handled by a sequential penalty: the solver sweeps
discrete coordinate line searches on the merit function

    merit(x) = f(x) + (1/eps) * sum(g(x))

halving its step sizes when a sweep fails and tightening eps once the
steps bottom out at 1.  Every evaluated point is cached, so re-probing a
known point consumes none of the evaluation budget.  The reported
solution is the best evaluated point by lexicographic order, feasibility
first: (sum of violations, objective).
"""

from dataclasses import dataclass, field

import numpy as np

EPS0 = 1.0          # initial penalty parameter
EPS_FACTOR = 0.1    # eps multiplier when the steps bottom out
INITIAL_STEP = 2    # starting step size of every coordinate
XI_REL = 1e-6       # sufficient decrease, relative to 1 + |merit|


class BudgetExhausted(Exception):
    """Raised internally when a new evaluation would exceed the budget."""


def _int_vector(value, size, name):
    arr = np.asarray(value)
    if arr.ndim == 0:
        arr = np.full(size, arr)
    arr = np.asarray(arr, dtype=int)
    if arr.shape != (size,):
        raise ValueError(f"{name} must be a scalar or a vector of length {size}")
    return arr


@dataclass
class BoxedIntegerProblem:
    """An integer black-box minimization over a box.

    evaluate(x) takes an integer tuple and returns (f, g) where g is a
    vector of non-negative constraint violations (empty or all-zero for
    an unconstrained problem).  The number of variables is len(start);
    lower and upper are scalars or vectors of that length.
    """

    lower: np.ndarray
    upper: np.ndarray
    evaluate: callable
    start: np.ndarray
    budget: int

    def __post_init__(self):
        self.start = np.asarray(self.start, dtype=int)
        if self.start.ndim != 1 or len(self.start) < 1:
            raise ValueError("start must be a non-empty vector")
        self.lower = _int_vector(self.lower, len(self.start), "lower")
        self.upper = _int_vector(self.upper, len(self.start), "upper")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bounds exceed upper bounds")
        if np.any(self.start < self.lower) or np.any(self.start > self.upper):
            raise ValueError("start point lies outside the box")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")

    def clip(self, x):
        return np.minimum(np.maximum(x, self.lower), self.upper)


def merit(f, g, eps):
    """Penalty merit value f + (1/eps) * sum(g)."""
    if eps <= 0.0:
        raise ValueError("penalty parameter must be positive")
    return float(f) + float(np.sum(g)) / eps


@dataclass
class SolverState:
    """Mutable search state shared by the sweep loop and line searches."""

    eps: float
    steps: np.ndarray                  # per-coordinate positive integer steps
    incumbent: tuple = None            # point as an int tuple
    incumbent_merit: float = np.inf
    evaluations: int = 0
    cache: dict = field(default_factory=dict)

    def merit_of(self, point):
        f, g = self.cache[point]
        return merit(f, g, self.eps)

    def rescore_incumbent(self):
        """Re-select the incumbent as the cached merit argmin (after eps changes)."""
        best = min(self.cache, key=self.merit_of)
        self.set_incumbent(best)

    def set_incumbent(self, point):
        self.incumbent = point
        self.incumbent_merit = self.merit_of(point)


def _evaluate(problem, state, point):
    """Cached, budget-counted call of the black box; updates the incumbent."""
    key = tuple(int(v) for v in point)
    if key in state.cache:
        f, g = state.cache[key]
    else:
        if state.evaluations >= max(problem.budget, 1):
            raise BudgetExhausted
        f, g = problem.evaluate(key)
        g = tuple(float(v) for v in np.atleast_1d(np.asarray(g, dtype=float)))
        if any(v < 0.0 for v in g):
            raise ValueError(f"negative constraint violation returned at {key}: {g}")
        f = float(f)
        state.cache[key] = (f, g)
        state.evaluations += 1
    m = merit(f, g, state.eps)
    if m < state.incumbent_merit:
        state.set_incumbent(key)
    return f, g, m


def discrete_linesearch(x, d, step, problem, state):
    """Probe x + step*d (clipped); expand the step by doubling on success.

    d is a signed unit coordinate direction.  A probe succeeds when its
    merit beats the current one by at least xi = XI_REL*(1 + |merit|).
    Returns (x', step'): the point reached (x unchanged on failure) and
    the last successful step (step unchanged on failure).
    """
    x = np.asarray(x, dtype=int)
    d = np.asarray(d, dtype=int)
    best = x
    _, _, best_merit = _evaluate(problem, state, x)
    accepted_step = None
    trial_step = int(step)
    while True:
        trial = problem.clip(best + trial_step * d)
        if np.array_equal(trial, best):
            break
        _, _, m = _evaluate(problem, state, trial)
        xi = XI_REL * (1.0 + abs(best_merit))
        if m <= best_merit - xi:
            best = trial
            best_merit = m
            accepted_step = trial_step
            trial_step *= 2
        else:
            break
    if accepted_step is None:
        return x, int(step)
    return best, accepted_step


@dataclass
class SolveResult:
    """Best evaluated point, feasibility first."""

    x: tuple
    f: float
    g: tuple
    evaluations: int
    sweeps: int
    converged: bool              # True: penalty schedule stalled; False: budget

    @property
    def total_violation(self):
        return float(np.sum(self.g))


def solve(problem):
    """Run penalty-tightening coordinate sweeps over the problem's box.

    Sweeps visit coordinates in ascending index order, trying the +
    direction before -.  A sweep without any successful line search
    halves every step size (minimum 1); once all steps are 1, a failed
    sweep tightens the penalty (eps *= EPS_FACTOR) instead, and the
    search stops when that tightening no longer moves the incumbent.
    The evaluation budget caps black-box calls; the initial evaluation
    of the start point always runs.
    """
    n = len(problem.start)
    state = SolverState(eps=EPS0, steps=np.full(n, INITIAL_STEP, dtype=int))
    sweeps = 0
    converged = False
    try:
        _evaluate(problem, state, problem.start)
        while True:
            sweeps += 1
            any_success = False
            for coord in range(n):
                direction = np.zeros(n, dtype=int)
                for sign in (1, -1):
                    direction[coord] = sign
                    x_before = np.asarray(state.incumbent, dtype=int)
                    x_new, step_new = discrete_linesearch(
                        x_before, direction, state.steps[coord], problem, state
                    )
                    if not np.array_equal(x_new, x_before):
                        state.steps[coord] = step_new
                        any_success = True
                        break
            if not any_success:
                if np.all(state.steps == 1):
                    previous = state.incumbent
                    state.eps *= EPS_FACTOR
                    state.rescore_incumbent()
                    if state.incumbent == previous:
                        converged = True
                        break
                else:
                    state.steps = np.maximum(state.steps // 2, 1)
    except BudgetExhausted:
        pass

    best = min(
        state.cache,
        key=lambda point: (float(np.sum(state.cache[point][1])), state.cache[point][0]),
    )
    f_best, g_best = state.cache[best]
    return SolveResult(
        x=best,
        f=f_best,
        g=g_best,
        evaluations=state.evaluations,
        sweeps=sweeps,
        converged=converged,
    )
