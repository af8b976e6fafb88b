"""Capacity calibration against observed mean waiting times.

Each ED is calibrated alone (no diversion can move patients before the
network is coupled), on its own random streams, exactly as P1 runs it:
the capacity triple (slot1, slot2, slot3) whose simulated mean waits,
averaged over replications, are closest in L1 distance to the supplied
real waits wins.  Ties favour fewer total resources, then lexicographic
order.  A triple stops replicating once its partial waits prove that its
error exceeds the best found so far (see simulated_waits), so it could
not win and the result is the exhaustive search's.  That proof needs
every simulated wait cell to be >= 0, which censored waits must keep.
Triples nearest the ED's offered load run first, where good staffing
sits, so a low error stops the rest sooner; every order gives one result.
"""

import math
from itertools import product

import numpy as np

from .distributions import SLOTS_PER_DAY
from .simulate import replicate_alone


def l1_error(sim, real):
    """Sum of absolute per-(slot, tag) differences between two wait tables."""
    sim = np.asarray(sim, dtype=float)
    real = np.asarray(real, dtype=float)
    if sim.shape != (SLOTS_PER_DAY, 2) or real.shape != (SLOTS_PER_DAY, 2):
        raise ValueError(
            f"wait tables must be {SLOTS_PER_DAY}x2 (slot x tag), got "
            f"{sim.shape} and {real.shape}"
        )
    return float(np.abs(sim - real).sum())


def simulated_waits(scenario, capacities, replications, ed, bound=None):
    """Replication-averaged 3x2 (slot, tag) mean waits of one ED working alone.

    Every row of the plan is the capacity triple, but under P1 only row `ed`
    is staffed; the runs are the ones P1 evaluations of that row share.

    bound: optional (real, best).  The replications are then added one at a
    time, and the call returns None as soon as their partial sum S_k proves
    that the L1 error to `real` exceeds best.  Every wait cell is >= 0, so
    sum over cells of max(0, S_k / R - real) is at most the final error;
    it takes the same sums, division and 3x2 reduction as the error, and
    rounding is monotone, so it stays at most the error in floating point.
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    plan = np.tile(capacities, (scenario.n_eds, 1))
    total = np.zeros((SLOTS_PER_DAY, 2))
    for k in range(1, replications + 1):
        total = total + replicate_alone(scenario, plan, k, ed)[1][-1]
        if bound is not None and np.maximum(total / replications - bound[0], 0.0).sum() > bound[1]:
            return None
    return total / replications


def calibrate_ed(scenario, ed, real, replications):
    """Fit one ED's slot capacities to its real waits over the triples in plan_bounds.

    ed: the ED's index in the scenario; it is simulated alone (see
        simulated_waits).
    real: 3x2 (slot, tag) observed mean waits in minutes.
    Returns (capacities, error): the best triple and its L1 error.  Triples
    run in order of L1 distance from the ceiling of the ED's offered load
    per slot (arrival rate times mean visit time, summed over tags), ties
    in reverse product order.
    """
    real = np.asarray(real, dtype=float)
    if real.shape != (SLOTS_PER_DAY, 2):
        raise ValueError(f"real wait table must be {SLOTS_PER_DAY}x2, got {real.shape}")
    if not (np.isfinite(real) & (real >= 0)).all():
        raise ValueError("real waits must be finite and non-negative")
    if not 0 <= ed < scenario.n_eds:
        raise ValueError(f"ED index {ed} out of range [0, {scenario.n_eds})")
    load = [0.0] * SLOTS_PER_DAY
    for process, los in zip(scenario.arrivals[ed], scenario.los[ed]):
        if process is not None:
            load = [x + r * d.mean if r else x for x, r, d in zip(load, process.slot_rates, los)]
    lo, hi = scenario.plan_bounds
    # a centre past hi gives the order that hi gives; so does an overflowing mean
    centre = [math.ceil(min(x, hi)) for x in load]
    best = math.inf, 0, None
    grid = product(range(hi, lo - 1, -1), repeat=SLOTS_PER_DAY)
    for t in sorted(grid, key=lambda t: sum(abs(c - x) for c, x in zip(t, centre))):
        waits = simulated_waits(scenario, t, replications, ed, (real, best[0]))
        if waits is not None:
            best = min(best, (l1_error(waits, real), sum(t), t))
    err, _, triple = best
    return triple, err


def calibrate_network(scenario, replications):
    """Calibrate every ED of a scenario independently.

    Requires scenario.real_waits.  Returns (plan, errors): an (n_eds, 3)
    integer capacity array and the per-ED L1 errors.
    """
    if scenario.real_waits is None:
        raise ValueError("scenario provides no real waiting times to calibrate against")
    n = scenario.n_eds
    plan = np.zeros((n, SLOTS_PER_DAY), dtype=int)
    errors = np.zeros(n)
    for i in range(n):
        plan[i], errors[i] = calibrate_ed(scenario, i, scenario.real_waits[i], replications)
    return plan, errors
