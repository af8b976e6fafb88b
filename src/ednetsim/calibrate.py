"""Capacity calibration against observed mean waiting times.

Each ED is calibrated in isolation (no diversion can move patients
before the network is coupled): an exhaustive search over the capacity
triples (slot1, slot2, slot3) picks the one whose simulated mean waits,
averaged over replications, are closest in L1 distance to the supplied
real waits.  Ties favour fewer total resources, then lexicographic
order.
"""

from itertools import product

import numpy as np

from .distributions import SLOTS_PER_DAY
from .simulate import replicate


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


def simulated_waits(scenario, capacities, replications):
    """Replication-averaged 3x2 (slot, tag) mean waits of a single-ED scenario."""
    if scenario.n_eds != 1:
        raise ValueError("simulated_waits expects a single-ED scenario")
    plan = np.array([capacities])
    total = np.zeros((SLOTS_PER_DAY, 2))
    for out in replicate(scenario, plan, "P1", replications):
        total += out.slot_tag_waits(0)
    return total / replications


def calibrate_ed(scenario, real, replications, bounds=None):
    """Exhaustively fit one ED's three slot capacities to its real waits.

    scenario: a single-ED scenario (see Scenario.isolate).
    real: 3x2 (slot, tag) observed mean waits in minutes.
    bounds: capacity range (low, high) within plan_bounds, default plan_bounds.
    Returns (capacities, error): the best triple and its L1 error.
    """
    if scenario.n_eds != 1:
        raise ValueError(
            f"calibration runs on one ED at a time, scenario has {scenario.n_eds}"
        )
    real = np.asarray(real, dtype=float)
    if real.shape != (SLOTS_PER_DAY, 2):
        raise ValueError(f"real wait table must be {SLOTS_PER_DAY}x2, got {real.shape}")
    if (real < 0).any():
        raise ValueError("real waits must be non-negative")
    plan_lo, plan_hi = scenario.plan_bounds
    lo, hi = scenario.plan_bounds if bounds is None else (int(bounds[0]), int(bounds[1]))
    if not plan_lo <= lo <= hi <= plan_hi:
        raise ValueError(
            f"capacity bounds [{lo}, {hi}] must be a range within "
            f"plan_bounds [{plan_lo}, {plan_hi}]"
        )

    best = None
    for triple in product(range(lo, hi + 1), repeat=SLOTS_PER_DAY):
        waits = simulated_waits(scenario, triple, replications)
        err = l1_error(waits, real)
        key = (err, sum(triple), triple)
        if best is None or key < best:
            best = key
    return best[2], best[0]


def calibrate_network(scenario, replications, bounds=None):
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
        single = scenario.isolate(i)
        triple, err = calibrate_ed(single, scenario.real_waits[i], replications, bounds)
        plan[i] = triple
        errors[i] = err
    return plan, errors
