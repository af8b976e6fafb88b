"""Capacity calibration against observed mean waiting times.

Each ED is calibrated alone (no diversion can move patients before the
network is coupled), on its own random streams, exactly as P1 runs it:
an exhaustive search over the capacity triples (slot1, slot2, slot3)
picks the one whose simulated mean waits, averaged over replications,
are closest in L1 distance to the supplied real waits.  Ties favour
fewer total resources, then lexicographic order.
"""

from itertools import product

import numpy as np

from .distributions import SLOTS_PER_DAY
from .network import PolicySpec
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


def simulated_waits(scenario, capacities, replications, ed):
    """Replication-averaged 3x2 (slot, tag) mean waits of one ED working alone.

    Every row of the plan is the capacity triple, but under P1 only row `ed`
    is staffed; the runs are the ones P1 evaluations of that row share.
    """
    plan = np.tile(capacities, (scenario.n_eds, 1))
    _, waits = replicate_alone(scenario, plan, PolicySpec("P1"), replications, ed)
    return sum(waits, np.zeros((SLOTS_PER_DAY, 2))) / replications


def calibrate_ed(scenario, ed, real, replications):
    """Fit one ED's slot capacities to its real waits, trying every triple in plan_bounds.

    ed: the ED's index in the scenario; it is simulated alone (see
        simulated_waits).
    real: 3x2 (slot, tag) observed mean waits in minutes.
    Returns (capacities, error): the best triple and its L1 error.
    """
    real = np.asarray(real, dtype=float)
    if real.shape != (SLOTS_PER_DAY, 2):
        raise ValueError(f"real wait table must be {SLOTS_PER_DAY}x2, got {real.shape}")
    if (real < 0).any():
        raise ValueError("real waits must be non-negative")
    lo, hi = scenario.plan_bounds
    err, _, triple = min(
        (l1_error(simulated_waits(scenario, t, replications, ed), real), sum(t), t)
        for t in product(range(lo, hi + 1), repeat=SLOTS_PER_DAY)
    )
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
