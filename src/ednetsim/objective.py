"""Cost function and constraints for sizing the network's resources.

The decision variable is an integer matrix of sanitary-resource counts,
one row per ED and one column per daily slot.  The cost adds the staffed
resource-minutes to penalty-weighted mean non-value-added (NVA) times;
service-quality constraints cap the mean NVA time per ED at 40 minutes
for yellow patients and 20 for red ones.  All NVA terms are estimated by
averaging independent simulation replications that share seeds across
candidate plans (common random numbers).
"""

from dataclasses import dataclass, replace

import numpy as np

from .distributions import SLOT_MINUTES, SLOTS_PER_DAY, MeanCI, summarize
from .network import RED, YELLOW, PolicySpec
from .simulate import check_plan, replicate


@dataclass(frozen=True)
class ObjectiveSpec:
    """Weights and thresholds of the allocation problem.

    weights: (resource-minutes, yellow NVA, red NVA) cost coefficients.
    nva_limits: mean-NVA caps in minutes, (yellow, red), per ED.
    """

    weights: tuple = (1.0, 300.0, 600.0)
    nva_limits: tuple = (40.0, 20.0)

    def __post_init__(self):
        if len(self.weights) != 3:
            raise ValueError("expected three cost weights")
        if len(self.nva_limits) != 2:
            raise ValueError("expected NVA limits for (yellow, red)")


def objective_value(plan, mean_nva, spec):
    """Weighted cost of a plan given per-(ED, tag) mean NVA minutes."""
    mean_nva = np.asarray(mean_nva, dtype=float)
    w_res, w_yellow, w_red = spec.weights
    return (
        w_res * SLOT_MINUTES * np.sum(plan)
        + w_yellow * mean_nva[:, YELLOW].sum()
        + w_red * mean_nva[:, RED].sum()
    )


def constraint_violations(mean_nva, spec):
    """Per-(ED, tag) excess of mean NVA over its cap; zero when satisfied."""
    mean_nva = np.asarray(mean_nva, dtype=float)
    limits = np.array([spec.nva_limits[0], spec.nva_limits[1]], dtype=float)
    return np.maximum(0.0, mean_nva - limits)


@dataclass
class SimSummary:
    """Sample-average estimate of one plan under one policy."""

    plan: np.ndarray               # (n_eds, slots) int resource counts
    replications: int
    rep_means: np.ndarray          # (R, n_eds, 2) per-replication mean NVA
    mean_nva: np.ndarray           # (n_eds, 2) averaged over replications
    half_width: np.ndarray         # (n_eds, 2) 95% CI half-widths (NaN when R < 2)
    objective: float
    violations: np.ndarray         # (n_eds, 2)
    redirects: np.ndarray          # (n_eds,) mean diverted patients per replication

    @property
    def total_violation(self):
        return float(self.violations.sum())

    def nva_ci(self, ed, tag):
        return MeanCI(
            mean=float(self.mean_nva[ed, tag]),
            half_width=float(self.half_width[ed, tag]),
            n=self.replications,
        )


def saa_evaluate(scenario, plan, policy, replications, ed_memo=None):
    """Estimate cost and constraints of a plan by averaging replications.

    The replications come from `replicate`, so two plans evaluated on the
    same scenario share every random stream.  Cost weights and NVA caps
    are scenario.objective_spec.

    ed_memo: P1 only.  A dict from (ED index, plan row) to that ED's
        per-replication mean NVA, shape (replications, 2), shared by the
        evaluations of one scenario and replication count.  Under P1 an
        ED's estimate depends on its own row alone, so rows missing from
        the memo are simulated one ED at a time and added, and the others
        are not simulated again.
    """
    policy = PolicySpec.coerce(policy)
    if ed_memo is not None and policy.id != "P1":
        raise ValueError(f"per-ED memoization needs policy P1, got {policy.id}")
    n = scenario.n_eds
    plan = check_plan(plan, n, scenario.plan_bounds)

    # replicate rejects a bad replication count before anything is sized by it
    if ed_memo is None:
        runs = replicate(scenario, plan, policy, replications)
        rep_means = np.zeros((replications, n, 2))
        redirects = np.zeros((replications, n))
        for k, out in enumerate(runs):
            for i in range(n):
                rep_means[k, i, YELLOW] = out.mean_nva(i, YELLOW)
                rep_means[k, i, RED] = out.mean_nva(i, RED)
            redirects[k] = out.redirects_out
    else:
        keys = [(i, tuple(plan[i].tolist())) for i in range(n)]
        for i, key in enumerate(keys):
            if key not in ed_memo:
                ed_memo[key] = _solo_rep_means(scenario, plan, policy, replications, i)
        rep_means = np.stack([ed_memo[key] for key in keys], axis=1)
        redirects = np.zeros((replications, n))  # nobody is redirected under P1

    mean_nva = rep_means.mean(axis=0)
    half_width = np.full((n, 2), np.nan)
    if replications >= 2:
        for i in range(n):
            for tag in (YELLOW, RED):
                half_width[i, tag] = summarize(rep_means[:, i, tag]).half_width

    return SimSummary(
        plan=plan,
        replications=replications,
        rep_means=rep_means,
        mean_nva=mean_nva,
        half_width=half_width,
        objective=objective_value(plan, mean_nva, scenario.objective_spec),
        violations=constraint_violations(mean_nva, scenario.objective_spec),
        redirects=redirects.mean(axis=0),
    )


def _solo_rep_means(scenario, plan, policy, replications, ed):
    """Per-replication mean NVA of one ED with every other ED's arrivals removed.

    Streams stay keyed by the ED's own index, so under P1 the result is
    bit-identical to that ED's share of a whole-network run (unlike
    Scenario.isolate, which moves the ED to index 0).
    """
    solo = replace(
        scenario,
        arrivals=[a if j == ed else (None, None) for j, a in enumerate(scenario.arrivals)],
    )
    return np.array(
        [
            (out.mean_nva(ed, YELLOW), out.mean_nva(ed, RED))
            for out in replicate(solo, plan, policy, replications)
        ]
    )


def make_allocation_problem(scenario, policy, replications):
    """Adapt the SAA estimate to the integer solver's calling convention.

    Returns evaluate, which maps a flat integer vector (the plan's rows in
    order) to (objective, per-(ED, tag) violation vector).  The SimSummary of
    each evaluated point is kept on evaluate.summaries for reporting.
    Under P1 the evaluations share one per-ED memo (see saa_evaluate), so
    each (ED, plan row) is simulated once per problem.
    """
    summaries = {}
    ed_memo = {} if PolicySpec.coerce(policy).id == "P1" else None

    def evaluate(x):
        plan = np.reshape(x, (-1, SLOTS_PER_DAY))  # check_plan checks the ED count
        summary = saa_evaluate(
            scenario, plan, policy, replications=replications, ed_memo=ed_memo
        )
        summaries[tuple(x)] = summary
        return summary.objective, summary.violations.reshape(-1)

    evaluate.summaries = summaries
    return evaluate
