"""Scenario builders shared across the test suite."""

from dataclasses import replace

import numpy as np

from ednetsim import RandomStreams, ReplicationSpec, run_replication, scenario_from_dict
from ednetsim.simulate import Timeline


def exp_los(mean):
    return {"family": "exponential", "mean": mean}


def single_ed_scenario(
    rates_yellow=(0.1, 0.1, 0.1),
    rates_red=None,
    los_mean=30.0,
    plan_bounds=(1, 20),
    extra=None,
):
    """A network of one ED with exponential visit times."""
    ed = {"name": "A", "arrivals": {}, "los": {"yellow": exp_los(los_mean), "red": exp_los(los_mean)}}
    if rates_yellow is not None:
        ed["arrivals"]["yellow"] = {"rates": list(rates_yellow)}
    if rates_red is not None:
        ed["arrivals"]["red"] = {"rates": list(rates_red)}
    data = {"eds": [ed], "plan_bounds": list(plan_bounds)}
    if extra:
        data.update(extra)
    return scenario_from_dict(data)


def network_scenario(
    n=3,
    rates_yellow=(0.05, 0.05, 0.05),
    rates_red=(0.01, 0.01, 0.01),
    los_mean=60.0,
    policy="P1",
    transfer=None,
    plan_bounds=(1, 20),
    extra=None,
):
    """A small symmetric network; transfer times default to 10+5|i-j| minutes."""
    eds = []
    for i in range(n):
        eds.append(
            {
                "name": f"ED{i + 1}",
                "arrivals": {
                    "yellow": {"rates": list(rates_yellow)},
                    "red": {"rates": list(rates_red)},
                },
                "los": {"yellow": exp_los(los_mean), "red": exp_los(los_mean)},
            }
        )
    if transfer is None:
        transfer = [
            [0.0 if i == j else 10.0 + 5.0 * abs(i - j) for j in range(n)]
            for i in range(n)
        ]
    data = {
        "eds": eds,
        "transfer_minutes": transfer,
        "policy": policy,
        "plan_bounds": list(plan_bounds),
    }
    if extra:
        data.update(extra)
    return scenario_from_dict(data)


def with_replication(scenario, spec):
    """The scenario with `spec` (horizon, warm-up, seed) as its replication block."""
    return replace(scenario, replication=spec)


def plan_for(scenario, value):
    """Constant capacity plan of one value everywhere."""
    return np.full((scenario.n_eds, 3), int(value), dtype=int)


def asymmetric_pair_scenario(transfer=12.0):
    """An overloaded ED next to a mostly idle one; diversion fires often.

    Meant to run with plan [[1,1,1],[4,4,4]].
    """
    return scenario_from_dict(
        {
            "eds": [
                {
                    "name": "busy",
                    "arrivals": {"yellow": {"rates": [0.2, 0.2, 0.2]}},
                    "los": {"yellow": exp_los(60.0), "red": exp_los(60.0)},
                },
                {
                    "name": "idle",
                    "arrivals": {"yellow": {"rates": [0.002, 0.002, 0.002]}},
                    "los": {"yellow": exp_los(60.0), "red": exp_los(60.0)},
                },
            ],
            "transfer_minutes": [[0.0, transfer], [transfer, 0.0]],
            "plan_bounds": [1, 20],
        }
    )


def planted_network(arrivals, n=1, visit=30.0, horizon=1440.0):
    """(scenario, spec) of an n-ED network, its arrival timeline planted.

    arrivals: (time, ED, tag) triples, kept in the given order.  Every visit
    takes exactly `visit` minutes, a transfer from ED i to ED j 10 + 5|i - j|
    minutes, the run `horizon` minutes (one day by default), and nothing is
    warm-up.
    """
    fixed = {"family": "empirical", "values": [visit]}
    sc = scenario_from_dict(
        {
            "eds": [{"name": "ABCDEF"[i], "los": {"yellow": fixed, "red": fixed}} for i in range(n)],
            "transfer_minutes": [
                [0.0 if i == j else 10.0 + 5.0 * abs(i - j) for j in range(n)] for i in range(n)
            ],
            "plan_bounds": [1, 6],
        }
    )
    spec = ReplicationSpec(horizon=horizon, warmup=0.0, seed=1)
    times, eds, tags = np.array(arrivals, dtype=float).reshape(-1, 3).T
    eds, tags = eds.astype(int), tags.astype(int)
    timeline = Timeline(times.copy(), eds, tags, sc, RandomStreams(spec.seed))
    sc.timelines[spec.horizon, spec.seed] = timeline
    return sc, spec


def planted_ed(arrivals):
    """(scenario, spec) of one day of a single ED; arrivals are (time, tag) pairs."""
    return planted_network([(t, 0, tag) for t, tag in arrivals])


def one_ed_run(arrivals, capacities):
    """One day of a single ED under P1 on a hand-made arrival timeline.

    arrivals: (time, tag) pairs sorted by time; capacities: the ED's plan
    row.  Each patient's record shows when the queue rules let their
    service start.
    """
    sc, spec = planted_ed(arrivals)
    out = run_replication(sc, np.array([capacities]), "P1", spec, record_patients=True)
    assert out.created == len(arrivals) == out.discharged
    return out


def starts(out):
    """(tag, triage time, service start) of each visit, in completion order."""
    return [(p.tag, p.t_triage, p.t_service_start) for p in out.patients]
