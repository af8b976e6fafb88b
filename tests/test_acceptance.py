"""End-to-end acceptance checks.

One test per acceptance criterion, ordered roughly by runtime; each
prints a single [PASS]/[FAIL] line naming what it verified (visible
with `pytest -s` or on failure).  The last two share one optimization of
the bundled six-ED scenario under all four diversion policies, a
module-scoped fixture and the slowest item of the whole suite: the first
checks the ordering of the optima in sample, the second on fresh seeds.
"""

import copy
import math
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from ednetsim import (
    ArrivalProcess,
    BoxedIntegerProblem,
    ObjectiveSpec,
    PolicySpec,
    RandomStreams,
    ReplicationSpec,
    calibrate_ed,
    constraint_violations,
    objective_value,
    parse_scenario,
    run_replication,
    saa_evaluate,
    scenario_from_dict,
    solve,
)
from ednetsim.calibrate import simulated_waits
from ednetsim.cli import cmd_optimize, cmd_report, cmd_simulate
from ednetsim.distributions import rate_from_annual_count, summarize
from ednetsim.network import POLICY_IDS, RED, YELLOW

from util import single_ed_scenario, with_replication

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "lazio_synthetic.yaml"

# published starting point: slot capacities and mean NVA minutes
# (yellow row, red row) per ED under each diversion policy
START_PLAN = [
    [4, 4, 4],
    [4, 5, 4],
    [4, 4, 3],
    [4, 5, 2],
    [4, 5, 3],
    [3, 2, 2],
]
NVA_START = {
    "P1": (
        [15.89, 25.77, 5.96, 50.28, 54.63, 12.51],
        [6.78, 11.18, 3.94, 24.40, 23.70, 7.10],
    ),
    "P2": (
        [8.55, 2.05, 2.10, 34.13, 37.20, 12.98],
        [4.86, 1.72, 1.53, 20.19, 17.85, 7.47],
    ),
    "P3": (
        [12.78, 6.89, 5.06, 43.43, 46.48, 9.05],
        [4.19, 0.74, 1.98, 15.83, 14.22, 4.66],
    ),
    "P4": (
        [2.98, 2.65, 1.32, 5.10, 5.27, 2.33],
        [2.70, 2.43, 1.21, 4.46, 4.37, 2.08],
    ),
}
F_START = {"P1": 127454.63, "P2": 92956.13, "P3": 93758.85, "P4": 47926.04}


def _criterion(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _nva_matrix(policy):
    yellow, red = NVA_START[policy]
    return np.column_stack([yellow, red])


def test_objective_arithmetic_at_starting_point():
    plan = np.array(START_PLAN)
    assert plan.sum() == 66
    worst = ("", 0.0)
    for policy, tolerance in (("P1", 1e-3), ("P2", 5e-3), ("P3", 5e-3), ("P4", 5e-3)):
        f = objective_value(plan, _nva_matrix(policy), ObjectiveSpec())
        rel = abs(f - F_START[policy]) / F_START[policy]
        if rel > worst[1]:
            worst = (f"{policy} {f:.2f} vs {F_START[policy]:.2f}", rel)
        assert rel <= tolerance, f"{policy}: {f:.2f} vs {F_START[policy]:.2f} (rel {rel:.2%})"
    _criterion(
        "objective arithmetic at the published starting point",
        True,
        f"all four policies within tolerance; worst {worst[0]} (rel {worst[1]:.4%})",
    )


def test_constraint_violations_at_starting_point():
    g = constraint_violations(_nva_matrix("P1"), ObjectiveSpec())
    expected = np.zeros((6, 2))
    expected[3] = [10.28, 4.40]
    expected[4] = [14.63, 3.70]
    exact = np.allclose(g, expected, atol=1e-9)
    others_zero = np.all(g[[0, 1, 2, 5]] == 0.0)
    _criterion(
        "constraint evaluator on the published starting point",
        exact and others_zero,
        f"ED4 {g[3].round(2).tolist()}, ED5 {g[4].round(2).tolist()}, others all zero",
    )


def test_arrival_counts_follow_daily_profile():
    counts = [875.0, 2688.0, 2279.0]
    process = ArrivalProcess([rate_from_annual_count(c) for c in counts])
    days = 1000
    rng = RandomStreams(13).get(0, "arrival-yellow")
    times = np.asarray(process.arrival_times(days * 1440.0, rng))
    slots = (times % 1440.0) // 480.0
    observed = np.array([np.sum(slots == s) for s in range(3)], dtype=float)
    expected = np.asarray(process.slot_rates) * 480.0 * days
    rel = np.abs(observed - expected) / expected
    _criterion(
        "non-homogeneous arrival counts per slot",
        bool(np.all(rel <= 0.02)),
        f"observed {observed.astype(int).tolist()} vs expected {expected.round(1).tolist()} "
        f"(max deviation {rel.max():.2%}, cap 2%)",
    )


def test_solver_against_analytic_and_brute_force():
    def quad(x):
        return float(sum((v - 5) ** 2 for v in x)), (0.0,)

    problem = BoxedIntegerProblem(
        lower=2, upper=10, evaluate=quad, start=[2, 10] * 9, budget=700
    )
    result = solve(problem)
    quad_ok = result.x == (5,) * 18 and result.f == 0.0 and result.evaluations <= 700

    # separable integer quadratics with one or two active coordinate bounds
    # as penalty constraints; enumeration over the box is the oracle
    brute_ok = True
    trials = 12
    for seed in range(trials):
        dim = 3 if seed % 2 == 0 else 4
        rng = np.random.default_rng(seed)
        weights = rng.integers(1, 5, size=dim)
        anchor = rng.integers(2, 7, size=dim)
        j = int(rng.integers(0, dim))
        limit_j = min(8, int(anchor[j]) + int(rng.integers(1, 4)))
        k = int(rng.integers(0, dim))
        limit_k = min(8, int(anchor[k]) + 1)

        def evaluate(x, w=weights, c=anchor, j=j, k=k, lj=limit_j, lk=limit_k):
            f = float(sum(int(wi) * (xi - int(ci)) ** 2 for wi, xi, ci in zip(w, x, c)))
            return f, (max(0.0, float(lj - x[j])), max(0.0, float(lk - x[k])))

        small = BoxedIntegerProblem(
            lower=2, upper=8, evaluate=evaluate, start=[2] * dim, budget=700
        )
        res = solve(small)
        best = min(
            (float(np.sum(evaluate(x)[1])), evaluate(x)[0])
            for x in product(range(2, 9), repeat=dim)
        )
        got = (res.total_violation, res.f)
        brute_ok = brute_ok and got == pytest.approx(best, abs=1e-12)

    _criterion(
        "integer solver vs analytic optimum and enumeration",
        quad_ok and brute_ok,
        f"18-var quadratic solved in {result.evaluations} evaluations (f*={result.f}); "
        f"{trials} constrained problems match exhaustive enumeration",
    )


def _erlang_c(offered, servers):
    """Probability that an arrival waits in an M/M/c queue under `offered` load."""
    below = sum(offered**k / math.factorial(k) for k in range(servers))
    tail = offered**servers / (math.factorial(servers) * (1.0 - offered / servers))
    return tail / (below + tail)


def test_queueing_core_against_erlang_c():
    arrival_rate, mean_los, servers = 0.1, 30.0, 4
    offered = arrival_rate * mean_los
    rho = offered / servers
    exact = _erlang_c(offered, servers) * mean_los / (servers * (1.0 - rho))
    assert exact == pytest.approx(15.28, abs=0.01)

    scenario = single_ed_scenario(rates_yellow=(arrival_rate,) * 3, los_mean=mean_los)
    base = ReplicationSpec(horizon=2_010_000.0, warmup=10_000.0, seed=0)
    scenario = with_replication(scenario, base)
    summary = saa_evaluate(scenario, [[servers] * 3], "P1", replications=3)
    simulated = float(summary.mean_nva[0, YELLOW])
    rel = abs(simulated - exact) / exact
    _criterion(
        "multi-server queue against the Erlang-C wait",
        rel <= 0.05,
        f"simulated {simulated:.3f} min vs exact {exact:.3f} min (rel {rel:.2%}, cap 5%)",
    )


def test_priority_queue_against_the_nonpreemptive_closed_form():
    # M/M/c with red served before yellow, neither preempting: class k waits
    # W0 / ((1 - s_{k-1})(1 - s_k)), where W0 is the Erlang-C wait probability
    # over c*mu and s_k the load of classes 1..k (Cobham 1954; Kella &
    # Yechiali 1985)
    red_rate, yellow_rate, mean_los, servers = 0.025, 0.075, 30.0, 4
    offered = (red_rate + yellow_rate) * mean_los
    rho = offered / servers
    w0 = _erlang_c(offered, servers) * mean_los / servers
    s_red = red_rate * mean_los / servers
    exact = {RED: w0 / (1.0 - s_red), YELLOW: w0 / ((1.0 - s_red) * (1.0 - rho))}
    assert (exact[RED], exact[YELLOW]) == pytest.approx((4.70, 18.81), abs=0.01)

    scenario = single_ed_scenario(
        rates_yellow=(yellow_rate,) * 3, rates_red=(red_rate,) * 3, los_mean=mean_los
    )
    base = ReplicationSpec(horizon=2_010_000.0, warmup=10_000.0, seed=0)
    summary = saa_evaluate(with_replication(scenario, base), [[servers] * 3], "P1", replications=3)
    for tag, name in ((RED, "red"), (YELLOW, "yellow")):
        simulated = float(summary.mean_nva[0, tag])
        rel = abs(simulated - exact[tag]) / exact[tag]
        _criterion(
            f"non-preemptive priority M/M/c wait of {name} patients",
            rel <= 0.05,
            f"simulated {simulated:.3f} min vs exact {exact[tag]:.3f} min (rel {rel:.2%}, cap 5%)",
        )


def _random_network_dict(seed):
    rng = np.random.default_rng(seed)
    eds, caps = [], []
    for i in range(6):
        eds.append(
            {
                "name": f"ED{i + 1}",
                "arrivals": {
                    "yellow": {"rates": rng.uniform(0.004, 0.012, size=3).tolist()},
                    "red": {"rates": rng.uniform(0.001, 0.003, size=3).tolist()},
                },
                "los": {
                    "yellow": {
                        "family": "lognormal",
                        "mean": float(rng.uniform(60.0, 200.0)),
                        "cv": float(rng.uniform(0.6, 1.1)),
                    },
                    "red": {
                        "family": "lognormal",
                        "mean": float(rng.uniform(80.0, 260.0)),
                        "cv": float(rng.uniform(0.6, 1.1)),
                    },
                },
            }
        )
        caps.append([int(v) for v in rng.integers(2, 5, size=3)])
    tau = np.zeros((6, 6))
    upper = np.triu_indices(6, 1)
    tau[upper] = rng.uniform(10.0, 30.0, size=len(upper[0]))
    tau = tau + tau.T
    data = {"eds": eds, "transfer_minutes": tau.tolist(), "plan_bounds": [1, 20]}
    return data, np.array(caps, dtype=int), tau


def _solo_copy(data, keep):
    solo = copy.deepcopy(data)
    for j, ed in enumerate(solo["eds"]):
        if j != keep:
            ed["arrivals"] = {}
    return solo


def test_diversion_policy_invariants():
    spec = ReplicationSpec(horizon=120 * 1440.0, warmup=1440.0, seed=5)
    checked_patients = 0
    for scenario_seed in (301, 302):
        data, caps, tau = _random_network_dict(scenario_seed)
        scenario = scenario_from_dict(data)

        # no diversion: the network decomposes into six independent EDs
        whole = run_replication(scenario, caps, "P1", spec)
        assert whole.created >= 10_000, f"only {whole.created} patients simulated"
        for i in range(6):
            solo = run_replication(scenario_from_dict(_solo_copy(data, i)), caps, "P1", spec)
            assert whole.nva[i] == solo.nva[i], f"scenario {scenario_seed}, ED {i}"

        for policy in (
            PolicySpec("P2"),
            PolicySpec("P2", cascade=True),
            PolicySpec("P3"),
            PolicySpec("P4"),
        ):
            out = run_replication(scenario, caps, policy, spec, record_patients=True)
            redirected = [p for p in out.patients if p.redirects > 0]
            assert redirected, f"{policy.id} never diverted on scenario {scenario_seed}"
            checked_patients += len(out.patients)
            for p in out.patients:
                assert p.redirects <= 1
            for p in redirected:
                assert p.serving != p.origin
                assert p.transfer_minutes == tau[p.origin][p.serving]
                assert p.t_service_start - p.t_triage >= p.transfer_minutes - 1e-9
                if policy.id == "P3":
                    assert p.tag == YELLOW

    _criterion(
        "diversion policy invariants",
        True,
        "P1 decomposes per ED bit-identically; P3 diverts yellow only; "
        f"at most one redirect and NVA >= transfer across {checked_patients} patient records",
    )


def test_reruns_are_byte_identical(tmp_path):
    scenario = parse_scenario(str(SCENARIO_PATH))
    dirs = (tmp_path / "a", tmp_path / "b")
    for out_dir in dirs:
        cmd_simulate(scenario, replications=2, out_dir=str(out_dir))
        p2 = replace(scenario, policy=replace(scenario.policy, id="P2"))
        cmd_optimize(p2, budget=5, replications=2, out_dir=str(out_dir))
        cmd_report(out_dir=str(out_dir))
    names = [
        "nva.csv",
        "diversions.csv",
        "optimal_plan_P2.csv",
        "objective_P2.csv",
        "optimal_nva_P2.csv",
        "summary_plans.csv",
        "summary_objectives.csv",
    ]
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes() for name in names
    )
    _criterion(
        "byte-identical CSV output on rerun",
        identical,
        f"{len(names)} CSV files from simulate/optimize/report compared across two runs",
    )


def test_calibration_recovers_known_capacities():
    scenario = single_ed_scenario(
        rates_yellow=(0.12, 0.18, 0.12),
        rates_red=(0.02, 0.03, 0.02),
        los_mean=30.0,
    )
    base = ReplicationSpec(horizon=30 * 1440.0, warmup=1440.0, seed=101)
    scenario = with_replication(scenario, base)
    true_caps = (4, 5, 3)
    real = simulated_waits(scenario, true_caps, replications=10, ed=0)
    caps, err = calibrate_ed(replace(scenario, plan_bounds=(2, 5)), 0, real, replications=10)
    _criterion(
        "calibration self-recovery",
        tuple(caps) == true_caps and err == 0.0,
        f"recovered {tuple(caps)} with L1 error {err} (truth {true_caps})",
    )


# the desk-scale search: 10 replications on the scenario's seeds
SEARCH_REPLICATIONS = 10
# the out-of-sample check scores the optima on seeds 1001-1030
OUT_OF_SAMPLE_SEED, OUT_OF_SAMPLE_REPLICATIONS = 1000, 30


@pytest.fixture(scope="module")
def optimized(tmp_path_factory):
    """(scenario, cmd_optimize's result by policy) on the bundled six-ED scenario, run once."""
    scenario = parse_scenario(str(SCENARIO_PATH))
    out_dir = str(tmp_path_factory.mktemp("optimize"))
    results = {}
    for policy in POLICY_IDS:
        results[policy] = cmd_optimize(
            replace(scenario, policy=replace(scenario.policy, id=policy)),
            budget=300,
            replications=SEARCH_REPLICATIONS,
            out_dir=out_dir,
        )
    return scenario, results


def test_optimization_reproduces_policy_ordering(optimized):
    scenario, results = optimized

    # the starting point must sit in the same regime as the published one:
    # ED4 and ED5 violating both NVA limits under P1, every other ED feasible
    start = results["P1"]["start_summary"]
    start_viol = start.violations
    regime_ok = bool(
        np.all(start_viol[[3, 4]] > 0.0) and np.all(start_viol[[0, 1, 2, 5]] == 0.0)
    )

    f_opt = {policy: results[policy]["f_opt"] for policy in POLICY_IDS}
    totals = {policy: results[policy]["plan"].sum() for policy in POLICY_IDS}
    feasible = all(results[policy]["result"].total_violation == 0.0 for policy in POLICY_IDS)
    ordering = f_opt["P4"] < f_opt["P2"] < f_opt["P3"] < f_opt["P1"]
    p1_most_resources = totals["P1"] > max(totals[p] for p in ("P2", "P3", "P4"))

    _criterion(
        "optimized policy ordering",
        regime_ok and feasible and ordering and p1_most_resources,
        "f* "
        + " < ".join(f"{p}={f_opt[p]:.0f}" for p in sorted(f_opt, key=f_opt.get))
        + f"; resources {totals}; starting violations confined to ED4/ED5: {regime_ok}",
    )


def test_optimized_ordering_holds_out_of_sample(optimized):
    # the search's f* is optimistic (Smith & Winkler's optimizer's curse):
    # score each optimum on fresh replications and require the ordering
    # through paired per-replication differences of f (common random numbers)
    scenario, results = optimized
    search = {scenario.replication.seed + k + 1 for k in range(SEARCH_REPLICATIONS)}
    fresh = {OUT_OF_SAMPLE_SEED + k + 1 for k in range(OUT_OF_SAMPLE_REPLICATIONS)}
    assert (min(search), max(search), min(fresh), max(fresh)) == (8, 17, 1001, 1030)
    assert not search & fresh
    fresh_spec = replace(scenario.replication, seed=OUT_OF_SAMPLE_SEED)
    f, optimism = {}, {}
    for policy in POLICY_IDS:
        plan = results[policy]["plan"]
        sc = replace(scenario, policy=replace(scenario.policy, id=policy), replication=fresh_spec)
        summary = saa_evaluate(sc, plan, policy, OUT_OF_SAMPLE_REPLICATIONS)
        f[policy] = np.array(
            [objective_value(plan, means, scenario.objective_spec) for means in summary.rep_means]
        )
        optimism[policy] = f[policy].mean() - results[policy]["f_opt"]
    intervals = {}
    for better, worse in (("P4", "P2"), ("P2", "P3"), ("P3", "P1")):
        mean, half = summarize(f[better] - f[worse])
        intervals[f"{better}-{worse}"] = (mean - half, mean + half)
    _criterion(
        "optimized policy ordering out of sample",
        all(hi < 0.0 for _, hi in intervals.values()),
        f"seeds {min(fresh)}-{max(fresh)} (search {min(search)}-{max(search)}); paired 95% CIs "
        + ", ".join(f"{k} [{lo:.0f}, {hi:.0f}]" for k, (lo, hi) in intervals.items())
        + "; optimism (out-of-sample mean f - f*) "
        + ", ".join(f"{p} {optimism[p]:.0f}" for p in POLICY_IDS),
    )
