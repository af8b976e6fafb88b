"""Command-line interface: simulate, calibrate, optimize, report.

Every command reads one scenario file, honours a single --seed flag that
replaces the scenario's replication.seed (all replication seeds derive
from it) and writes CSV tables plus a plain text run log into --out.
Reruns with identical inputs and seed produce byte-identical CSV files.
"""

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .calibrate import calibrate_network
from .network import POLICY_IDS, TAG_NAMES
from .objective import make_allocation_problem, saa_evaluate
from .reporting import (
    fmt_minutes,
    read_objective_csv,
    read_plan_csv,
    write_diversions_csv,
    write_nva_csv,
    write_objective_csv,
    write_plan_csv,
    write_run_log,
    write_summary_objectives_csv,
    write_summary_plans_csv,
)
from .scenario import ScenarioError, _integer, parse_scenario
from .solver import BoxedIntegerProblem, solve


def _seeded(scenario, seed):
    """The scenario with --seed, if given, as replication.seed, checked like that key."""
    if seed is None:
        return scenario
    seed = _integer(seed, "--seed", minimum=0)
    return replace(scenario, replication=replace(scenario.replication, seed=seed))


def _policy(scenario, policy_id):
    if policy_id is None:
        return scenario.policy
    return replace(scenario.policy, id=policy_id)


def _starting_plan(scenario, out_dir):
    """Scenario's starting plan, else the calibrated plan from a prior run."""
    if scenario.starting_plan is not None:
        return np.array(scenario.starting_plan, dtype=int)
    path = os.path.join(out_dir, "calibrated_plan.csv")
    if os.path.exists(path):
        names, plan = read_plan_csv(path)
        if names != scenario.ed_names:
            raise ValueError(
                f"{path}: plan is for EDs {names}, scenario has EDs {scenario.ed_names}"
            )
        return np.array(plan, dtype=int)
    raise ValueError(
        "no starting plan: add starting_plan to the scenario or run calibrate first"
    )


def cmd_simulate(scenario, replications, out_dir, policy=None, seed=None):
    """Estimate NVA times of the starting plan; writes nva.csv and diversions.csv."""
    t0 = time.perf_counter()
    scenario = _seeded(scenario, seed)
    pol = _policy(scenario, policy)
    plan = _starting_plan(scenario, out_dir)
    summary = saa_evaluate(scenario, plan, pol, replications=replications)
    write_nva_csv(os.path.join(out_dir, "nva.csv"), scenario.ed_names, summary)
    write_diversions_csv(os.path.join(out_dir, "diversions.csv"), scenario.ed_names, summary)
    write_run_log(
        os.path.join(out_dir, "simulate.log"),
        [
            "command: simulate",
            f"scenario: {scenario.name}",
            f"policy: {pol.id}",
            f"seed: {scenario.replication.seed}",
            f"replications: {replications}",
            f"objective: {fmt_minutes(summary.objective)}",
            f"total_violation: {fmt_minutes(summary.total_violation)}",
            f"wall_seconds: {time.perf_counter() - t0:.2f}",
        ],
    )
    return summary


def cmd_calibrate(scenario, replications, out_dir, seed=None, bounds=None):
    """Fit per-ED slot capacities to the scenario's real waits."""
    t0 = time.perf_counter()
    scenario = _seeded(scenario, seed)
    plan, errors = calibrate_network(scenario, replications, bounds)
    write_plan_csv(os.path.join(out_dir, "calibrated_plan.csv"), scenario.ed_names, plan)
    lines = [
        "command: calibrate",
        f"scenario: {scenario.name}",
        f"seed: {scenario.replication.seed}",
        f"replications: {replications}",
        f"bounds: {list(bounds or scenario.plan_bounds)}",
    ]
    lines += [
        f"l1_error[{name}]: {fmt_minutes(err)}"
        for name, err in zip(scenario.ed_names, errors)
    ]
    lines.append(f"wall_seconds: {time.perf_counter() - t0:.2f}")
    write_run_log(os.path.join(out_dir, "calibrate.log"), lines)
    return plan, errors


def cmd_optimize(scenario, budget, replications, out_dir, policy=None, seed=None):
    """Search resource plans minimizing the penalized NVA cost for one policy."""
    t0 = time.perf_counter()
    scenario = _seeded(scenario, seed)
    pol = _policy(scenario, policy)
    start = _starting_plan(scenario, out_dir)
    lo, hi = scenario.plan_bounds
    evaluate = make_allocation_problem(scenario, pol, replications)
    problem = BoxedIntegerProblem(
        lower=lo,
        upper=hi,
        evaluate=evaluate,
        start=start.reshape(-1),
        budget=budget,
    )
    result = solve(problem)
    start_summary = evaluate.summaries[tuple(int(v) for v in start.reshape(-1))]
    best_summary = evaluate.summaries[result.x]

    write_plan_csv(
        os.path.join(out_dir, f"optimal_plan_{pol.id}.csv"),
        scenario.ed_names,
        best_summary.plan,
    )
    write_objective_csv(
        os.path.join(out_dir, f"objective_{pol.id}.csv"),
        pol.id,
        start_summary.objective,
        result.f,
        result.total_violation,
        result.evaluations,
    )
    write_nva_csv(
        os.path.join(out_dir, f"optimal_nva_{pol.id}.csv"),
        scenario.ed_names,
        best_summary,
    )
    write_run_log(
        os.path.join(out_dir, f"optimize_{pol.id}.log"),
        [
            "command: optimize",
            f"scenario: {scenario.name}",
            f"policy: {pol.id}",
            f"seed: {scenario.replication.seed}",
            f"replications: {replications}",
            f"budget: {budget}",
            f"evaluations: {result.evaluations}",
            f"sweeps: {result.sweeps}",
            f"converged: {result.converged}",
            f"f_start: {fmt_minutes(start_summary.objective)}",
            f"f_opt: {fmt_minutes(result.f)}",
            f"total_violation_opt: {fmt_minutes(result.total_violation)}",
            f"total_resources_opt: {best_summary.plan.sum()}",
            f"wall_seconds: {time.perf_counter() - t0:.2f}",
        ],
    )
    return {
        "policy": pol.id,
        "plan": best_summary.plan,
        "f_start": start_summary.objective,
        "f_opt": result.f,
        "result": result,
        "start_summary": start_summary,
        "best_summary": best_summary,
    }


def cmd_report(out_dir):
    """Merge per-policy optimize outputs into summary tables."""
    plans, results = {}, {}
    ed_names = None
    for policy in POLICY_IDS:
        plan_path = os.path.join(out_dir, f"optimal_plan_{policy}.csv")
        obj_path = os.path.join(out_dir, f"objective_{policy}.csv")
        if not (os.path.exists(plan_path) and os.path.exists(obj_path)):
            continue
        names, plan = read_plan_csv(plan_path)
        if ed_names is None:
            ed_names = names
        elif names != ed_names:
            raise ValueError(f"{plan_path}: ED names disagree with other policies")
        plans[policy] = plan
        results[policy] = read_objective_csv(obj_path)
    if not plans:
        raise ValueError(f"no optimize outputs found under {out_dir}; run optimize first")
    write_summary_plans_csv(os.path.join(out_dir, "summary_plans.csv"), ed_names, plans)
    write_summary_objectives_csv(os.path.join(out_dir, "summary_objectives.csv"), results)
    write_run_log(
        os.path.join(out_dir, "report.log"),
        ["command: report", f"policies: {','.join(sorted(plans))}"],
    )
    return plans, results


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ednetsim",
        description="Simulation-based sizing of an emergency-department network "
        "under ambulance-diversion policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario file (YAML)")
            p.add_argument("--seed", type=int, default=None, help="override scenario seed")
            p.add_argument(
                "--replications", type=int, default=30, help="replications per estimate"
            )
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("simulate", help="estimate NVA times of the starting plan")
    add_common(p)
    p.add_argument("--policy", choices=POLICY_IDS, default=None)

    p = sub.add_parser("calibrate", help="fit capacities to the scenario's real waits")
    add_common(p)
    p.add_argument(
        "--bounds",
        type=int,
        nargs=2,
        default=None,
        metavar=("LO", "HI"),
        help="capacity search range (default: the scenario's plan_bounds)",
    )

    p = sub.add_parser("optimize", help="minimize the penalized NVA cost")
    add_common(p)
    p.add_argument("--policy", choices=POLICY_IDS, default=None)
    p.add_argument("--budget", type=int, default=700, help="black-box evaluation budget")

    p = sub.add_parser("report", help="summarize optimize outputs across policies")
    add_common(p, scenario=False)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(out_dir=args.out)
            return 0
        scenario = parse_scenario(args.scenario)
        if args.command == "simulate":
            summary = cmd_simulate(
                scenario,
                policy=args.policy,
                replications=args.replications,
                seed=args.seed,
                out_dir=args.out,
            )
            for i, name in enumerate(scenario.ed_names):
                for tag, tag_name in enumerate(TAG_NAMES):
                    ci = summary.nva_ci(i, tag)
                    print(f"{name} {tag_name}: {fmt_minutes(ci.mean)} min")
        elif args.command == "calibrate":
            plan, _ = cmd_calibrate(
                scenario,
                replications=args.replications,
                seed=args.seed,
                out_dir=args.out,
                bounds=args.bounds,
            )
            for name, row in zip(scenario.ed_names, plan):
                print(f"{name}: {tuple(int(v) for v in row)}")
        elif args.command == "optimize":
            outcome = cmd_optimize(
                scenario,
                policy=args.policy,
                budget=args.budget,
                replications=args.replications,
                seed=args.seed,
                out_dir=args.out,
            )
            print(
                f"{outcome['policy']}: f_start={fmt_minutes(outcome['f_start'])} "
                f"f_opt={fmt_minutes(outcome['f_opt'])} "
                f"evaluations={outcome['result'].evaluations}"
            )
    except (ScenarioError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
