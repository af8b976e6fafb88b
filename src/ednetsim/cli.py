"""Command-line interface: simulate, calibrate, optimize, report.

simulate, calibrate and optimize read one scenario file, to which main applies
--seed (replication.seed, from which all replication seeds derive), --policy
(the policy id) and --bounds (a narrower plan_bounds); report reads no scenario.
Every command writes CSV tables plus a plain text run log into --out.  Reruns
with identical inputs and seed produce byte-identical CSV files.
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


def _with_flags(scenario, args):
    """The scenario with args' --seed (checked like replication.seed), --policy
    (the id only: p3_thresholds and cascade stay) and --bounds (within plan_bounds)."""
    replication, policy = scenario.replication, scenario.policy
    if args.seed is not None:
        replication = replace(replication, seed=_integer(args.seed, "--seed", minimum=0))
    if getattr(args, "policy", None) is not None:
        policy = replace(policy, id=args.policy)
    plan_lo, plan_hi = scenario.plan_bounds
    lo, hi = getattr(args, "bounds", None) or scenario.plan_bounds
    if not plan_lo <= lo <= hi <= plan_hi:
        raise ValueError(
            f"capacity bounds [{lo}, {hi}] must be a range within "
            f"plan_bounds [{plan_lo}, {plan_hi}]"
        )
    return replace(scenario, replication=replication, policy=policy, plan_bounds=(lo, hi))


def _starting_plan(scenario, out_dir):
    """Scenario's starting plan, else the calibrated plan from a prior run."""
    if scenario.starting_plan is not None:
        return np.array(scenario.starting_plan, dtype=int)
    path = os.path.join(out_dir, "calibrated_plan.csv")
    if os.path.exists(path):
        names, plan = read_plan_csv(path)
        if names != scenario.ed_names:
            raise ValueError(
                f"{path}: plan is for EDs {list(names)}, scenario has EDs {list(scenario.ed_names)}"
            )
        lo, hi = scenario.plan_bounds
        for name, row in zip(names, plan):
            for slot, count in enumerate(row, 1):
                if not lo <= count <= hi:
                    raise ValueError(
                        f"{path}: ED {name!r}, slot{slot}: {count} outside plan_bounds [{lo}, {hi}]"
                    )
        return np.array(plan, dtype=int)
    raise ValueError(
        "no starting plan: add starting_plan to the scenario or run calibrate first"
    )


def _write_log(path, command, scenario, policy_id, replications, t0, results):
    """The run log: the run's settings, the command's result lines, then the wall time."""
    write_run_log(path, [
        f"command: {command}",
        f"scenario: {scenario.name}",
        f"policy: {policy_id}",
        f"seed: {scenario.replication.seed}",
        f"replications: {replications}",
        *results,
        f"wall_seconds: {time.perf_counter() - t0:.2f}",
    ])


def cmd_simulate(scenario, replications, out_dir):
    """Estimate NVA times of the starting plan; writes nva.csv and diversions.csv."""
    t0 = time.perf_counter()
    plan = _starting_plan(scenario, out_dir)
    summary = saa_evaluate(scenario, plan, scenario.policy, replications=replications)
    write_nva_csv(os.path.join(out_dir, "nva.csv"), scenario.ed_names, summary)
    write_diversions_csv(os.path.join(out_dir, "diversions.csv"), scenario.ed_names, summary)
    _write_log(
        os.path.join(out_dir, "simulate.log"), "simulate", scenario, scenario.policy.id,
        replications, t0,
        [
            f"objective: {fmt_minutes(summary.objective)}",
            f"total_violation: {fmt_minutes(summary.total_violation)}",
        ],
    )
    for i, name in enumerate(scenario.ed_names):
        for tag, tag_name in enumerate(TAG_NAMES):
            print(f"{name} {tag_name}: {fmt_minutes(summary.mean_nva[i, tag])} min")


def cmd_calibrate(scenario, replications, out_dir):
    """Fit per-ED slot capacities within plan_bounds to the scenario's real waits."""
    t0 = time.perf_counter()
    plan, errors = calibrate_network(scenario, replications)
    write_plan_csv(os.path.join(out_dir, "calibrated_plan.csv"), scenario.ed_names, plan)
    # every ED is calibrated alone, as P1 runs it, whatever the scenario's policy
    _write_log(
        os.path.join(out_dir, "calibrate.log"), "calibrate", scenario, "P1", replications, t0,
        [f"bounds: {list(scenario.plan_bounds)}"]
        + [f"l1_error[{name}]: {fmt_minutes(err)}" for name, err in zip(scenario.ed_names, errors)],
    )
    for name, row in zip(scenario.ed_names, plan):
        print(f"{name}: {tuple(int(v) for v in row)}")


def cmd_optimize(scenario, budget, replications, out_dir):
    """Search resource plans minimizing the penalized NVA cost for one policy."""
    t0 = time.perf_counter()
    pol = scenario.policy
    start = _starting_plan(scenario, out_dir)
    lo, hi = scenario.plan_bounds
    evaluate = make_allocation_problem(scenario, pol, replications)
    problem = BoxedIntegerProblem(
        lower=lo, upper=hi, evaluate=evaluate, start=start.reshape(-1), budget=budget
    )
    result = solve(problem)
    start_summary = evaluate.summaries[tuple(int(v) for v in start.reshape(-1))]
    best_summary = evaluate.summaries[result.x]

    names = scenario.ed_names
    write_plan_csv(os.path.join(out_dir, f"optimal_plan_{pol.id}.csv"), names, best_summary.plan)
    write_objective_csv(
        os.path.join(out_dir, f"objective_{pol.id}.csv"), pol.id, start_summary.objective,
        result.f, result.total_violation, result.evaluations,
    )
    write_nva_csv(os.path.join(out_dir, f"optimal_nva_{pol.id}.csv"), names, best_summary)
    _write_log(
        os.path.join(out_dir, f"optimize_{pol.id}.log"), "optimize", scenario, pol.id,
        replications, t0,
        [
            f"budget: {budget}",
            f"evaluations: {result.evaluations}",
            f"sweeps: {result.sweeps}",
            f"converged: {result.converged}",
            f"f_start: {fmt_minutes(start_summary.objective)}",
            f"f_opt: {fmt_minutes(result.f)}",
            f"total_violation_opt: {fmt_minutes(result.total_violation)}",
            f"total_resources_opt: {best_summary.plan.sum()}",
        ],
    )
    print(
        f"{pol.id}: f_start={fmt_minutes(start_summary.objective)} "
        f"f_opt={fmt_minutes(result.f)} evaluations={result.evaluations}"
    )
    return {
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
    for policy in POLICY_IDS:
        plan_path = os.path.join(out_dir, f"optimal_plan_{policy}.csv")
        obj_path = os.path.join(out_dir, f"objective_{policy}.csv")
        if not (os.path.exists(plan_path) and os.path.exists(obj_path)):
            continue
        names, plan = read_plan_csv(plan_path)
        if plans and names != ed_names:
            raise ValueError(f"{plan_path}: ED names disagree with other policies")
        ed_names = names
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
        help="capacity search range within the scenario's plan_bounds (default: all of it)",
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
            cmd_report(args.out)
            return 0
        replications = _integer(args.replications, "--replications", minimum=1)
        if args.command == "optimize":
            budget = _integer(args.budget, "--budget", minimum=0)
        scenario = _with_flags(parse_scenario(args.scenario), args)
        if args.command == "simulate":
            cmd_simulate(scenario, replications, args.out)
        elif args.command == "calibrate":
            cmd_calibrate(scenario, replications, args.out)
        else:
            cmd_optimize(scenario, budget, replications, args.out)
    except (ScenarioError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
