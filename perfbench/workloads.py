"""The benchmark's workloads and the checks on the outputs each one writes.

Every workload is one `ednetsim` command run through `ednetsim.cli.main`:
one caller, one process, one thread, a closed loop in which the solver
waits for each estimate.  Its operation (op) is the unit of work the
latency metrics count.
"""

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
LAZIO = "scenarios/lazio_synthetic.yaml"
DEMO = "scenarios/calibration_demo.yaml"

# Evaluations per optimize invocation.  Eighteen coordinates need at least
# 36 evaluations to finish one sweep, so the budget always runs out and the
# evaluation count is exactly this number on every seed.
OPT_BUDGET = 22
REPLICATIONS = 10
CAL_BOUNDS = (2, 5)
# calibration_demo.yaml was generated from this plan at 10 replications of
# its own seed, so calibrating with that seed recovers it with zero error.
DEMO_SEED = 101
DEMO_PLAN = [[4, 5, 3], [3, 4, 2]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str                 # "saa_evaluate" or "simulated_waits"
    default_seed: int
    policy: str | None = None

    @property
    def scenario(self):
        return DEMO if self.op == "simulated_waits" else LAZIO

    def argv(self, seed, out_dir):
        """Arguments of `ednetsim.cli.main` for one invocation."""
        common = [
            "--scenario", str(ROOT / self.scenario),
            "--replications", str(REPLICATIONS),
            "--seed", str(seed),
            "--out", str(out_dir),
        ]
        if self.policy is None:
            lo, hi = CAL_BOUNDS
            return ["calibrate", *common, "--bounds", str(lo), str(hi)]
        return ["optimize", *common, "--policy", self.policy, "--budget", str(OPT_BUDGET)]

    # Wrappers of the traced run (see tracing.py) that must fire, and only
    # these; decide_routing among them only on optimize-p4.
    def expected_calls(self):
        sim = {"run_replication", "pop", "schedule", "los_sample", "streams",
               "arrival_times", "parse_scenario", "write"}
        if self.policy is None:
            return sim | {"simulated_waits"}
        sim |= {"saa_evaluate", "solve", "linesearch", "summarize"}
        return sim | ({"decide_routing"} if self.policy != "P1" else set())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "optimize-p1",
            "P1 runs the six EDs decoupled and never routes, so per-ED memoization "
            "shows its full effect and routing changes none",
            "saa_evaluate", 7, "P1",
        ),
        Workload(
            "optimize-p4",
            "P4 couples the network and routes every arrival at a full ED, so it "
            "exercises routing and is the control for per-ED memoization",
            "saa_evaluate", 7, "P4",
        ),
        Workload(
            "calibrate-demo",
            "128 capacity triples of 10 short single-ED replications each: the cost is "
            "per-replication set-up and the grid, not the solver",
            "simulated_waits", DEMO_SEED,
        ),
    )
}


def csv_digest(out_dir):
    """SHA-256 over the names and bytes of every CSV an invocation wrote.

    The .log files carry wall-clock seconds and are left out.
    """
    digest = hashlib.sha256()
    for path in sorted(Path(out_dir).glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _plan_problems(path, lo, hi):
    rows = _rows(path)[1:]
    bad = [row for row in rows if not all(lo <= int(v) <= hi for v in row[1:])]
    return [f"{path.name}: entries outside [{lo}, {hi}] in {bad}"] if bad else []


def check_outputs(workload, seed, out_dir, ops, start_violation):
    """Seed-independent invariants of one invocation's outputs; returns problems."""
    out_dir = Path(out_dir)
    if workload.policy is not None:
        p = workload.policy
        lo, hi = yaml.safe_load((ROOT / LAZIO).read_text())["plan_bounds"]
        problems = _plan_problems(out_dir / f"optimal_plan_{p}.csv", lo, hi)
        row = dict(zip(*_rows(out_dir / f"objective_{p}.csv")))
        if int(row["evaluations"]) != OPT_BUDGET or ops != OPT_BUDGET:
            problems.append(
                f"expected {OPT_BUDGET} evaluations, csv has {row['evaluations']}, "
                f"{ops} ops ran"
            )
        # The solver returns the best point feasibility first, so the optimum
        # is no worse than the start in (total violation, f); the CSV keeps
        # two decimals.
        f_start, f_opt = float(row["f_start"]), float(row["f_opt"])
        v_opt, v_start = float(row["total_violation_opt"]), round(start_violation, 2)
        if not (v_opt < v_start or (v_opt == v_start and f_opt <= f_start)):
            problems.append(
                f"optimum (violation {v_opt}, f {f_opt}) is worse than the start "
                f"(violation {v_start}, f {f_start})"
            )
        return problems

    lo, hi = CAL_BOUNDS
    plan_path = out_dir / "calibrated_plan.csv"
    problems = _plan_problems(plan_path, lo, hi)
    plan = [[int(v) for v in row[1:]] for row in _rows(plan_path)[1:]]
    grid = len(plan) * (hi - lo + 1) ** 3
    if ops != grid:
        problems.append(f"expected {grid} capacity triples, {ops} ops ran")
    if seed == DEMO_SEED:
        errors = [
            line.split(":", 1)[1].strip()
            for line in (out_dir / "calibrate.log").read_text().splitlines()
            if line.startswith("l1_error")
        ]
        if plan != DEMO_PLAN or any(float(e) != 0.0 for e in errors):
            problems.append(
                f"seed {DEMO_SEED} must recover {DEMO_PLAN} with zero L1 error, "
                f"got {plan} with errors {errors}"
            )
    return problems
