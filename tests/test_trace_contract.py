"""The benchmark's tracer still sees every layer it counts.

perfbench/tracing.py wraps ednetsim functions and methods by name, and each
workload lists the wrappers that must fire (Workload.expected_calls).  A
change that renames, inlines or bypasses a wrapped call would make a traced
benchmark run fail its self-check; these tiny runs catch that here first.
Nothing under perfbench/ is edited: its modules are only imported.
"""

import sys
from pathlib import Path

import pytest

from ednetsim.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCENARIO = """
name: contract
eds:
  - name: Nord
    arrivals:
      yellow: {rates: [0.06, 0.08, 0.05]}
      red: {rates: [0.01, 0.01, 0.01]}
    los:
      yellow: {family: lognormal, mean: 50, cv: 0.8}
      red: {family: exponential, mean: 40}
    real_waits: {yellow: [20, 30, 15], red: [5, 8, 4]}
  - name: Sud
    arrivals:
      yellow: {rates: [0.04, 0.05, 0.03]}
    los:
      yellow: {family: exponential, mean: 45}
      red: {family: exponential, mean: 40}
    real_waits: {yellow: [10, 15, 8], red: [3, 4, 2]}
transfer_minutes:
  - [0, 15]
  - [15, 0]
plan_bounds: [1, 6]
starting_plan:
  - [2, 3, 2]
  - [2, 2, 2]
replication:
  horizon_days: 2
  warmup_minutes: 60
  seed: 4
"""


@pytest.mark.parametrize(
    "workload, args",
    [
        # two replications, since a single one has no confidence interval
        # and so never calls summarize
        ("optimize-p1", ["optimize", "--policy", "P1", "--budget", "2", "--replications", "2"]),
        ("optimize-p4", ["optimize", "--policy", "P4", "--budget", "2", "--replications", "2"]),
        ("calibrate-demo", ["calibrate", "--bounds", "2", "3", "--replications", "1"]),
    ],
)
def test_traced_run_fires_exactly_the_expected_wrappers(tmp_path, workload, args):
    path = tmp_path / "contract.yaml"
    path.write_text(SCENARIO)
    trace = tracing.Trace(WORKLOADS[workload].op, full=True)
    with trace.installed():
        assert main([*args, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    assert trace.fired() == sorted(WORKLOADS[workload].expected_calls())
