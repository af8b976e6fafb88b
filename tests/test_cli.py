"""End-to-end command tests: flags, CSV schemas, determinism, exit codes."""

import csv

import pytest

from ednetsim import parse_scenario
from ednetsim.cli import cmd_optimize, cmd_report, main

SCENARIO = """
name: pair
eds:
  - name: busy
    arrivals:
      yellow: {rates: [0.2, 0.2, 0.2]}
      red: {rates: [0.02, 0.02, 0.02]}
    los:
      yellow: {family: exponential, mean: 60}
      red: {family: exponential, mean: 60}
  - name: idle
    arrivals:
      yellow: {rates: [0.002, 0.002, 0.002]}
    los:
      yellow: {family: exponential, mean: 60}
      red: {family: exponential, mean: 60}
transfer_minutes:
  - [0, 12]
  - [12, 0]
policy: P2
plan_bounds: [1, 6]
starting_plan:
  - [1, 1, 1]
  - [4, 4, 4]
replication:
  horizon_days: 5
  warmup_minutes: 480
  seed: 19
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "pair.yaml"
    path.write_text(SCENARIO)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_writes_expected_tables(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--scenario",
            str(scenario_file),
            "--replications",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    nva = read_csv(out / "nva.csv")
    assert nva[0] == ["ed", "tag", "mean_nva", "half_width_95"]
    assert [row[:2] for row in nva[1:]] == [
        ["busy", "yellow"],
        ["busy", "red"],
        ["idle", "yellow"],
        ["idle", "red"],
    ]
    div = read_csv(out / "diversions.csv")
    assert div[0] == ["ed", "redirected_out"]
    assert float(div[1][1]) > 0.0  # the busy ED diverts under P2
    assert (out / "simulate.log").exists()


def test_simulate_is_byte_deterministic(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert (
            main(
                [
                    "simulate",
                    "--scenario",
                    str(scenario_file),
                    "--replications",
                    "2",
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    for name in ("nva.csv", "diversions.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_seed_changes_output(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for seed, out in ((5, out1), (6, out2)):
        main(
            [
                "simulate",
                "--scenario",
                str(scenario_file),
                "--replications",
                "2",
                "--seed",
                str(seed),
                "--out",
                str(out),
            ]
        )
    assert (out1 / "nva.csv").read_bytes() != (out2 / "nva.csv").read_bytes()


def test_simulate_without_plan_fails(tmp_path, capsys):
    path = tmp_path / "noplan.yaml"
    path.write_text(SCENARIO.replace("starting_plan:\n  - [1, 1, 1]\n  - [4, 4, 4]\n", ""))
    code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "starting plan" in capsys.readouterr().err


def test_calibrate_requires_real_waits(scenario_file, tmp_path, capsys):
    code = main(
        ["calibrate", "--scenario", str(scenario_file), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "real waiting times" in capsys.readouterr().err


CALIBRATE_SCENARIO = """
name: calpair
eds:
  - name: busy
    arrivals:
      yellow: {rates: [0.1, 0.1, 0.1]}
    los:
      yellow: {family: exponential, mean: 30}
      red: {family: exponential, mean: 30}
    real_waits:
      yellow: [0, 0, 0]
      red: [0, 0, 0]
  - name: idle
    arrivals:
      yellow: {rates: [0.002, 0.002, 0.002]}
    los:
      yellow: {family: exponential, mean: 30}
      red: {family: exponential, mean: 30}
    real_waits:
      yellow: [0, 0, 0]
      red: [0, 0, 0]
transfer_minutes:
  - [0, 12]
  - [12, 0]
policy: P2
plan_bounds: [1, 6]
replication:
  horizon_days: 5
  warmup_minutes: 480
  seed: 19
"""


def test_calibrate_writes_plan_and_feeds_simulate(tmp_path):
    # no starting_plan here: simulate must fall back to the calibrated plan
    path = tmp_path / "cal.yaml"
    path.write_text(CALIBRATE_SCENARIO)
    out = tmp_path / "out"
    code = main(
        [
            "calibrate",
            "--scenario",
            str(path),
            "--replications",
            "1",
            "--bounds",
            "2",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "calibrated_plan.csv")
    assert rows[0] == ["ED", "slot1", "slot2", "slot3"]
    assert [r[0] for r in rows[1:]] == ["busy", "idle"]
    assert rows[1][1:] == ["3", "3", "3"]  # zero target waits push to the bound
    # the idle ED never queues, so every triple fits exactly and the
    # fewest-resources tie-break wins
    assert rows[2][1:] == ["2", "2", "2"]
    assert (out / "calibrate.log").exists()

    code = main(
        [
            "simulate",
            "--scenario",
            str(path),
            "--replications",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "nva.csv").exists()


def test_optimize_budget_one_returns_start(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "optimize",
            "--scenario",
            str(scenario_file),
            "--policy",
            "P2",
            "--budget",
            "1",
            "--replications",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "optimal_plan_P2.csv")
    assert rows[1] == ["busy", "1", "1", "1"]
    assert rows[2] == ["idle", "4", "4", "4"]
    obj = read_csv(out / "objective_P2.csv")
    assert obj[0] == ["policy", "f_start", "f_opt", "total_violation_opt", "evaluations"]
    assert obj[1][0] == "P2"
    assert obj[1][1] == obj[1][2]  # only the start was evaluated
    assert obj[1][4] == "1"
    assert (out / "optimal_nva_P2.csv").exists()
    assert (out / "optimize_P2.log").exists()


def test_optimize_improves_and_report_merges(scenario_file, tmp_path):
    out = tmp_path / "out"
    results = {}
    for policy in ("P1", "P2"):
        outcome = cmd_optimize(
            parse_scenario(scenario_file),
            policy=policy,
            budget=15,
            replications=2,
            out_dir=str(out),
        )
        results[policy] = outcome
        assert outcome["result"].evaluations <= 15
    plans, merged = cmd_report(out_dir=str(out))
    assert set(plans) == {"P1", "P2"}
    summary = read_csv(out / "summary_objectives.csv")
    assert summary[0] == ["policy", "f_start", "f_opt"]
    assert [row[0] for row in summary[1:]] == ["P1", "P2"]
    plans_table = read_csv(out / "summary_plans.csv")
    assert plans_table[0] == ["ED", "slot", "P1", "P2"]
    assert len(plans_table) == 1 + 2 * 3
    for policy in ("P1", "P2"):
        # feasible start, so lexicographic reporting can never end up worse
        assert results[policy]["f_opt"] <= results[policy]["f_start"] or results[policy][
            "best_summary"
        ].total_violation < results[policy]["start_summary"].total_violation


def test_report_without_outputs_fails(tmp_path, capsys):
    code = main(["report", "--out", str(tmp_path / "empty")])
    assert code == 1
    assert "no optimize outputs" in capsys.readouterr().err


def test_unreadable_scenario_fails(tmp_path, capsys):
    code = main(["simulate", "--scenario", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_non_finite_scenario_number_fails(tmp_path, capsys):
    path = tmp_path / "inf.yaml"
    path.write_text(SCENARIO.replace("plan_bounds: [1, 6]", "plan_bounds: [1, .inf]"))
    code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "plan_bounds[1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, path",
    [
        ("seed: 19", "seed: .inf", "replication.seed"),
        ("horizon_days: 5", "horizon_days: abc", "replication.horizon_days"),
        ("horizon_days: 5", "horizon_days: .inf", "replication.horizon_days"),
        ("horizon_days: 5", "horizon_day: 5", "replication.horizon_day"),
        ("plan_bounds: [1, 6]", "plan_bound: [1, 6]", "plan_bound"),
        ("policy: P2", "polcy: P4", "polcy"),
        ("policy: P2", "policy: {id: P2, cascade: 'no'}", "policy.cascade"),
        ("mean: 60}", "mean: abc}", "eds[0].los.yellow"),
        ("mean: 60}", "mean: .inf}", "eds[0].los.yellow"),
        ("exponential, mean: 60}", "lognormal, mean: 60, cv: .nan}", "eds[0].los.yellow"),
    ],
)
def test_bad_scenario_value_fails_with_key_path(tmp_path, capsys, old, new, path):
    path_file = tmp_path / "bad.yaml"
    path_file.write_text(SCENARIO.replace(old, new, 1))
    code = main(["simulate", "--scenario", str(path_file), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}")


def test_optimize_csv_byte_deterministic(scenario_file, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(
            [
                "optimize",
                "--scenario",
                str(scenario_file),
                "--policy",
                "P2",
                "--budget",
                "8",
                "--replications",
                "2",
                "--seed",
                "77",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    for name in ("optimal_plan_P2.csv", "objective_P2.csv", "optimal_nva_P2.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
