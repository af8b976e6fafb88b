"""End-to-end command tests: flags, CSV schemas, determinism, exit codes."""

import csv
import hashlib

import pytest

from ednetsim import parse_scenario, simulate
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


def test_calibrate_searches_plan_bounds_by_default(tmp_path):
    path = tmp_path / "cal.yaml"
    path.write_text(CALIBRATE_SCENARIO.replace("plan_bounds: [1, 6]", "plan_bounds: [2, 3]"))
    out = tmp_path / "out"
    code = main(["calibrate", "--scenario", str(path), "--replications", "1", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "calibrated_plan.csv")
    assert rows[1][1:] == ["3", "3", "3"]
    assert rows[2][1:] == ["2", "2", "2"]


@pytest.mark.parametrize("bounds", [("2", "7"), ("0", "3"), ("3", "2")])
def test_calibrate_bounds_outside_plan_bounds_fail_first(tmp_path, capsys, monkeypatch, bounds):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --bounds")

    monkeypatch.setattr(simulate, "run_replication", no_simulation)
    path = tmp_path / "cal.yaml"
    path.write_text(CALIBRATE_SCENARIO)
    args = ["calibrate", "--scenario", str(path), "--bounds", *bounds, "--out", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    lo, hi = bounds
    assert err.startswith(f"error: capacity bounds [{lo}, {hi}] must be a range within ")
    assert "plan_bounds [1, 6]" in err
    assert not (tmp_path / "calibrated_plan.csv").exists()


@pytest.mark.parametrize("replications", ["0", "-1"])
def test_calibrate_needs_one_replication(tmp_path, capsys, replications):
    path = tmp_path / "cal.yaml"
    path.write_text(CALIBRATE_SCENARIO)
    args = ["calibrate", "--scenario", str(path), "--replications", replications,
            "--bounds", "2", "3", "--out", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: need at least one replication, got {replications}")
    assert not (tmp_path / "calibrated_plan.csv").exists()


def test_calibrated_plan_for_other_eds_fails(tmp_path, capsys):
    # same number of EDs as the scenario, other names: a plan for another network
    path = tmp_path / "cal.yaml"
    path.write_text(CALIBRATE_SCENARIO)
    out = tmp_path / "out"
    out.mkdir()
    plan_path = out / "calibrated_plan.csv"
    plan_path.write_text("ED,slot1,slot2,slot3\nNord,2,2,2\nSud,3,3,3\n")
    for command in ("simulate", "optimize"):
        args = [command, "--scenario", str(path), "--replications", "1", "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {plan_path}: ")
        assert "['Nord', 'Sud']" in err and "['busy', 'idle']" in err
    assert sorted(p.name for p in out.iterdir()) == ["calibrated_plan.csv"]


@pytest.mark.parametrize("seed", ["-5", "-1"])
def test_negative_seed_fails(scenario_file, tmp_path, capsys, seed):
    args = ["simulate", "--scenario", str(scenario_file), "--seed", seed, "--out", str(tmp_path)]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: --seed: value {seed} below minimum 0")
    assert not (tmp_path / "nva.csv").exists()


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
        ("[0, 12]", "[0, .inf]", "transfer_minutes[0][1]"),
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


def _csv_digests(out_dir):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.glob("*.csv"))
    }


# sha256 of every CSV the commands below write; a change to any of them
# means the simulated numbers or their formatting moved.
PINNED_DIGESTS = {
    "simulate_P1": {
        "diversions.csv": "8172acdcb92605650cdd945c01325542f4e8e9ba5355e824e8ffc3a9e93aabde",
        "nva.csv": "912b823513cb945e4be5be723ed1a7387b078c30a70280494277a81f4da4689f",
    },
    "simulate_P2": {
        "diversions.csv": "f88909aecc85d122e79acba99fa7d2346197164786d034d098f5635cb53626e5",
        "nva.csv": "f29a02f463f67b7e7e0b945883947d557fc02eb384cec7187cbe6cb44009c621",
    },
    "simulate_P3": {
        "diversions.csv": "42d7b4ae8240442aa1a691a870e047ee0a64637caf4b29c89aeac7ae127e3e10",
        "nva.csv": "ced4ece84173ef2554ed6c8645f1fe1d5ad3e01f5acb8b0d672f53b3d32fffea",
    },
    "simulate_P4": {
        "diversions.csv": "ec6c599df800b37d96804e0181df9a4eba41562e39d49fa0f8849a63d29d741d",
        "nva.csv": "8ab9b1809f86f47295b56a6a4bc5c3d184333e45f40d09accc948df83d8cd1f5",
    },
    "optimize_report": {
        "objective_P2.csv": "c3b36ece1327fa16317f7a594c55966ccb57eff98251acdfcf642dc427819a06",
        "optimal_nva_P2.csv": "f29a02f463f67b7e7e0b945883947d557fc02eb384cec7187cbe6cb44009c621",
        "optimal_plan_P2.csv": "cf113b893e8b98ddfacc2a12257cdb40421ef6efe3bfe3199063bed3d99295cc",
        "summary_objectives.csv": "d3a538ced346518d99a3a20afda188fb208dd7d6c0d862f4750094bfe57b934b",
        "summary_plans.csv": "ba38a07818dca773b26e6c7baa6a20de982f58cfe66bdcf7c69fd8a0293c2a76",
    },
    "calibrate": {
        "calibrated_plan.csv": "4ef542d16a0fd27543d1f881c6c7b70fbd2226e93269fe18d9866a74220bc556",
    },
}


def test_cli_outputs_pinned(scenario_file, tmp_path):
    digests = {}
    common = ["--replications", "2", "--seed", "5"]
    for policy in ("P1", "P2", "P3", "P4"):
        out = tmp_path / f"simulate_{policy}"
        args = ["simulate", "--scenario", str(scenario_file), "--policy", policy]
        assert main([*args, *common, "--out", str(out)]) == 0
        digests[f"simulate_{policy}"] = _csv_digests(out)

    out = tmp_path / "optimize"
    args = ["optimize", "--scenario", str(scenario_file), "--policy", "P2", "--budget", "6"]
    assert main([*args, *common, "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0
    digests["optimize_report"] = _csv_digests(out)

    cal = tmp_path / "cal.yaml"
    cal.write_text(CALIBRATE_SCENARIO)
    out = tmp_path / "calibrate"
    args = ["calibrate", "--scenario", str(cal), "--bounds", "2", "3", "--replications", "1"]
    assert main([*args, "--out", str(out)]) == 0
    digests["calibrate"] = _csv_digests(out)

    assert digests == PINNED_DIGESTS
