"""Scenario-file parsing and validation tests."""

import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from ednetsim import ObjectiveSpec, ScenarioError, parse_scenario, scenario_from_dict
from ednetsim.distributions import ArrivalProcess
from ednetsim.network import RED, YELLOW


def minimal_ed(name="A", rates=(0.1, 0.1, 0.1)):
    return {
        "name": name,
        "arrivals": {"yellow": {"rates": list(rates)}},
        "los": {
            "yellow": {"family": "exponential", "mean": 30.0},
            "red": {"family": "exponential", "mean": 30.0},
        },
    }


def paper_dict(n=6):
    eds = []
    for i in range(n):
        ed = minimal_ed(f"ED{i + 1}")
        ed["arrivals"]["yellow"] = {"counts": [875, 2688, 2279]}
        ed["arrivals"]["red"] = {"counts": [94, 299, 187]}
        eds.append(ed)
    return {
        "eds": eds,
        "transfer_minutes": [
            [0.0 if i == j else 10.0 + (i + j) % 3 * 5.0 for j in range(n)]
            for i in range(n)
        ],
    }


def test_counts_convert_to_rates():
    sc = scenario_from_dict(paper_dict())
    yellow = sc.arrivals[0][YELLOW]
    assert yellow.slot_rates[1] == pytest.approx(0.015342, abs=1e-6)
    assert yellow.slot_rates[0] == pytest.approx(875 / (365.0 * 480.0))
    red = sc.arrivals[0][RED]
    assert red.slot_rates[2] == pytest.approx(187 / (365.0 * 480.0))


def test_nonzero_diagonal_rejected():
    data = paper_dict()
    data["transfer_minutes"][2][2] = 3.0
    with pytest.raises(ScenarioError, match="transfer_minutes.*diagonal"):
        scenario_from_dict(data)


def test_transfer_size_must_match_eds():
    data = paper_dict()
    data["transfer_minutes"] = [[0.0, 10.0], [10.0, 0.0]]
    with pytest.raises(ScenarioError, match="transfer_minutes"):
        scenario_from_dict(data)


def test_missing_los_names_key_path():
    data = {"eds": [dict(minimal_ed())]}
    del data["eds"][0]["los"]
    with pytest.raises(ScenarioError, match=r"eds\[0\]\.los"):
        scenario_from_dict(data)


def test_counts_and_rates_are_exclusive():
    ed = minimal_ed()
    ed["arrivals"]["yellow"] = {"counts": [1, 2, 3], "rates": [0.1, 0.1, 0.1]}
    with pytest.raises(ScenarioError, match=r"arrivals\.yellow"):
        scenario_from_dict({"eds": [ed]})
    ed["arrivals"]["yellow"] = {}
    with pytest.raises(ScenarioError, match="exactly one"):
        scenario_from_dict({"eds": [ed]})


def test_negative_rate_names_key_path():
    ed = minimal_ed(rates=(0.1, -0.2, 0.1))
    with pytest.raises(ScenarioError, match=r"eds\[0\]\.arrivals\.yellow\.rates\[1\]"):
        scenario_from_dict({"eds": [ed]})


def test_unknown_tag_rejected():
    ed = minimal_ed()
    ed["arrivals"]["green"] = {"rates": [0.1, 0.1, 0.1]}
    with pytest.raises(ScenarioError, match="unknown tag"):
        scenario_from_dict({"eds": [ed]})
    # only a missing or null mapping means "no arrivals"
    ed["arrivals"] = None
    assert scenario_from_dict({"eds": [ed]}).arrivals == ((None, None),)
    ed["arrivals"] = []
    with pytest.raises(ScenarioError, match=r"^eds\[0\]\.arrivals: expected a mapping, got list"):
        scenario_from_dict({"eds": [ed]})


def test_bad_los_family_names_key_path():
    ed = minimal_ed()
    ed["los"]["red"] = {"family": "cauchy"}
    with pytest.raises(ScenarioError, match=r"eds\[0\]\.los\.red"):
        scenario_from_dict({"eds": [ed]})


def test_per_slot_los_list():
    ed = minimal_ed()
    ed["los"]["yellow"] = [
        {"family": "exponential", "mean": 20.0},
        {"family": "exponential", "mean": 30.0},
        {"family": "exponential", "mean": 40.0},
    ]
    sc = scenario_from_dict({"eds": [ed]})
    assert sc.los[0][YELLOW][0].params["mean"] == 20.0
    assert sc.los[0][YELLOW][2].params["mean"] == 40.0
    assert sc.los[0][RED][0] is sc.los[0][RED][2]  # shared default

    ed["los"]["yellow"] = ed["los"]["yellow"][:2]
    with pytest.raises(ScenarioError, match="per-slot list"):
        scenario_from_dict({"eds": [ed]})


def test_policy_parsing():
    data = {"eds": [minimal_ed(), minimal_ed("B")], "transfer_minutes": [[0, 5], [5, 0]]}
    assert scenario_from_dict(data).policy.id == "P1"
    data["policy"] = "P4"
    assert scenario_from_dict(data).policy.id == "P4"
    data["policy"] = {"id": "P3", "p3_thresholds": [2, 3], "cascade": True}
    sc = scenario_from_dict(data)
    assert sc.policy.p3_thresholds == (2, 3)
    assert sc.policy.cascade is True
    data["policy"] = {"id": "P7"}
    with pytest.raises(ScenarioError, match="policy"):
        scenario_from_dict(data)
    data["policy"] = {"id": "P3", "p3_thresholds": [2]}
    with pytest.raises(ScenarioError, match="p3_thresholds"):
        scenario_from_dict(data)
    data["policy"] = {"id": "P3", "p3_thresholds": [2, 2.5]}
    with pytest.raises(ScenarioError, match=r"policy\.p3_thresholds\[1\]"):
        scenario_from_dict(data)
    data["policy"] = {"id": "P2", "cascade": "no"}
    with pytest.raises(ScenarioError, match=r"policy\.cascade: expected true or false"):
        scenario_from_dict(data)
    # only a missing or null policy means P1
    data["policy"] = None
    assert scenario_from_dict(data).policy.id == "P1"
    data["policy"] = ""
    with pytest.raises(ScenarioError, match=r"^policy\.id: unknown policy ''"):
        scenario_from_dict(data)


def test_objective_and_replication_blocks():
    data = {
        "eds": [minimal_ed()],
        "objective": {"weights": [2, 100, 200], "nva_limits": [30, 15]},
        "replication": {"horizon_days": 10, "warmup_hours": 8, "seed": 42},
    }
    sc = scenario_from_dict(data)
    assert sc.objective_spec.weights == (2.0, 100.0, 200.0)
    assert sc.objective_spec.nva_limits == (30.0, 15.0)
    assert sc.replication.horizon == 10 * 1440.0
    assert sc.replication.warmup == 480.0
    assert sc.replication.seed == 42

    data["replication"] = {"horizon_days": 10, "horizon_minutes": 100.0}
    with pytest.raises(ScenarioError, match="not both"):
        scenario_from_dict(data)
    # only a missing or null block means the defaults
    data["objective"], data["replication"] = None, None
    assert scenario_from_dict(data).objective_spec == ObjectiveSpec()
    data["objective"] = 0
    with pytest.raises(ScenarioError, match="^objective: expected a mapping, got int"):
        scenario_from_dict(data)


def test_defaults():
    sc = scenario_from_dict({"eds": [minimal_ed()]})
    assert sc.policy.id == "P1"
    assert sc.plan_bounds == (2, 10)
    assert sc.objective_spec.weights == (1.0, 300.0, 600.0)
    assert sc.replication.horizon == 365 * 1440.0
    assert sc.real_waits is None
    assert sc.starting_plan is None
    assert sc.transfer.shape == (1, 1)


def test_study_inputs_are_frozen():
    # kept runs are keyed by what they were made from; an assigned setting
    # would leave them standing under a scenario they no longer match
    sc = scenario_from_dict(paper_dict())
    with pytest.raises(FrozenInstanceError):
        sc.replication = replace(sc.replication, seed=99)
    with pytest.raises(FrozenInstanceError):
        sc.replication.seed = 99
    with pytest.raises(FrozenInstanceError):
        sc.policy.id = "P4"
    assert (sc.replication.seed, sc.policy.id) == (1, "P1")


def test_study_inputs_cannot_be_edited_in_place():
    # an in-place edit would leave the kept timelines of the old inputs standing
    data = paper_dict(2)
    for ed in data["eds"]:
        ed["real_waits"] = {"yellow": [10, 20, 30], "red": [1, 2, 3]}
    data["starting_plan"] = [[3, 3, 3], [4, 4, 4]]
    data["replication"] = {"horizon_days": 1, "warmup_minutes": 0}
    data["policy"] = {"id": "P3", "p3_thresholds": [1, 2]}
    data["eds"][1]["los"]["red"] = {"family": "empirical", "values": [10, 20]}
    sc = scenario_from_dict(data)
    yellow = sc.arrivals[0][YELLOW]
    with pytest.raises(TypeError):
        yellow.slot_rates[0] = 1.0
    # the derived cumulative intensity would keep the old rates
    with pytest.raises(FrozenInstanceError):
        yellow.slot_rates = (1.0, 1.0, 1.0)
    assert yellow.cumulative_intensity(480.0) == pytest.approx(480.0 * yellow.slot_rates[0])
    for los in (sc.los[0][YELLOW][0], sc.los[1][RED][0]):
        with pytest.raises(TypeError):
            los.params["mean"] = 99
        median = los.quantile(0.5)
        for name, value in (("family", "exponential"), ("params", {"mean": 99.0})):
            with pytest.raises(FrozenInstanceError):
                setattr(los, name, value)
        assert los.quantile(0.5) == median
    with pytest.raises(TypeError):
        sc.los[1][RED][0].params["values"][0] = 99
    with pytest.raises(AttributeError):
        sc.ed_names.append("ED3")
    assert sc.n_eds == 2
    with pytest.raises(TypeError):
        sc.policy.p3_thresholds[0] = 0
    assert sc.policy.p3_thresholds == (1, 2)
    with pytest.raises(TypeError):
        sc.arrivals[0] = (None, None)
    with pytest.raises(TypeError):
        sc.los[0][YELLOW][0] = sc.los[0][RED][0]
    for array in (sc.transfer, sc.real_waits, sc.starting_plan):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 99


def test_real_waits_parsing_and_partial_error():
    ed_a, ed_b = minimal_ed("A"), minimal_ed("B")
    ed_a["real_waits"] = {"yellow": [30, 45, 40], "red": [10, 15, 12]}
    data = {"eds": [ed_a, ed_b], "transfer_minutes": [[0, 5], [5, 0]]}
    with pytest.raises(ScenarioError, match="missing for B"):
        scenario_from_dict(data)
    ed_b["real_waits"] = {"yellow": [1, 2, 3], "red": [1, 1, 1]}
    sc = scenario_from_dict(data)
    assert sc.real_waits.shape == (2, 3, 2)
    assert sc.real_waits[0, 1, YELLOW] == 45.0
    assert sc.real_waits[0, 2, RED] == 12.0


@pytest.mark.parametrize(
    "names, message",
    [
        (["A", "A"], r"eds\[1\]\.name: 'A' is already the name of eds\[0\]"),
        (["B", "ED3", None], r"eds\[2\]\.name: 'ED3' is already the name of eds\[1\]"),
        (["ED2", None], r"eds\[1\]\.name: 'ED2' is already the name of eds\[0\]"),
    ],
)
def test_duplicate_ed_names_rejected(names, message):
    # the CSVs and report tell EDs apart by name, given or defaulted
    eds = [minimal_ed(name) for name in names]
    for ed in eds:
        if ed["name"] is None:
            del ed["name"]
    n = len(eds)
    transfer = [[0 if i == j else 5 for j in range(n)] for i in range(n)]
    data = {"eds": eds, "transfer_minutes": transfer}
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(data)


def test_starting_plan_validation():
    data = {"eds": [minimal_ed()], "starting_plan": [[4, 4, 4]]}
    sc = scenario_from_dict(data)
    assert np.array_equal(sc.starting_plan, [[4, 4, 4]])
    data["starting_plan"] = [[4, 4]]
    with pytest.raises(ScenarioError, match="starting_plan"):
        scenario_from_dict(data)
    data["starting_plan"] = [[4, 4, 4.5]]
    with pytest.raises(ScenarioError, match="integers"):
        scenario_from_dict(data)
    data["starting_plan"] = [[4, 4, 11]]
    with pytest.raises(ScenarioError, match="plan_bounds"):
        scenario_from_dict(data)
    data["starting_plan"] = [[4, 4, 4], [4, 4, 4]]
    with pytest.raises(ScenarioError, match="starting_plan"):
        scenario_from_dict(data)


def test_plan_bounds_validation():
    data = {"eds": [minimal_ed()], "plan_bounds": [5, 2]}
    with pytest.raises(ScenarioError, match="plan_bounds"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "key, value, path",
    [
        ("starting_plan", [[float("inf"), 2, 2]], r"starting_plan\[0\]\[0\]"),
        ("plan_bounds", [2, float("inf")], r"plan_bounds\[1\]"),
        ("starting_plan", [[4, float("nan"), 4]], r"starting_plan\[0\]\[1\]"),
    ],
)
def test_non_finite_numbers_name_key_path(key, value, path):
    data = {"eds": [minimal_ed()], key: value}
    with pytest.raises(ScenarioError, match=path + ": expected a finite number"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[0, float("inf")], [float("inf"), 0]], r"transfer_minutes\[0\]\[1\]: expected a finite"),
        ([[0, float("nan")], [5, 0]], r"transfer_minutes\[0\]\[1\]: expected a finite"),
        ([[0, True], [5, 0]], r"transfer_minutes\[0\]\[1\]: expected a number"),
        ([[0, "abc"], [5, 0]], r"transfer_minutes\[0\]\[1\]: expected a number"),
        ([[0, 5], [5]], r"transfer_minutes\[1\]: expected a list of 2 numbers"),
    ],
)
def test_transfer_entries_name_key_path(matrix, message):
    data = {"eds": [minimal_ed(), minimal_ed("B")], "transfer_minutes": matrix}
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "block, path",
    [
        ({"seed": float("inf")}, r"replication\.seed: expected a finite number"),
        ({"seed": 2.5}, r"replication\.seed: expected integers only"),
        ({"seed": "7"}, r"replication\.seed: expected a number"),
        ({"seed": -5}, r"replication\.seed: value -5 below minimum 0"),
        ({"horizon_days": "abc"}, r"replication\.horizon_days: expected a number"),
        ({"horizon_days": float("inf")}, r"replication\.horizon_days: expected a finite number"),
        ({"horizon_minutes": float("nan")}, r"replication\.horizon_minutes: expected a finite"),
        ({"warmup_minutes": -5}, r"replication\.warmup_minutes: value -5 below minimum"),
        ({"warmup_hours": True}, r"replication\.warmup_hours: expected a number"),
        (0, r"^replication: expected a mapping, got int"),
    ],
)
def test_replication_block_names_key_path(block, path):
    data = {"eds": [minimal_ed()], "replication": block}
    with pytest.raises(ScenarioError, match=path):
        scenario_from_dict(data)


def _with_key(data, where, key):
    node = data
    for step in where:
        node = node[step]
    node[key] = 1
    return data


@pytest.mark.parametrize(
    "where, key, path",
    [
        ((), "plan_bound", r"^plan_bound: unknown key"),
        (("eds", 0), "arivals", r"^eds\[0\]\.arivals: unknown key"),
        (("eds", 0, "los"), "green", r"^eds\[0\]\.los\.green: unknown tag"),
        (("eds", 0, "real_waits"), "yelow", r"^eds\[0\]\.real_waits\.yelow: unknown key"),
        (("policy",), "cascde", r"^policy\.cascde: unknown key"),
        (("objective",), "weight", r"^objective\.weight: unknown key"),
        (("replication",), "horizon_day", r"^replication\.horizon_day: unknown key"),
        (
            ("eds", 0, "los", "yellow"),
            "meen",
            r"^eds\[0\]\.los\.yellow: meen: unknown exponential LOS parameter",
        ),
        (("eds", 0, "arrivals", "yellow"), "rate", r"^eds\[0\]\.arrivals\.yellow\.rate: unknown key"),
    ],
)
def test_unknown_keys_rejected(where, key, path):
    ed = minimal_ed()
    ed["real_waits"] = {"yellow": [1, 2, 3], "red": [1, 1, 1]}
    data = {
        "eds": [ed],
        "policy": {"id": "P1"},
        "objective": {"weights": [1, 300, 600]},
        "replication": {"horizon_days": 10},
    }
    assert scenario_from_dict(data).replication.horizon == 10 * 1440.0
    with pytest.raises(ScenarioError, match=path):
        scenario_from_dict(_with_key(data, where, key))


SCENARIO_FILES = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))


def _readme_yaml_blocks():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.findall(r"^```yaml\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)


needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML has no libyaml loader here"
)


def _each_loader(monkeypatch):
    """Yield under PyYAML's libyaml safe loader, if it has one, then as if it had none."""
    if hasattr(yaml, "CSafeLoader"):
        yield "libyaml"
        monkeypatch.delattr(yaml, "CSafeLoader")
    yield "python"


def _study_inputs(sc):
    """repr of every compared Scenario field (repr also tells 1 from 1.0)."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, ArrivalProcess):
            return value.slot_rates
        if isinstance(value, tuple):
            return tuple(plain(v) for v in value)
        return value
    return repr({f.name: plain(getattr(sc, f.name)) for f in fields(sc) if f.compare})


@needs_libyaml
def test_both_yaml_loaders_give_the_same_scenario(tmp_path, monkeypatch):
    paths = list(SCENARIO_FILES)
    for k, block in enumerate(_readme_yaml_blocks()):
        paths.append(tmp_path / f"readme{k}.yaml")
        paths[-1].write_text(block)
    with_c = [_study_inputs(parse_scenario(p)) for p in paths]
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert [_study_inputs(parse_scenario(p)) for p in paths] == with_c


@needs_libyaml
def test_parse_scenario_uses_libyaml_when_pyyaml_has_it(monkeypatch):
    streams = []

    class Spy(yaml.CSafeLoader):
        def __init__(self, stream):
            streams.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Spy)
    parse_scenario(SCENARIO_FILES[0])
    assert len(streams) == 1


def test_parse_scenario_file(tmp_path, monkeypatch):
    path = tmp_path / "mini.yaml"
    path.write_text(
        "eds:\n"
        "  - name: A\n"
        "    arrivals:\n"
        "      yellow: {rates: [0.1, 0.1, 0.1]}\n"
        "    los:\n"
        "      yellow: {family: exponential, mean: 30}\n"
        "      red: {family: exponential, mean: 30}\n"
    )
    for _ in _each_loader(monkeypatch):
        sc = parse_scenario(path)
        assert sc.name == "mini"
        assert sc.n_eds == 1


def test_readme_scenario_examples_parse():
    blocks = _readme_yaml_blocks()
    assert blocks
    for block in blocks:
        data = yaml.safe_load(block)
        sc = scenario_from_dict(data)
        assert sc.n_eds == len(data["eds"])


def test_parse_scenario_errors(tmp_path, monkeypatch):
    bad = tmp_path / "bad.yaml"
    bad.write_text("eds: [\n")
    top = tmp_path / "top.yaml"
    top.write_text("- 1\n- 2\n")
    for _ in _each_loader(monkeypatch):
        with pytest.raises(ScenarioError, match="not found"):
            parse_scenario(tmp_path / "absent.yaml")
        with pytest.raises(ScenarioError, match="not well-formed"):
            parse_scenario(bad)
        with pytest.raises(ScenarioError, match="top level"):
            parse_scenario(top)


def test_undecodable_scenario_file_is_named(tmp_path, monkeypatch):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"eds:\n  - name: \xff\n")
    for _ in _each_loader(monkeypatch):
        with pytest.raises(ScenarioError, match=rf"^{re.escape(str(bad))}: not well-formed: .*#x00ff"):
            parse_scenario(bad)
