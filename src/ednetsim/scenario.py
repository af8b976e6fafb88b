"""Scenario files: every input of a study in one structured text file.

A scenario bundles the ED list with arrival volumes (annual counts or
per-minute rates), visit-time distributions, the inter-ED transport
matrix, the active diversion policy, objective weights, replication
defaults, and optionally observed waits (for calibration) and a starting
resource plan.  Validation errors name the offending key path so a bad
file can be fixed without reading this module.
"""

import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .distributions import (
    SLOTS_PER_DAY,
    ArrivalProcess,
    LosDistribution,
    finite_number,
    rate_from_annual_count,
)
from .engine import ReplicationSpec
from .network import TAG_NAMES, PolicySpec, validate_transfer_matrix
from .objective import ObjectiveSpec


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the key path."""


def _require(mapping, key, path):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(mapping).__name__}")
    if key not in mapping:
        raise ScenarioError(f"{path}.{key}: required key is missing")
    return mapping[key]


def _known_keys(mapping, allowed, path, kind="key"):
    """ScenarioError naming the first key of `mapping` outside `allowed`."""
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(mapping).__name__}")
    for key in mapping:
        if key not in allowed:
            name = f"{path}.{key}" if path else key
            raise ScenarioError(f"{name}: unknown {kind}; expected one of {', '.join(allowed)}")


def _number(v, path, minimum=None):
    """v as a float, or a ScenarioError naming path unless it is a finite number."""
    try:
        x = finite_number(v, path)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    if minimum is not None and x < minimum:
        raise ScenarioError(f"{path}: value {v} below minimum {minimum}")
    return x


def _integer(v, path, minimum=None):
    """v as an int, or a ScenarioError naming path unless it is a whole number."""
    if not _number(v, path, minimum).is_integer():
        raise ScenarioError(f"{path}: expected integers only, got {v!r}")
    return int(v)


def _numbers(value, count, path, minimum=None, read=_number):
    """A list of `count` entries, each checked by `read` (_number or _integer)."""
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ScenarioError(f"{path}: expected a list of {count} numbers")
    return [read(v, f"{path}[{k}]", minimum) for k, v in enumerate(value)]


def _arrival_process(node, path):
    if node is None:
        return None
    _known_keys(node, ("counts", "rates"), path)
    has_counts = "counts" in node
    has_rates = "rates" in node
    if has_counts == has_rates:
        raise ScenarioError(f"{path}: give exactly one of 'counts' or 'rates'")
    if has_counts:
        counts = _numbers(node["counts"], SLOTS_PER_DAY, f"{path}.counts", minimum=0.0)
        rates = [rate_from_annual_count(c) for c in counts]
    else:
        rates = _numbers(node["rates"], SLOTS_PER_DAY, f"{path}.rates", minimum=0.0)
    return ArrivalProcess(rates)


def _los_distribution(node, path):
    if not isinstance(node, dict) or "family" not in node:
        raise ScenarioError(f"{path}: expected a mapping with a 'family' key")
    params = {k: v for k, v in node.items() if k != "family"}
    try:
        return LosDistribution(node["family"], params)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _los_slots(node, path):
    """One distribution per slot; a single mapping applies to all slots."""
    if isinstance(node, list):
        if len(node) != SLOTS_PER_DAY:
            raise ScenarioError(f"{path}: per-slot list needs {SLOTS_PER_DAY} entries")
        return tuple(_los_distribution(item, f"{path}[{k}]") for k, item in enumerate(node))
    return (_los_distribution(node, path),) * SLOTS_PER_DAY


def _real_waits(node, path):
    """The (slot, tag) table of observed mean waits."""
    _known_keys(node, TAG_NAMES, path)
    waits = [_numbers(_require(node, tag, path), SLOTS_PER_DAY, f"{path}.{tag}", minimum=0.0)
             for tag in TAG_NAMES]
    return np.array(waits).T


def _read_only(array):
    array.flags.writeable = False
    return array


def _duration(node, default, **units):
    """In minutes, the one duration of `units` (key=minutes per unit) that node gives."""
    given = [key for key in units if key in node]
    if len(given) > 1:
        raise ScenarioError(f"replication: give {' or '.join(given)}, not both")
    if not given:
        return default
    return _number(node[given[0]], f"replication.{given[0]}", 0.0) * units[given[0]]


@dataclass(frozen=True)
class Scenario:
    """Fully validated study inputs; see parse_scenario."""

    name: str
    ed_names: tuple
    arrivals: tuple         # [ed][tag] -> ArrivalProcess | None
    los: tuple              # [ed][tag][slot] -> LosDistribution
    transfer: np.ndarray    # read-only, as are real_waits and starting_plan
    policy: PolicySpec
    objective_spec: ObjectiveSpec
    replication: ReplicationSpec
    plan_bounds: tuple
    real_waits: np.ndarray | None = None      # (n_eds, 3 slots, 2 tags)
    starting_plan: np.ndarray | None = None   # (n_eds, 3 slots) ints
    # simulate's kept Timeline by (horizon, seed): the arrivals, each ED's slice
    # of them and its LosStore; and replicate_alone's per-replication results
    # by (ED, plan row), replication k at index k, which a call for more
    # replications extends.  Calibration's stopping bound needs every kept wait
    # cell >= 0, censored waits included.  Every copy starts with empty caches
    timelines: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    solo_runs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n_eds(self):
        return len(self.ed_names)


def scenario_from_dict(data, name="inline"):
    """Validate a parsed scenario mapping into a Scenario."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario: top level must be a mapping")
    _known_keys(
        data,
        ("name", "eds", "transfer_minutes", "policy", "objective", "replication",
         "plan_bounds", "starting_plan"),
        "",
    )
    name = str(data.get("name", name))

    eds = _require(data, "eds", "scenario")
    if not isinstance(eds, list) or not eds:
        raise ScenarioError("eds: expected a non-empty list")

    ed_names, arrivals, los, real_rows = [], [], [], []
    for i, ed in enumerate(eds):
        path = f"eds[{i}]"
        _known_keys(ed, ("name", "arrivals", "los", "real_waits"), path)
        ed_name = str(ed.get("name", f"ED{i + 1}"))
        if ed_name in ed_names:
            taken = f"eds[{ed_names.index(ed_name)}]"
            raise ScenarioError(f"{path}.name: {ed_name!r} is already the name of {taken}")
        ed_names.append(ed_name)

        arr_node = {} if ed.get("arrivals") is None else ed["arrivals"]
        _known_keys(arr_node, TAG_NAMES, f"{path}.arrivals", kind="tag")
        arrivals.append(tuple(
            _arrival_process(arr_node.get(tag), f"{path}.arrivals.{tag}") for tag in TAG_NAMES
        ))
        los_node = _require(ed, "los", path)
        _known_keys(los_node, TAG_NAMES, f"{path}.los", kind="tag")
        los.append(tuple(
            _los_slots(_require(los_node, tag, f"{path}.los"), f"{path}.los.{tag}")
            for tag in TAG_NAMES
        ))

        real_rows.append(
            None
            if "real_waits" not in ed
            else _real_waits(ed["real_waits"], f"{path}.real_waits")
        )

    n = len(eds)
    if n == 1 and "transfer_minutes" not in data:
        rows = [[0.0]]
    else:
        rows = _require(data, "transfer_minutes", "scenario")
    if not isinstance(rows, list) or len(rows) != n:
        raise ScenarioError(f"transfer_minutes: expected {n} rows of {n} minutes, one per ED")
    transfer = [_numbers(row, n, f"transfer_minutes[{i}]") for i, row in enumerate(rows)]
    try:
        transfer = validate_transfer_matrix(transfer)
    except ValueError as exc:
        raise ScenarioError(f"transfer_minutes: {exc}") from None

    pol_node = {"id": "P1"} if data.get("policy") is None else data["policy"]
    if isinstance(pol_node, str):
        pol_node = {"id": pol_node}
    if not isinstance(pol_node, dict) or "id" not in pol_node:
        raise ScenarioError("policy: expected a policy id or a mapping with 'id'")
    _known_keys(pol_node, ("id", "p3_thresholds", "cascade"), "policy")
    thresholds = pol_node.get("p3_thresholds")
    if thresholds is not None:
        thresholds = tuple(_numbers(thresholds, n, "policy.p3_thresholds", 1, _integer))
    cascade = pol_node.get("cascade", False)
    if not isinstance(cascade, bool):
        raise ScenarioError(f"policy.cascade: expected true or false, got {cascade!r}")
    try:
        policy = PolicySpec(id=str(pol_node["id"]), p3_thresholds=thresholds, cascade=cascade)
    except ValueError as exc:
        raise ScenarioError(f"policy.id: {exc}") from None

    obj_node = {} if data.get("objective") is None else data["objective"]
    _known_keys(obj_node, ("weights", "nva_limits"), "objective")
    objective_spec = ObjectiveSpec(
        weights=tuple(
            _numbers(obj_node["weights"], 3, "objective.weights")
            if "weights" in obj_node
            else ObjectiveSpec.weights
        ),
        nva_limits=tuple(
            _numbers(obj_node["nva_limits"], 2, "objective.nva_limits", minimum=0.0)
            if "nva_limits" in obj_node
            else ObjectiveSpec.nva_limits
        ),
    )

    rep_node = {} if data.get("replication") is None else data["replication"]
    _known_keys(
        rep_node,
        ("horizon_minutes", "horizon_days", "warmup_minutes", "warmup_hours", "seed"),
        "replication",
    )
    defaults = ReplicationSpec()
    horizon = _duration(rep_node, defaults.horizon, horizon_minutes=1.0, horizon_days=1440.0)
    warmup = _duration(rep_node, defaults.warmup, warmup_minutes=1.0, warmup_hours=60.0)
    seed = defaults.seed
    if "seed" in rep_node:
        seed = _integer(rep_node["seed"], "replication.seed", minimum=0)
    try:
        replication = ReplicationSpec(horizon=horizon, warmup=warmup, seed=seed)
    except ValueError as exc:
        raise ScenarioError(f"replication: {exc}") from None

    low, high = _numbers(data.get("plan_bounds", [2, 10]), 2, "plan_bounds", 1, _integer)
    if low > high:
        raise ScenarioError(f"plan_bounds: low {low} exceeds high {high}")
    plan_bounds = (low, high)

    with_waits = [i for i, row in enumerate(real_rows) if row is not None]
    if with_waits and len(with_waits) != n:
        missing = ", ".join(ed_names[i] for i in range(n) if real_rows[i] is None)
        raise ScenarioError(f"eds: real_waits present for some EDs but missing for {missing}")
    real_waits = _read_only(np.stack(real_rows)) if with_waits else None

    starting_plan = None
    if "starting_plan" in data:
        rows = data["starting_plan"]
        if not isinstance(rows, list) or len(rows) != n:
            raise ScenarioError(f"starting_plan: expected {n} rows of {SLOTS_PER_DAY} counts")
        plan = []
        for i, row in enumerate(rows):
            values = _numbers(row, SLOTS_PER_DAY, f"starting_plan[{i}]", plan_bounds[0], _integer)
            if max(values) > plan_bounds[1]:
                raise ScenarioError(
                    f"starting_plan[{i}]: count above plan_bounds max {plan_bounds[1]}"
                )
            plan.append(values)
        starting_plan = _read_only(np.array(plan, dtype=int))

    return Scenario(
        name=name,
        ed_names=tuple(ed_names),
        arrivals=tuple(arrivals),
        los=tuple(los),
        transfer=_read_only(transfer),
        policy=policy,
        objective_spec=objective_spec,
        replication=replication,
        plan_bounds=plan_bounds,
        real_waits=real_waits,
        starting_plan=starting_plan,
    )


def parse_scenario(path):
    """Load and validate a scenario file, read as bytes: the loader detects the
    encoding, so a decoding error names the file.  libyaml's safe loader parses it
    when PyYAML has one; it builds the same objects as SafeLoader, faster."""
    try:
        with open(path, "rb") as fh:
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: not well-formed: {exc}") from None
    return scenario_from_dict(data, name=os.path.splitext(os.path.basename(str(path)))[0])
