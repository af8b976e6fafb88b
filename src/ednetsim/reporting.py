"""CSV and run-log writers shared by the command-line entry points.

All time quantities are serialized in minutes with two decimals, the
precision used throughout the reported tables.  Writers are plain
functions from in-memory results to files so commands stay trivially
testable; every table goes through one writer, and the two tables that
are read back through one reader.
"""

import csv
import os

from .distributions import SLOTS_PER_DAY
from .network import TAG_NAMES

PLAN_COLUMNS = ["ED", *(f"slot{k}" for k in range(1, SLOTS_PER_DAY + 1))]
OBJECTIVE_COLUMNS = ["policy", "f_start", "f_opt", "total_violation_opt", "evaluations"]


def fmt_minutes(value):
    return f"{float(value):.2f}"


def _create(path):
    """path opened for writing, its directory made first."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", newline="")


def _write_table(path, header, rows):
    with _create(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_table(path, header, kind):
    """The data rows of a CSV whose first row must be `header`."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: not {kind}")
    return rows[1:]


def write_nva_csv(path, ed_names, summary):
    """Per-(ED, tag) mean NVA time and 95% CI half-width (empty when R < 2)."""
    hw = summary.half_width
    _write_table(path, ["ed", "tag", "mean_nva", "half_width_95"], (
        [name, tag_name, fmt_minutes(summary.mean_nva[i, tag]),
         "" if hw[i, tag] != hw[i, tag] else fmt_minutes(hw[i, tag])]
        for i, name in enumerate(ed_names) for tag, tag_name in enumerate(TAG_NAMES)
    ))


def write_diversions_csv(path, ed_names, summary):
    """Mean diverted-away patients per replication, by origin ED."""
    _write_table(path, ["ed", "redirected_out"],
                 ([name, fmt_minutes(n)] for name, n in zip(ed_names, summary.redirects)))


def write_plan_csv(path, ed_names, plan):
    """Capacity table, one row per ED: ED, slot1, slot2, slot3."""
    _write_table(path, PLAN_COLUMNS, ([name, *map(int, row)] for name, row in zip(ed_names, plan)))


def _read_row(path, kind, row, columns, readers):
    """The first cell of a CSV row and its other cells, read column by column.

    A missing or unreadable cell is a ValueError naming the path, the row
    (its `kind` and first cell) and the column.
    """
    name, *cells = row or [""]
    if len(cells) < len(columns):
        raise ValueError(f"{path}: {kind} {name!r}, {columns[len(cells)]}: value missing")
    if len(cells) > len(columns):
        raise ValueError(f"{path}: {kind} {name!r}: {len(cells)} values after {columns[-1]}")
    values = []
    for column, read, cell in zip(columns, readers, cells):
        try:
            values.append(read(cell))
        except ValueError:
            raise ValueError(
                f"{path}: {kind} {name!r}, {column}: expected {read.__name__}, got {cell!r}"
            ) from None
    return name, values


def read_plan_csv(path):
    """Inverse of write_plan_csv; returns (ed_names, rows)."""
    names, plan = [], []
    for row in _read_table(path, PLAN_COLUMNS, "a capacity table"):
        name, counts = _read_row(path, "ED", row, PLAN_COLUMNS[1:], [int] * SLOTS_PER_DAY)
        names.append(name)
        plan.append(counts)
    return tuple(names), plan


def write_objective_csv(path, policy_id, f_start, f_opt, violation_opt, evaluations):
    """Starting and optimal objective values of one policy's run."""
    minutes = map(fmt_minutes, (f_start, f_opt, violation_opt))
    _write_table(path, OBJECTIVE_COLUMNS, [[policy_id, *minutes, int(evaluations)]])


def read_objective_csv(path):
    """Inverse of write_objective_csv; returns the row as a dict by column."""
    rows = _read_table(path, OBJECTIVE_COLUMNS, "an objective table")
    if len(rows) != 1:
        raise ValueError(f"{path}: not an objective table")
    columns = OBJECTIVE_COLUMNS[1:]
    policy, values = _read_row(path, "policy", rows[0], columns, [float] * 3 + [int])
    return {"policy": policy, **dict(zip(columns, values))}


def write_summary_plans_csv(path, ed_names, plans_by_policy):
    """Wide optimal-plan table: one row per (ED, slot), one column per policy."""
    policies = sorted(plans_by_policy)
    _write_table(path, ["ED", "slot", *policies], (
        [name, slot + 1, *[int(plans_by_policy[p][i][slot]) for p in policies]]
        for i, name in enumerate(ed_names) for slot in range(SLOTS_PER_DAY)
    ))


def write_summary_objectives_csv(path, results_by_policy):
    """Starting vs optimal objective value, one row per policy."""
    _write_table(path, OBJECTIVE_COLUMNS[:3], (
        [p, fmt_minutes(row["f_start"]), fmt_minutes(row["f_opt"])]
        for p, row in sorted(results_by_policy.items())
    ))


def write_run_log(path, lines):
    with _create(path) as fh:
        fh.writelines(line + "\n" for line in lines)
