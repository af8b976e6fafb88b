"""CSV and run-log writers shared by the command-line entry points.

All time quantities are serialized in minutes with two decimals, the
precision used throughout the reported tables.  Writers are plain
functions from in-memory results to files so commands stay trivially
testable.
"""

import csv
import os

from .network import TAG_NAMES


def fmt_minutes(value):
    return f"{float(value):.2f}"


def _open_csv(path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", newline="")


def write_nva_csv(path, ed_names, summary):
    """Per-(ED, tag) mean NVA time and 95% CI half-width."""
    with _open_csv(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["ed", "tag", "mean_nva", "half_width_95"])
        for i, name in enumerate(ed_names):
            for tag, tag_name in enumerate(TAG_NAMES):
                hw = summary.half_width[i, tag]  # NaN when R < 2
                hw = "" if hw != hw else fmt_minutes(hw)
                writer.writerow([name, tag_name, fmt_minutes(summary.mean_nva[i, tag]), hw])


def write_diversions_csv(path, ed_names, summary):
    """Mean diverted-away patients per replication, by origin ED."""
    with _open_csv(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["ed", "redirected_out"])
        for i, name in enumerate(ed_names):
            writer.writerow([name, fmt_minutes(summary.redirects[i])])


def write_plan_csv(path, ed_names, plan):
    """Capacity table, one row per ED: ED, slot1, slot2, slot3."""
    with _open_csv(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["ED", "slot1", "slot2", "slot3"])
        for name, row in zip(ed_names, plan):
            writer.writerow([name, *[int(v) for v in row]])


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
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["ED", "slot1", "slot2", "slot3"]:
        raise ValueError(f"{path}: not a capacity table")
    names, plan = [], []
    for row in rows[1:]:
        name, counts = _read_row(path, "ED", row, rows[0][1:], [int] * 3)
        names.append(name)
        plan.append(counts)
    return names, plan


def write_objective_csv(path, policy_id, f_start, f_opt, violation_opt, evaluations):
    """Starting and optimal objective values of one policy's run."""
    with _open_csv(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "f_start", "f_opt", "total_violation_opt", "evaluations"])
        writer.writerow(
            [
                policy_id,
                fmt_minutes(f_start),
                fmt_minutes(f_opt),
                fmt_minutes(violation_opt),
                int(evaluations),
            ]
        )


def read_objective_csv(path):
    """Inverse of write_objective_csv; returns the row as a dict by column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != 2 or rows[0][:3] != ["policy", "f_start", "f_opt"]:
        raise ValueError(f"{path}: not an objective table")
    columns = ["f_start", "f_opt", "total_violation_opt", "evaluations"]
    policy, values = _read_row(path, "policy", rows[1], columns, [float] * 3 + [int])
    return {"policy": policy, **dict(zip(columns, values))}


def write_summary_plans_csv(path, ed_names, plans_by_policy):
    """Wide optimal-plan table: one row per (ED, slot), one column per policy."""
    policies = sorted(plans_by_policy)
    with _open_csv(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["ED", "slot", *policies])
        for i, name in enumerate(ed_names):
            for slot in range(3):
                writer.writerow(
                    [name, slot + 1, *[int(plans_by_policy[p][i][slot]) for p in policies]]
                )


def write_summary_objectives_csv(path, results_by_policy):
    """Starting vs optimal objective value, one row per policy."""
    with _open_csv(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "f_start", "f_opt"])
        for policy in sorted(results_by_policy):
            row = results_by_policy[policy]
            writer.writerow(
                [policy, fmt_minutes(row["f_start"]), fmt_minutes(row["f_opt"])]
            )


def write_run_log(path, lines):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
