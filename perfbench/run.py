"""Benchmark of ednetsim: end-to-end metrics per workload, per-layer metrics traced.

Run from the root of the repository:

    python3 perfbench/run.py --workload optimize-p1 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py                         # every workload, default seeds
    python3 perfbench/run.py --record                # rewrite reference.json, BENCHMARK.json

A run repeats the workload, each invocation in a fresh process (worker.py),
for about --seconds seconds, and at least once.  Every invocation's CSVs are
hashed and checked (workloads.check_outputs); on a seed recorded in
reference.json the hash must equal the recorded one.  With --trace 1 the run
alternates untraced and traced invocations, reports the per-layer metrics of
the traced ones, and requires both kinds to write the same CSVs.

End-to-end times are scaled to a nominal host speed: each invocation's
times are multiplied by speed.NOMINAL_S over the median time of a fixed
loop run alongside it (see speed.py); the unscaled wall time is printed too.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

import speed
from workloads import ROOT, WORKLOADS, check_outputs, csv_digest

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
# A run must end within 180 s; a worker gets what is left of this.
RUN_LIMIT_S = 170.0
# Set-up is sampled at least this often per run, by set-up-only invocations
# when the workload itself is invoked fewer times.
SETUP_SAMPLES = 3
RECORD_SEEDS = range(0, 11)

RUN_SECONDS = 30
END_TO_END = [  # name, unit, bound (see README.md)
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("ops_per_s", "1/s", 0.25),
    ("op_p50_ms", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.05),
]
BETTER = {"ops_per_s": "higher"}
PER_LAYER = [
    ("simulate.replications", "count", "lower"),
    ("simulate.patients", "count", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.schedules", "count", "lower"),
    ("engine.calendar_s", "s", "lower"),
    ("engine.streams", "count", "lower"),
    ("distributions.los_samples", "count", "lower"),
    ("distributions.los_s", "s", "lower"),
    ("distributions.arrivals", "count", "lower"),
    ("distributions.arrival_s", "s", "lower"),
    ("distributions.summarize_s", "s", "lower"),
    ("network.routing_calls", "count", "lower"),
    ("network.routing_s", "s", "lower"),
    ("network.redirects", "count", "lower"),
    ("network.redirect_ratio", "ratio", "lower"),
    ("objective.saa_calls", "count", "lower"),
    ("objective.self_s", "s", "lower"),
    ("objective.replications", "count", "lower"),
    ("objective.distinct_rep_ratio", "ratio", "higher"),
    ("objective.distinct_ed_block_ratio", "ratio", "higher"),
    ("solver.evaluations", "count", "lower"),
    ("solver.linesearches", "count", "higher"),
    ("solver.sweeps", "count", "higher"),
    ("solver.evals_to_best", "count", "lower"),
    ("solver.self_s", "s", "lower"),
    ("calibrate.triples", "count", "lower"),
    ("calibrate.waits_s", "s", "lower"),
    ("calibrate.distinct_ed_block_ratio", "ratio", "higher"),
    ("scenario.parse_s", "s", "lower"),
    ("reporting.write_s", "s", "lower"),
    ("run.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
UNITS |= {"op_p90_ms": "ms", "unscaled_wall_s": "s"}
# Per-layer values that must repeat exactly between traced invocations.
EXACT_LAYERS = [name for name, unit, _ in PER_LAYER if unit != "s"]


def hd_median(values):
    """Harrell-Davis estimate of the median.

    A beta-weighted mean of all order statistics.  The ops of a workload fall
    into clusters (calibrate-demo: Nord's 64 triples cost more than Sud's),
    and the sample median then jumps across the gap between two clusters.
    """
    x = np.sort(values)
    a = (len(x) + 1) / 2
    return float(np.diff(betainc(a, a, np.linspace(0, 1, len(x) + 1))) @ x)


class Run:
    """Invocations of one workload on one seed, and what their checks found."""

    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.start = time.monotonic()
        self.invocations = []
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def elapsed(self):
        return time.monotonic() - self.start

    def invoke(self, trace=False, setup_only=False):
        """Runs worker.py once; returns its record, or None when it failed.

        An op that raises makes the CLI exit non-zero, so it fails the whole
        invocation, which counts as one failed op.
        """
        n = len(self.invocations)
        out = OUT / f"{self.workload.name}-seed{self.seed}-{n}"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--out", str(out), "--trace", str(int(trace))]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--spans", str(OUT / f"spans-{self.workload.name}-seed{self.seed}.jsonl")]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            error = None if proc.returncode == 0 and record["status"] == 0 else proc.stderr
        except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
            record, error = None, f"{exc}\n{getattr(exc, 'stderr', '')}"
        if error is not None:
            self.problems.append(f"invocation {n} failed: {error.strip()[-2000:]}")
            self.attempted += 1
            self.failed += 1
            shutil.rmtree(out, ignore_errors=True)
            return None
        record["trace"] = trace
        self.invocations.append(record)
        if not setup_only:
            self._check(record, out)
        shutil.rmtree(out, ignore_errors=True)
        return record

    def _check(self, record, out):
        ops = len(record["op_latencies"])
        try:
            problems = check_outputs(self.workload, self.seed, out, ops, record["start_violation"])
        except (OSError, KeyError, ValueError, TypeError) as exc:
            problems = [f"outputs unreadable: {exc!r}"]
        record["digest"] = csv_digest(out)
        expected = self.reference.get(self.workload.name, {}).get(str(self.seed))
        if expected is not None and record["digest"] != expected:
            problems.append(f"CSV digest {record['digest']} differs from reference {expected}")
        first = next(r for r in self.invocations if "digest" in r)
        if record["digest"] != first["digest"]:
            kind = "traced and untraced" if record["trace"] != first["trace"] else "repeated"
            problems.append(f"{kind} invocations wrote different CSVs")
        if record["trace"]:
            problems += self._check_trace(record)
        self.problems += problems
        self.attempted += ops
        self.failed += ops if problems else 0

    def _check_trace(self, record):
        problems = []
        fired, expected = set(record["fired"]), self.workload.expected_calls()
        if fired != expected:
            problems.append(
                f"traced wrappers that never fired: {sorted(expected - fired)}, "
                f"fired unexpectedly: {sorted(fired - expected)}"
            )
        first = next(r for r in self.invocations if r["trace"])
        moved = [k for k in EXACT_LAYERS if k in record["layers"]
                 and record["layers"][k] != first["layers"][k]]
        if moved:
            problems.append(f"per-layer counts differ between traced invocations: {moved}")
        return problems

    def measure(self, seconds, trace):
        while True:
            t0 = time.monotonic()
            if self.invoke() is None:
                break
            if trace and self.invoke(trace=True) is None:
                break
            # Start another only if at least half of it fits in the run, so that
            # the run lasts `seconds` on average.
            if self.elapsed() + (time.monotonic() - t0) / 2 > seconds:
                break
        full = [r for r in self.invocations if "digest" in r]
        while not trace and len(self.invocations) < SETUP_SAMPLES and not self.problems:
            self.invoke(setup_only=True)
        return full

    def end_to_end(self, full):
        """End-to-end metrics, each invocation's times scaled to nominal host speed."""
        untraced = [r for r in full if not r["trace"]]
        scale = {id(r): speed.NOMINAL_S / statistics.median(r["speed"]) for r in self.invocations}
        setups = [r["setup_s"] * scale[id(r)] for r in self.invocations]
        walls = [(r["wall_s"] - r["speed_wall_s"]) * scale[id(r)] for r in untraced]
        latencies = [x * scale[id(r)] for r in untraced for x in r["op_latencies"]]
        busy = sum(
            (r["wall_s"] - r["setup_s"] - r["speed_wall_s"]) * scale[id(r)] for r in untraced
        )
        values = {
            "setup_s": (statistics.median(setups), len(setups)),
            "wall_s": (statistics.median(walls), len(walls)),
            "ops_per_s": (len(latencies) / busy, len(latencies)),
            "op_p50_ms": (1000 * hd_median(latencies), len(latencies)),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), len(untraced)),
        }
        if len(latencies) >= 100:
            p90 = statistics.quantiles(latencies, n=10)[-1]
            values["op_p90_ms"] = (1000 * p90, len(latencies))
        values["unscaled_wall_s"] = (statistics.median(r["wall_s"] for r in untraced), len(untraced))
        return values

    def per_layer(self, full):
        traced = [r for r in full if r["trace"]]
        untraced = [r for r in full if not r["trace"]]
        # Counts repeat exactly between traced invocations (_check_trace).
        values = {
            name: (traced[0]["layers"][name] if name in EXACT_LAYERS
                   else statistics.median(r["layers"][name] for r in traced), len(traced))
            for name in traced[0]["layers"]
        }
        # Leave out the host-speed loop, which only untraced invocations run.
        cpu = [r["cpu_s"] - sum(r["speed"]) for r in untraced]
        values["run.cpu_s"] = (statistics.median(cpu), len(untraced))
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] - r["speed_wall_s"] for r in untraced
        )
        values["trace.overhead_s"] = (overhead, len(traced))
        return values


def run_workload(workload, seed, seconds, trace, reference):
    run = Run(workload, seed, reference)
    full = run.measure(seconds, trace)
    values = {}
    if any(r["trace"] == trace for r in full) and any(not r["trace"] for r in full):
        values = run.per_layer(full) if trace else run.end_to_end(full)
    print(f"# {workload.name} seed={seed} trace={int(trace)} "
          f"invocations={len(run.invocations)} elapsed={run.elapsed():.1f}s")
    if run.invocations:
        host = statistics.median(s for r in run.invocations for s in r["speed"])
        print(f"# host reference loop {1000 * host:.3f} ms, nominal {1000 * speed.NOMINAL_S:.3f} ms")
    for name, (value, n) in values.items():
        print(f"{name:36s} {value:14.6f} {UNITS[name]:6s} n={n}")
    print(f"failed_frac {run.failed / max(run.attempted, 1):.6f} "
          f"({run.failed} of {run.attempted} ops)")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    names = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
    return {
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {n: {"value": values[n][0], "unit": UNITS[n]} for n in names if n in values},
    }


def record(reference):
    """Records the CSV digest of every workload on RECORD_SEEDS and default seeds."""
    for workload in WORKLOADS.values():
        digests = reference.setdefault(workload.name, {})
        for seed in sorted({*RECORD_SEEDS, workload.default_seed}):
            run = Run(workload, seed, {})
            rec = run.invoke()
            if run.problems:
                sys.exit(f"{workload.name} seed {seed}: {run.problems}")
            digests[str(seed)] = rec["digest"]
            print(f"{workload.name} seed={seed} {rec['digest']} wall={rec['wall_s']:.2f}s")
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def write_config():
    config = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": BETTER.get(n, "lower"), "bound": b}
            for n, u, b in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(config, indent=2) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, help="default: the workload's scenario seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record reference CSV digests and rewrite BENCHMARK.json")
    args = parser.parse_args()
    if not (ROOT / "src" / "ednetsim" / "cli.py").is_file():
        sys.exit(f"error: no ednetsim sources under {ROOT / 'src'}; run from a checkout")
    if args.seed is not None and args.seed < 0:
        sys.exit("error: --seed must be non-negative")
    OUT.mkdir(exist_ok=True)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.record:
        record(reference)
        write_config()
        return
    workloads = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    results = {
        w.name: run_workload(
            w, w.default_seed if args.seed is None else args.seed,
            args.seconds, bool(args.trace), reference,
        )
        for w in workloads
    }
    print(json.dumps(results[args.workload] if args.workload else results))


if __name__ == "__main__":
    main()
