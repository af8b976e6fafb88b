"""One invocation of a workload in a fresh process, as a user would run it.

    python3 perfbench/worker.py --workload optimize-p1 --seed 7 --out DIR [--trace 1]

Times from the first line of this file, so set-up includes importing
ednetsim (interpreter start-up itself is not counted), then calls
`ednetsim.cli.main` in-process with the workload's arguments.  The last line
of standard output is a JSON record of the invocation; run.py reads it.
"""

import time

import speed

# Host speed before the workload starts: the scale of its set-up time.
EARLY_SPEED = [speed.sample() for _ in range(7)]
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from workloads import ROOT, WORKLOADS  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))

import ednetsim.cli  # noqa: E402

from tracing import StopAtFirstOp, Trace  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop when the first op starts")
    parser.add_argument("--spans", help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    trace = Trace(workload.op, full=bool(args.trace), stop_at_first_op=args.setup_only)
    status = 0
    try:
        with trace.installed():
            status = ednetsim.cli.main(workload.argv(args.seed, args.out))
    except StopAtFirstOp:
        pass
    t_end = time.perf_counter()

    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    record = {
        "status": status,
        "setup_s": None if trace.first_op_start is None else trace.first_op_start - T0,
        "wall_s": t_end - T0,
        "op_latencies": trace.op_latencies,
        "peak_rss_mb": usage[0].ru_maxrss / 1024.0,
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in usage),
        "start_violation": getattr(trace.first_result, "total_violation", None),
        "speed": EARLY_SPEED + trace.speed_samples,
        "speed_wall_s": trace.speed_wall_s,
    }
    if args.trace:
        record["layers"] = trace.layers()
        record["fired"] = trace.fired()
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in trace.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
