"""Timing wrappers installed around ednetsim's public functions.

The program is not edited: each wrapped function is rebound in every
`ednetsim` module namespace that holds it, which is where its callers look
it up (for example `ednetsim.objective.run_replication` and
`ednetsim.calibrate.run_replication`), and methods are replaced on their
class.  `restore` puts every original back.

The untraced run wraps only the workload's op: it reads the clock around
each op and samples the host's speed (speed.py) after it.  The traced run
counts and times every layer instead.  Hot calls (calendar pop and
schedule, LOS samples, routing decisions, stream lookups) are kept as a
call count plus total time; spans are kept for the solve, op and
replication levels.
"""

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import speed

clock = time.perf_counter


class StopAtFirstOp(BaseException):
    """Ends a set-up-only invocation when its first op starts.

    A BaseException, so that the CLI's error handler lets it through.
    """


class Patcher:
    """Replaces functions and methods and remembers how to put them back."""

    def __init__(self):
        self._undo = []

    def rebind(self, module_name, name, wrap):
        original = getattr(sys.modules[module_name], name)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ednetsim" and not mod_name.startswith("ednetsim."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def replace_method(self, cls, name, wrap):
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def restore(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


class Trace:
    """Op timings, and in full mode per-layer counts, times and spans."""

    def __init__(self, op_name, full=False, stop_at_first_op=False):
        self.op_name = op_name
        self.full = full
        self.stop_at_first_op = stop_at_first_op
        self.first_op_start = None
        self.op_latencies = []
        self.first_result = None
        self.speed_samples = []
        self.speed_wall_s = 0.0
        self.calls = defaultdict(lambda: [0, 0.0])   # name -> [count, seconds]
        self.spans = []                              # (id, parent, name, start, end)
        self._open = [(None, None)]                  # open spans: (id, name)
        self.child_seconds = defaultdict(float)      # (parent, child) -> seconds
        self.rep_calls = defaultdict(int)            # op name -> replications
        self.rep_keys = defaultdict(set)
        self.block_keys = defaultdict(set)
        self.blocks = defaultdict(int)
        self.arrivals = 0
        self.patients = 0
        self.redirects = 0
        self.evaluated = []
        self.solve_result = None

    # -- wrappers ------------------------------------------------------
    def _op_wrapper(self, name, before):
        """Wraps an op candidate: a span when traced, op timing if it is the op."""

        def wrap(fn):
            if self.full:
                fn = self._span(name, fn, before=before)
            return self._time_op(fn) if name == self.op_name else fn

        return wrap

    def _time_op(self, fn):
        def op(*args, **kwargs):
            t0 = clock()
            if self.first_op_start is None:
                self.first_op_start = t0
                if self.stop_at_first_op:
                    raise StopAtFirstOp
            result = fn(*args, **kwargs)
            t1 = clock()
            self.op_latencies.append(t1 - t0)
            if self.first_result is None:
                self.first_result = result
            if not self.full:  # traced times are not scaled
                self.speed_samples.append(speed.sample())
                self.speed_wall_s += clock() - t1
            return result

        return op

    def _span(self, name, fn, before=None, after=None):
        """Times fn as a span nested under the innermost open span."""

        def wrapper(*args, **kwargs):
            parent_id, parent = self._open[-1]
            span_id = len(self.spans)
            self.spans.append(None)
            if before is not None:
                before(parent, *args, **kwargs)
            self._open.append((span_id, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._open.pop()
                self.spans[span_id] = (span_id, parent_id, name, t0, t1)
                stat = self.calls[name]
                stat[0] += 1
                stat[1] += t1 - t0
                self.child_seconds[(parent, name)] += t1 - t0
            if after is not None:
                after(result)
            return result

        return wrapper

    def _hot(self, name, fn, after=None):
        """Count plus total time, no span: for calls made per event.

        Positional arguments only, as the simulator passes them: packing
        keyword arguments would double the cost of each call.
        """
        stat = self.calls[name]
        now = clock

        def wrapper(*args):
            t0 = now()
            result = fn(*args)
            stat[1] += now() - t0
            stat[0] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, name, fn):
        stat = self.calls[name]

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- observers -----------------------------------------------------
    def _before_replication(self, parent, scenario, plan, policy, spec=None, *_, **__):
        plan = np.asarray(plan)
        pid = policy if isinstance(policy, str) else policy.id
        base = (scenario.name, None if spec is None else (spec.seed, spec.horizon, spec.warmup))
        rep = base + (pid, plan.tobytes())
        self.rep_calls[parent] += 1
        self.rep_keys[parent].add(rep)
        # Under P1 each ED runs on its own streams with no routing, so an ED's
        # block is a function of its plan row alone; otherwise of the network.
        for i, row in enumerate(plan):
            self.block_keys[parent].add(base + (i, row.tobytes()) if pid == "P1" else rep + (i,))
        self.blocks[parent] += len(plan)

    def _after_replication(self, out):
        self.patients += out.created
        self.redirects += sum(out.redirects_out)

    def _before_evaluate(self, parent, scenario, plan, *_, **__):
        counts = np.asarray(getattr(plan, "counts", plan))
        self.evaluated.append(tuple(int(v) for v in counts.reshape(-1)))

    def _after_arrivals(self, times):
        self.arrivals += len(times)

    def _after_solve(self, result):
        self.solve_result = result

    # -- installation --------------------------------------------------
    @contextmanager
    def installed(self):
        from ednetsim import distributions as dist, engine, reporting

        patch = Patcher()
        ops = {"saa_evaluate": ("ednetsim.objective", self._before_evaluate),
               "simulated_waits": ("ednetsim.calibrate", None)}
        for name, (module, before) in ops.items():
            if name == self.op_name or self.full:
                patch.rebind(module, name, self._op_wrapper(name, before))
        if self.full:
            patch.rebind("ednetsim.solver", "solve",
                         lambda fn: self._span("solve", fn, after=self._after_solve))
            patch.rebind("ednetsim.solver", "discrete_linesearch",
                         lambda fn: self._count("linesearch", fn))
            patch.rebind("ednetsim.simulate", "run_replication",
                         lambda fn: self._span("run_replication", fn,
                                               before=self._before_replication,
                                               after=self._after_replication))
            patch.rebind("ednetsim.simulate", "decide_routing",
                         lambda fn: self._hot("decide_routing", fn))
            patch.rebind("ednetsim.distributions", "summarize",
                         lambda fn: self._hot("summarize", fn))
            patch.rebind("ednetsim.scenario", "parse_scenario",
                         lambda fn: self._hot("parse_scenario", fn))
            for name in [n for n in vars(reporting) if n.startswith("write_")]:
                patch.rebind("ednetsim.reporting", name, lambda fn: self._hot("write", fn))
            patch.replace_method(engine.EventCalendar, "pop", lambda fn: self._hot("pop", fn))
            patch.replace_method(engine.EventCalendar, "schedule",
                                 lambda fn: self._hot("schedule", fn))
            patch.replace_method(engine.RandomStreams, "get", lambda fn: self._hot("streams", fn))
            patch.replace_method(dist.LosDistribution, "sample",
                                 lambda fn: self._hot("los_sample", fn))
            patch.replace_method(dist.ArrivalProcess, "arrival_times",
                                 lambda fn: self._hot("arrival_times", fn,
                                                      after=self._after_arrivals))
        try:
            yield self
        finally:
            patch.restore()

    # -- results -------------------------------------------------------
    def fired(self):
        return sorted(name for name, (count, _) in self.calls.items() if count)

    def layers(self):
        """Per-layer metrics of a traced invocation, by BENCHMARK.json name."""
        n = defaultdict(int, {k: count for k, (count, _) in self.calls.items()})
        s = defaultdict(float, {k: seconds for k, (_, seconds) in self.calls.items()})
        hot = ("pop", "schedule", "los_sample", "streams", "arrival_times", "decide_routing")
        result = self.solve_result

        def ratio(a, b):
            return a / b if b else 0.0

        def distinct(op):
            return ratio(len(self.block_keys[op]), self.blocks[op])

        return {
            "simulate.replications": n["run_replication"],
            "simulate.patients": self.patients,
            "simulate.self_s": s["run_replication"] - sum(s[k] for k in hot),
            "engine.events": n["pop"],
            "engine.schedules": n["schedule"],
            "engine.calendar_s": s["pop"] + s["schedule"],
            "engine.streams": n["streams"],
            "distributions.los_samples": n["los_sample"],
            "distributions.los_s": s["los_sample"],
            "distributions.arrivals": self.arrivals,
            "distributions.arrival_s": s["arrival_times"],
            "distributions.summarize_s": s["summarize"],
            "network.routing_calls": n["decide_routing"],
            "network.routing_s": s["decide_routing"],
            "network.redirects": self.redirects,
            "network.redirect_ratio": ratio(self.redirects, n["decide_routing"]),
            "objective.saa_calls": n["saa_evaluate"],
            "objective.self_s": s["saa_evaluate"] - s["summarize"]
            - self.child_seconds[("saa_evaluate", "run_replication")],
            "objective.replications": self.rep_calls["saa_evaluate"],
            "objective.distinct_rep_ratio": ratio(
                len(self.rep_keys["saa_evaluate"]), self.rep_calls["saa_evaluate"]
            ),
            "objective.distinct_ed_block_ratio": distinct("saa_evaluate"),
            "solver.evaluations": 0 if result is None else result.evaluations,
            "solver.linesearches": n["linesearch"],
            "solver.sweeps": 0 if result is None else result.sweeps,
            "solver.evals_to_best": 0 if result is None else self.evaluated.index(result.x) + 1,
            "solver.self_s": s["solve"] - self.child_seconds[("solve", "saa_evaluate")],
            "calibrate.triples": n["simulated_waits"],
            "calibrate.waits_s": s["simulated_waits"],
            "calibrate.distinct_ed_block_ratio": distinct("simulated_waits"),
            "scenario.parse_s": s["parse_scenario"],
            "reporting.write_s": s["write"],
        }
