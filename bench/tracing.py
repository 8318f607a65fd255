"""Spans around the calls into ksfv's modules, recorded from outside.

The tracer replaces module attributes with timing wrappers; the program
itself is not edited.  A span is [name, parent index, start, end, value],
with `value` a number taken from the call's result (the step's dt, the
v-solve's CG iterations, a run's step count).  Spans stay in memory.  Sweep
workers are forked with the wrappers in place; each worker writes its
spans to the round's spool directory when a top-level call returns, since
its memory dies with it.  Start and end come from time.perf_counter, which
is the system-wide monotonic clock on Linux, so spans of different
processes share one time axis.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path
from time import perf_counter

import workloads  # first: it puts the checkout's sources on the path

import ksfv.config
import ksfv.solver
import ksfv.sweep
from ksfv.diagnostics import DiagnosticsTracker

POINT = "sweep.point"   # execute_run: one run, or one sweep point

# (module or class, attribute, span name, value taken from the result)
_POINT_TARGETS = [
    (workloads, "execute_run", POINT, lambda r: r[0].steps),
    (ksfv.sweep, "execute_run", POINT, lambda r: r[0].steps),
]
_LAYER_TARGETS = [
    (workloads, "parse_config", "config.parse", None),
    (ksfv.config, "parse_config", "config.parse", None),
    (ksfv.config, "make_initial_data", "model.initial_data", None),
    (ksfv.sweep, "run", "solver.run", None),
    (ksfv.solver, "step", "solver.step", lambda r: r.dt_used),
    (ksfv.solver, "advance_v", "solver.advance_v", lambda r: r[1]),
    (DiagnosticsTracker, "record", "diagnostics.record", None),
    (workloads, "ladder_for_run", "diagnostics.ladder", None),
    (workloads, "emit_run_outputs", "outputs.write", None),
    (workloads, "write_sweep_json", "outputs.write", None),
    (workloads, "run_sweep", "sweep.run_sweep", None),
]


class Tracer:
    def __init__(self):
        self.owner = self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.spool: Path | None = None
        self.dumped = 0
        self.rounds: list[list[list]] = []   # every round's spans, all processes
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, value):
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:      # first call in a forked worker
                self.pid, self.spans, self.stack = os.getpid(), [], []
            span = [name, self.stack[-1] if self.stack else -1, perf_counter(), 0.0, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    span[4] = value(result)
                return result
            finally:
                span[3] = perf_counter()
                self.stack.pop()
                if not self.stack and self.pid != self.owner:
                    self.dumped += 1
                    path = self.spool / f"{self.pid}-{self.dumped}.json"
                    path.write_text(json.dumps(self.spans))
                    self.spans = []
        return wrapper

    def install(self, layers: bool) -> None:
        """Wrap execute_run (always: it gives each point's step count) and,
        with `layers`, every layer boundary the benchmark reports."""
        targets = _POINT_TARGETS + (_LAYER_TARGETS if layers else [])
        for holder, attr, name, value in targets:
            if any(h is holder and a == attr for h, a, _ in self._saved):
                continue
            fn = holder.__dict__[attr]
            self._saved.append((holder, attr, fn))
            setattr(holder, attr, self._wrap(name, fn, value))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()

    def begin_round(self, spool: Path) -> None:
        spool.mkdir(parents=True, exist_ok=True)
        self.spool, self.spans, self.stack = spool, [], []

    def end_round(self) -> list[list[list]]:
        """The round's span lists: this process's, then each worker file's.
        Parent indices refer to positions within one list."""
        lists = [self.spans] + [json.loads(p.read_text())
                                for p in sorted(self.spool.glob("*.json"))]
        self.rounds.append(lists)
        self.spans = []
        return lists

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"rounds": self.rounds}))


def tail_percentile(n: int) -> float | None:
    """The highest of the 99.9th, 99th, 95th, 90th and 75th percentiles with
    at least ten of n samples beyond it; None below forty samples, where
    only the median is reported."""
    if n >= 40:
        for p in (99.9, 99.0, 95.0, 90.0, 75.0):
            if n - int(p / 100.0 * n) - 1 >= 10:
                return p
    return None


def _tail(values: list[float]) -> float:
    p = tail_percentile(len(values))
    if p is None:
        return statistics.median(values)
    return sorted(values)[int(p / 100.0 * len(values))]


def point_steps(lists: list[list[list]]) -> int:
    return sum(s[4] or 0 for spans in lists for s in spans if s[0] == POINT)


def layer_metrics(lists: list[list[list]], wall: float, workers: int) -> dict:
    """Per-layer figures of one traced round.

    Self time is a span's duration less its children's.  On the run
    workloads there is no pool: one worker whose span is the round's wall
    time, so worker idle time is the time outside execute_run."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, list] = {}
    step_ms: list[float] = []
    for spans in lists:
        child = [0.0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, _, t0, t1, value), c in zip(spans, child):
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_time[name] = self_time.get(name, 0.0) + (t1 - t0 - c)
            calls[name] = calls.get(name, 0) + 1
            if value is not None:
                values.setdefault(name, []).append(value)
            if name == "solver.step":
                step_ms.append(1e3 * (t1 - t0))

    points = [s[3] - s[2] for spans in lists for s in spans if s[0] == POINT]
    span = total.get("sweep.run_sweep", wall)
    dts = values["solver.step"]
    return {
        "config.parse_s": (total["config.parse"], "s"),
        "model.initial_data_s": (total["model.initial_data"], "s"),
        "solver.step.calls": (calls["solver.step"], "count"),
        "solver.dt.min": (min(dts), "t"),
        "solver.dt.p50": (statistics.median(dts), "t"),
        "solver.dt.max": (max(dts), "t"),
        "solver.step.ms_p50": (statistics.median(step_ms), "ms"),
        "solver.step.ms_tail": (_tail(step_ms), "ms"),
        "solver.u_update_s": (self_time["solver.step"], "s"),
        "solver.advance_v_s": (total["solver.advance_v"], "s"),
        "solver.advance_v.cg_iters": (sum(values["solver.advance_v"]), "count"),
        "solver.run_loop_s": (self_time["solver.run"], "s"),
        "diagnostics.record.calls": (calls["diagnostics.record"], "count"),
        "diagnostics.record_s": (total["diagnostics.record"], "s"),
        "diagnostics.ladder_s": (total.get("diagnostics.ladder", 0.0), "s"),
        "outputs.write_s": (total["outputs.write"], "s"),
        "sweep.point_s.sum": (sum(points), "s"),
        "sweep.point_s.max": (max(points), "s"),
        "sweep.worker_idle_s": (workers * span - sum(points), "s"),
        "sweep.parallel_efficiency": (sum(points) / (workers * span), "fraction"),
        "sweep.span_s": (span, "s"),
    }
