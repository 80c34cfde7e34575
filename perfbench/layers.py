"""Layer spans for the traced benchmark run, and the per-layer metrics.

The traced run wraps public functions of each program layer from the
benchmark's side (nothing inside the program changes).  Each wrapper
records a span — name, start, end, parent — in memory; a process writes
its spans once, to ``spans-<pid>.json`` in the trace directory:

* the workload process and the traced server write at the end of the run;
* a forked campaign worker writes when its task's root span closes,
  because the supervisor's workers leave through ``os._exit`` and never
  run exit handlers.

:func:`layer_metrics` merges the files and turns them into the
``per_layer`` metrics of ``BENCHMARK.json``.  A layer's self time is its
span minus the time its child spans cover.  Times and counts are per
workload iteration (one figure, one campaign, one service job), so runs
of different length compare.

:func:`install` imports the program; :func:`layer_metrics` needs only
the standard library, so the load generator can call it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

#: (module, attribute path, span name).  A span nested in a span of the
#: same name is not recorded, so every name's total counts time once.
TARGETS = [
    ("repro.core.comparator", "EdgeCloudComparator.measure_point", "core.measure_point"),
    ("repro.core.comparator", "EdgeCloudComparator.predict_cutoff_utilization",
     "core.predict_cutoff"),
    ("repro.sim.fastsim", "simulate_edge_system", "fastsim.edge"),
    ("repro.sim.fastsim", "simulate_single_queue_system", "fastsim.single"),
    ("repro.sim.fastsim", "simulate_lb_system", "fastsim.lb"),
    ("repro.sim.fastsim", "simulate_fcfs_queue", "fastsim.fcfs"),
    ("repro.workload.trace", "RequestTrace.merge", "workload.merge"),
    ("repro.stats.summary", "summarize", "stats.summarize"),
    ("repro.sim.engine", "Simulation.run", "des.run"),
    ("repro.sim.tracing", "RequestLog.breakdown", "des.breakdown"),
    ("repro.campaign.executor", "run_scenario", "campaign.scenario"),
    ("repro.campaign.spec", "compile_campaign", "campaign.compile"),
    ("repro.campaign.runner", "CampaignResult.fingerprint", "campaign.fingerprint"),
    ("repro.campaign.runner", "run_campaign", "campaign.run"),
    ("repro.parallel.pool", "run_tasks", "parallel.run_tasks"),
    ("repro.service.jobs", "JobManager.submit", "service.submit"),
    ("repro.experiments.store", "RunJournal.put", "store.put"),
    ("repro.obs.windows", "WindowedCollector.flush", "obs.export"),
]

#: Every distribution's ``sample`` is one ``queueing.sample`` span, every
#: public ``dump*`` of the wire schema one ``schema.dump`` span.
_SAMPLE_MODULE = "repro.queueing.distributions"
_SCHEMA_MODULE = "repro.experiments.schema"


def _size(value) -> int:
    return int(getattr(value, "size", None) or len(value))


#: Span name → attrs(args, result) recorded when the call returns.
_ATTRS = {
    "fastsim.fcfs": lambda args, result: {"n": _size(args[0])},
    "des.breakdown": lambda args, result: {"n": _size(result.end_to_end)},
    "obs.export": lambda args, result: {"emitted": int(result is not None)},
}


class Tracer:
    """In-memory span recorder of one process."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._forked = False
        self.retries_at_start = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._forked = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args: tuple, kwargs: dict, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        if any(span[1] == name for span in stack):
            return fn(*args, **kwargs)
        parent = stack[-1][0] if stack else None
        span = [next(self._ids), name, time.perf_counter(), None, parent, None]
        self.spans.append(span)
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                span[5] = attrs(args, result)
            return result
        finally:
            span[3] = time.perf_counter()
            stack.pop()
            if self._forked and not stack:
                self.write()

    def finish(self) -> Path:
        """End the traced run of the main process: record the supervisor's
        retries since :func:`install`, then write the spans."""
        from repro.parallel import supervision_stats

        self.counters["parallel.retried"] = supervision_stats().retries - self.retries_at_start
        return self.write()

    def write(self) -> Path:
        """Write this process's spans and counters (once per process)."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        doc = {
            "pid": os.getpid(),
            "forked": self._forked,
            "spans": [s for s in self.spans if s[3] is not None],
            "counters": self.counters,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path


class TracedTask:
    """A ``run_tasks`` callable wrapped in a ``parallel.task`` span.

    It keeps the callable's module and qualified name, so run journals
    key tasks exactly as untraced runs do.  ``run_tasks`` pickles it only
    to check that it could cross a process boundary; the supervisor's
    workers are forked and inherit the tracer, so the pickled form
    carries the callable alone.
    """

    def __init__(self, tracer: Tracer, fn):
        self.tracer = tracer
        self.fn = fn
        functools.update_wrapper(self, fn, assigned=("__module__", "__qualname__", "__name__"),
                                 updated=())

    def __call__(self, *args):
        return self.tracer.call("parallel.task", self.fn, args, {})

    def __getstate__(self):
        return {"fn": self.fn}


def _wrapper(tracer: Tracer, name: str, fn):
    attrs = _ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)

    return traced


def _traced_run_tasks(tracer: Tracer, run_tasks):
    from repro.parallel.pool import resolve_workers

    @functools.wraps(run_tasks)
    def traced(fn, tasks, *args, **kwargs):
        workers = resolve_workers(kwargs.get("workers"))
        span_attrs = lambda a, result: {"workers": workers, "tasks": len(result)}
        return tracer.call("parallel.run_tasks", run_tasks,
                           (TracedTask(tracer, fn), tasks) + args, kwargs, span_attrs)

    return traced


def _patch(owner, attr: str, make_wrapper) -> None:
    """Replace ``owner.attr`` by ``make_wrapper(original)``; for a module,
    also every alias of the original that a loaded program module holds."""
    raw = vars(owner)[attr]
    descriptor = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
    fn = raw.__func__ if descriptor else raw
    wrapper = make_wrapper(fn)
    setattr(owner, attr, descriptor(wrapper) if descriptor else wrapper)
    if isinstance(owner, type):
        return
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("repro") and module is not None:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)


def install(out_dir: str | Path) -> Tracer:
    """Import the program, wrap every layer target, return the tracer."""
    import importlib

    tracer = Tracer(out_dir)
    for mod in ("repro.cli", "repro.campaign", "repro.service", "repro.experiments.figures"):
        importlib.import_module(mod)
    from repro.parallel import supervision_stats

    tracer.retries_at_start = supervision_stats().retries

    def span(name):
        return lambda fn: _wrapper(tracer, name, fn)

    for mod_name, path, name in TARGETS:
        owner = importlib.import_module(mod_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if name == "parallel.run_tasks":
            _patch(owner, attr, lambda fn: _traced_run_tasks(tracer, fn))
        else:
            _patch(owner, attr, span(name))

    dists = importlib.import_module(_SAMPLE_MODULE)
    for cls in list(vars(dists).values()):
        if isinstance(cls, type) and issubclass(cls, dists.Distribution) \
                and "sample" in vars(cls):
            _patch(cls, "sample", span("queueing.sample"))
    schema = importlib.import_module(_SCHEMA_MODULE)
    for attr in schema.__all__:
        if attr.startswith("dump"):
            _patch(schema, attr, span("schema.dump"))
    return tracer


# ---------------------------------------------------------------------------
# Per-layer metrics (standard library only)
# ---------------------------------------------------------------------------

def load_spans(trace_dir: str | Path) -> list[dict]:
    """Every process's span document in ``trace_dir``."""
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(Path(trace_dir).glob("spans-*.json"))]


class _Span(NamedTuple):
    pid: int
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


def layer_metrics(docs: list[dict], iterations: int) -> dict[str, float]:
    """Per-layer metrics from merged span documents, per iteration."""
    spans = [_Span(doc["pid"], sid, name, start, end, parent, attrs or {})
             for doc in docs for sid, name, start, end, parent, attrs in doc["spans"]]
    by_name: dict[str, list[_Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    by_id = {(span.pid, span.id): span for span in spans}
    children: dict[tuple[int, int], float] = {}
    for span in spans:
        if span.parent is not None:
            key = (span.pid, span.parent)
            children[key] = children.get(key, 0.0) + span.seconds
    counters: dict[str, float] = {}
    for doc in docs:
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    worker_pids = {doc["pid"] for doc in docs if doc["forked"]}

    def named(name: str) -> list[_Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s.seconds for s in named(name))

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in named(name))

    def self_time(name: str) -> float:
        return sum(s.seconds - children.get((s.pid, s.id), 0.0) for s in named(name))

    def parent_name(span: _Span) -> str | None:
        parent = by_id.get((span.pid, span.parent))
        return None if parent is None else parent.name

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    n = max(1, iterations)
    # The edge system runs one single-queue simulation per site; only the
    # cloud's own single queue (or load balancer) counts as cloud time.
    cloud = total("fastsim.lb") + sum(s.seconds for s in named("fastsim.single")
                                      if parent_name(s) != "fastsim.edge")
    fcfs_req = attr_sum("fastsim.fcfs", "n")
    des_req = attr_sum("des.breakdown", "n")
    capacity = sum(s.seconds * s.attrs["workers"] for s in named("parallel.run_tasks"))
    task_s = total("parallel.task")
    tasks = attr_sum("parallel.run_tasks", "tasks")
    return {
        "core.measure_point_s": total("core.measure_point") / n,
        "core.measure_point.calls": len(named("core.measure_point")) / n,
        "core.self_s": self_time("core.measure_point") / n,
        "core.predict_cutoff_s": total("core.predict_cutoff") / n,
        "fastsim.edge_s": total("fastsim.edge") / n,
        "fastsim.cloud_s": cloud / n,
        "fastsim.fcfs_s": total("fastsim.fcfs") / n,
        "fastsim.fcfs_req": fcfs_req / n,
        "fastsim.fcfs_req_per_s": ratio(fcfs_req, total("fastsim.fcfs")),
        "workload.merge_s": total("workload.merge") / n,
        "queueing.sample_s": total("queueing.sample") / n,
        "stats.summarize_s": total("stats.summarize") / n,
        "des.run_s": total("des.run") / n,
        "des.req": des_req / n,
        "des.req_per_s": ratio(des_req, total("des.run")),
        "des.breakdown_s": total("des.breakdown") / n,
        "des.build_s": max(0.0, total("campaign.scenario") - total("des.run")
                           - total("des.breakdown")) / n,
        "campaign.scenario_s": total("campaign.scenario") / n,
        "campaign.scenarios": len(named("campaign.scenario")) / n,
        "campaign.compile_s": total("campaign.compile") / n,
        "campaign.fingerprint_s": total("campaign.fingerprint") / n,
        "parallel.run_tasks_s": total("parallel.run_tasks") / n,
        "parallel.task_s": task_s / n,
        "parallel.efficiency": ratio(task_s, capacity),
        "parallel.overhead_ms_per_task": 1000.0 * ratio(max(0.0, capacity - task_s), tasks),
        "parallel.spawned": len(worker_pids) / n,
        "parallel.retried": counters.get("parallel.retried", 0.0) / n,
        "service.run_s": total("campaign.run") / n if named("service.submit") else 0.0,
        "service.queue_wait_s": _queue_wait(by_name) / n,
        "store.puts": len(named("store.put")) / n,
        "store.put_s": total("store.put") / n,
        "schema.dump_s": total("schema.dump") / n,
        "obs.windows": attr_sum("obs.export", "emitted") / n,
        "obs.export_s": total("obs.export") / n,
    }


def _queue_wait(by_name: dict[str, list[_Span]]) -> float:
    """Σ (k-th campaign start − k-th submission end) over a closed loop."""
    submits = sorted(s.end for s in by_name.get("service.submit", []))
    starts = sorted(s.start for s in by_name.get("campaign.run", []))
    return sum(max(0.0, b - a) for a, b in zip(submits, starts))
