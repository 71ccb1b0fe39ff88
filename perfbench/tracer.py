"""Outside-in span tracer for one campaign process.

The tracer wraps public entry points of each layer from outside the
program: it replaces class attributes and module-level functions with thin
wrappers that record a span (name, start, end, parent span, run id) into
flat arrays held in memory.  Nothing under ``src/`` is edited; every
``repro.*`` module that imported a wrapped function by name gets the
wrapper too.  :meth:`Tracer.report` turns the spans into per-layer self
times (a span's duration minus its child spans) and counts, and
:meth:`Tracer.write_spans` writes the spans out once the run has ended.

A few spans carry one extra integer (``aux``):

* ``DistributedAlgorithm.enabled_action`` -- 1 when the returned action
  label differs from the previous evaluation of the same process in the same
  run (the evaluation was useful), else 0;
* ``StreamingSpecSuite.observe_step`` -- 1 when the step's
  ``StepDelta.epoch`` differs from the one this suite saw last (a resync);
* ``execute_job_group`` -- the number of jobs in the group;
* ``RunCache.store`` -- 1 when an entry was written.

Which batched groups fell back to solo runs is not read from the spans: the
caller's fallback probe counts them and passes the counts to
:meth:`Tracer.report`.

How the report reads the spans:

* an ``enabled_action`` span under ``enabled_processes`` is part of a full
  sweep; directly under ``Scheduler.step`` it is the between-step refresh
  when it starts before the step's first ``select``, and the post-step dirty
  re-evaluation after it;
* a job's construction (``jobs.build_s``) runs from the start of
  ``execute_job`` to the end of its first step's full sweep (or, for a
  batched group, to the start of ``BatchedScheduler.run``), so it overlaps
  the guard time of that sweep;
* every lane of a batched group has the group's duration as its latency.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (span name, module, attribute path, layer).  The layer is the self-time
#: bucket a span's self time is charged to; several spans may share one.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("expand_jobs", "repro.campaign.matrix", "expand_jobs", "matrix.expand"),
    ("CampaignPlan", "repro.campaign.driver", "CampaignPlan.__init__", "driver.plan"),
    ("execute_job", "repro.campaign.jobs", "execute_job", "jobs.self"),
    ("execute_job_group", "repro.campaign.batched", "execute_job_group", "jobs.self"),
    ("completed_row", "repro.campaign.jobs", "completed_row", "jobs.row"),
    ("Scheduler.step", "repro.kernel.scheduler", "Scheduler.step", "scheduler.self"),
    ("enabled_action", "repro.kernel.algorithm", "DistributedAlgorithm.enabled_action", "algorithm.guard"),
    ("enabled_processes", "repro.kernel.algorithm", "DistributedAlgorithm.enabled_processes", "algorithm.guard"),
    ("Action.execute", "repro.kernel.algorithm", "Action.execute", "algorithm.exec"),
    ("Configuration.updated", "repro.kernel.configuration", "Configuration.updated", "configuration.self"),
    ("StreamingSpecSuite.observe_step", "repro.spec.streaming", "StreamingSpecSuite.observe_step", "streaming.self"),
    ("StreamingMetricsCollector.observe_step", "repro.metrics.collector", "StreamingMetricsCollector.observe_step", "collector.self"),
    ("BatchedScheduler.run", "repro.kernel.batched", "BatchedScheduler.run", "batched.run"),
    ("BatchedProgram.sweep", "repro.core.batched_program", "BatchedProgram.sweep", "batched.sweep"),
    ("RunCache.lookup", "repro.campaign.store", "RunCache.lookup", "store.cache"),
    ("RunCache.store", "repro.campaign.store", "RunCache.store", "store.cache"),
    ("ColumnStore.write_row", "repro.campaign.store", "ColumnStore.write_row", "store.column"),
    ("JsonlSink.write_row", "repro.campaign.sinks", "JsonlSink.write_row", "sinks.self"),
    ("Finalizer.finalize", "repro.campaign.driver", "Finalizer.finalize", "driver.finalize"),
)

#: Method families wrapped on every class that defines them: each daemon's
#: ``select`` and each request model's ``observe``.
#: Subclasses are found after importing ``repro.workloads.request_models``.
FAMILIES: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("Daemon.select", "repro.kernel.daemon", "Daemon", "select", "daemon.self"),
    ("Environment.observe", "repro.kernel.algorithm", "Environment", "observe", "request_models.self"),
)

#: Self-time buckets, in report order (each also gets a ``_share``).
SELF_METRICS = (
    ("cli.import", "cli.import_s"),
    ("matrix.expand", "matrix.expand_s"),
    ("driver.plan", "driver.plan_s"),
    ("jobs.self", "jobs.self_s"),
    ("jobs.row", "jobs.row_s"),
    ("scheduler.self", "scheduler.self_s"),
    ("algorithm.guard", "algorithm.guard_s"),
    ("algorithm.exec", "algorithm.exec_s"),
    ("daemon.self", "daemon.self_s"),
    ("configuration.self", "configuration.self_s"),
    ("request_models.self", "request_models.self_s"),
    ("streaming.self", "streaming.self_s"),
    ("collector.self", "collector.self_s"),
    ("batched.run", "batched.run_s"),
    ("batched.sweep", "batched.sweep_s"),
    ("store.cache", "store.cache_s"),
    ("store.column", "store.column_s"),
    ("sinks.self", "sinks.self_s"),
    ("driver.finalize", "driver.finalize_s"),
)

#: Counts that must repeat exactly between two traced runs at one seed.
EXACT_COUNTS = (
    "scheduler.steps",
    "algorithm.guard_evals",
    "algorithm.sweep_evals",
    "algorithm.refresh_evals",
    "algorithm.dirty_evals",
    "algorithm.exec_calls",
    "daemon.selects",
    "streaming.resyncs",
    "batched.sweeps",
    "store.cache_stores",
    "sinks.writes",
)

_NS = 1e-9


def unit_of(key: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_share", "_frac", ".share")):
        return "fraction"
    if key == "algorithm.evals_per_step":
        return "evals/step"
    return "count"


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


class Tracer:
    """Flat in-memory span arrays plus the wrappers that fill them."""

    def __init__(self) -> None:
        self.span_names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.aux = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: List[int] = []
        self.run_id = -1
        # Per-run state for the useful/resync flags, reset at each job start.
        self._last_outcome: Dict[object, object] = {}
        self._last_epoch: Dict[int, int] = {}

    # -- recording ---------------------------------------------------- #
    def _span_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def record(self, name: str, layer: str, start_ns: int, end_ns: int) -> None:
        """Add a finished top-level span measured by the caller."""
        self.name.append(self._span_id(name, layer))
        self.parent.append(-1)
        self.run.append(-1)
        self.aux.append(0)
        self.start.append(start_ns)
        self.end.append(end_ns)

    def _wrap(self, fn: Callable, name: str, layer: str, kind: Optional[str]) -> Callable:
        nid = self._span_id(name, layer)
        names, parents, runs, aux = self.name, self.parent, self.run, self.aux
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def open_span() -> int:
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            aux.append(0)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            return index

        if kind is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = open_span()
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
        elif kind == "guard":
            last = self._last_outcome

            @functools.wraps(fn)
            def traced(algorithm, pid, *args, **kwargs):
                index = open_span()
                try:
                    action = fn(algorithm, pid, *args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                label = None if action is None else action.label
                if last.get(pid, last) != label:
                    aux[index] = 1
                last[pid] = label
                return action
        elif kind == "suite":
            last_epoch = self._last_epoch

            @functools.wraps(fn)
            def traced(suite, configuration, record=None):
                index = open_span()
                # A resync is an observation whose epoch moved since the
                # suite's previous one (a fault burst swapped the world).
                delta = getattr(record, "delta", None)
                if delta is not None:
                    previous = last_epoch.get(id(suite))
                    if previous is not None and previous != delta.epoch:
                        aux[index] = 1
                    last_epoch[id(suite)] = delta.epoch
                try:
                    return fn(suite, configuration, record)
                finally:
                    ends[index] = clock()
                    stack.pop()
        elif kind in ("job", "group"):
            @functools.wraps(fn)
            def traced(job_or_jobs):
                first = job_or_jobs if kind == "job" else job_or_jobs[0]
                outer = tracer.run_id
                tracer.run_id = first.index
                tracer._last_outcome.clear()
                tracer._last_epoch.clear()
                index = open_span()
                if kind == "group":
                    aux[index] = len(job_or_jobs)
                try:
                    return fn(job_or_jobs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                    tracer.run_id = outer
        elif kind == "stored":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                aux[index] = int(bool(result))
                return result
        else:  # pragma: no cover - table typo
            raise ValueError(kind)
        return traced

    # -- installation ------------------------------------------------- #
    def install(self) -> None:
        """Wrap every entry point; call after ``import repro.cli``."""
        kinds = {
            "enabled_action": "guard",
            "StreamingSpecSuite.observe_step": "suite",
            "execute_job": "job",
            "execute_job_group": "group",
            "RunCache.store": "stored",
        }
        importlib.import_module("repro.workloads.request_models")
        for name, module_name, path, layer in ENTRY_POINTS:
            owner, attr = _resolve(module_name, path)
            original = vars(owner)[attr]
            wrapped = self._wrap(original, name, layer, kinds.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            # A function imported by name elsewhere is rebound there too.
            for module_name_, module in list(sys.modules.items()):
                if module_name_.startswith("repro") and module is not None:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        for name, module_name, base_name, attr, layer in FAMILIES:
            base = getattr(importlib.import_module(module_name), base_name)
            # Every class an implementation comes from, mixins included.
            owners = {
                owner
                for cls in _subclasses(base)
                for owner in cls.__mro__
                if attr in vars(owner)
                and not getattr(vars(owner)[attr], "__isabstractmethod__", False)
            }
            for owner in sorted(owners, key=lambda cls: (cls.__module__, cls.__qualname__)):
                setattr(owner, attr, self._wrap(vars(owner)[attr], name, layer, None))

    # -- analysis ----------------------------------------------------- #
    def report(self, wall_s: float, fallback_groups: int, fallback_runs: int) -> Dict[str, float]:
        """Per-layer metrics of the recorded spans over ``wall_s``; the two
        fallback counts are the batched groups, and their runs, re-run solo."""
        count = len(self.name)
        names, parents, aux = self.name, self.parent, self.aux
        starts, ends = self.start, self.end
        kinds = len(self.span_names)
        nid = {name: index for index, name in enumerate(self.span_names)}.get
        guard, sweep, step = nid("enabled_action"), nid("enabled_processes"), nid("Scheduler.step")
        select = nid("Daemon.select")
        job, group, run = nid("execute_job"), nid("execute_job_group"), nid("BatchedScheduler.run")

        duration = [ends[i] - starts[i] for i in range(count)]
        child_ns = [0] * count
        # Calls counted once per outermost span: a wrapping daemon that
        # delegates to its inner daemon is one selection.
        calls = [0] * kinds
        aux_sum = [0] * kinds
        first_select: Dict[int, int] = {}
        # Per job span: when its construction ended -- the end of the first
        # step's full sweep, else the start of its first step or batched run.
        built: Dict[int, int] = {}
        first_step: Dict[int, int] = {}
        for i in range(count):
            n = names[i]
            p = parents[i]
            aux_sum[n] += aux[i]
            if p < 0:
                calls[n] += 1
                continue
            child_ns[p] += duration[i]
            np_ = names[p]
            if np_ != n:
                calls[n] += 1
            if n == select and np_ == step and p not in first_select:
                first_select[p] = starts[i]
            elif (n == step or n == run) and (np_ == job or np_ == group) and p not in built:
                built[p] = starts[i]
                first_step[p] = i
            elif n == sweep and np_ == step and first_step.pop(parents[p], None) == p:
                built[parents[p]] = ends[i]

        layer_ns: Dict[str, int] = {}
        evals = {"sweep": 0, "refresh": 0, "dirty": 0, "other": 0}
        useful = {"refresh": 0, "dirty": 0}
        latencies: List[float] = []
        build_ns = 0
        runs = groups = lanes = 0
        for i in range(count):
            n = names[i]
            layer = self.layers[n]
            layer_ns[layer] = layer_ns.get(layer, 0) + duration[i] - child_ns[i]
            p = parents[i]
            if n == guard:
                # Within a step, evaluations before the daemon's select are
                # the between-step refresh; those after it are the post-step
                # dirty re-evaluation.
                if p >= 0 and names[p] == sweep:
                    kind = "sweep"
                elif p >= 0 and names[p] == step:
                    cut = first_select.get(p)
                    kind = "refresh" if cut is None or starts[i] < cut else "dirty"
                else:
                    kind = "other"
                evals[kind] += 1
                if kind in useful:
                    useful[kind] += aux[i]
            elif n == job or n == group:
                size = 1 if n == job else aux[i]
                if n == group:
                    groups += 1
                    lanes += size
                if n == job or p < 0 or names[p] != job:
                    runs += size
                    latencies.extend([duration[i] * _NS * 1e3] * size)
                    build_ns += built.get(i, ends[i]) - starts[i]

        def calls_of(name: str) -> int:
            index = nid(name)
            return 0 if index is None else calls[index]

        def aux_of(name: str) -> int:
            index = nid(name)
            return 0 if index is None else aux_sum[index]

        def share(ns: int) -> float:
            return ns * _NS / wall_s if wall_s > 0 else 0.0

        def frac(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        steps = calls_of("Scheduler.step")
        guard_evals = sum(evals.values())
        metrics: Dict[str, float] = {}
        covered = 0
        for layer, key in SELF_METRICS:
            ns = layer_ns.get(layer, 0)
            covered += ns
            metrics[key] = ns * _NS
            metrics[key[: -len("_s")] + "_share"] = share(ns)
        metrics.update({
            "jobs.runs": runs,
            "jobs.build_s": build_ns * _NS,
            "jobs.latency_p50_ms": _percentile(latencies, 50),
            "jobs.latency_p95_ms": _percentile(latencies, 95),
            "scheduler.steps": steps,
            "algorithm.guard_evals": guard_evals,
            "algorithm.evals_per_step": frac(guard_evals, steps),
            "algorithm.sweep_evals": evals["sweep"],
            "algorithm.refresh_evals": evals["refresh"],
            "algorithm.refresh_useful_frac": frac(useful["refresh"], evals["refresh"]),
            "algorithm.dirty_evals": evals["dirty"],
            "algorithm.dirty_useful_frac": frac(useful["dirty"], evals["dirty"]),
            "algorithm.exec_calls": calls_of("Action.execute"),
            "daemon.selects": calls_of("Daemon.select"),
            "configuration.updates": calls_of("Configuration.updated"),
            "request_models.observes": calls_of("Environment.observe"),
            "streaming.observes": calls_of("StreamingSpecSuite.observe_step"),
            "streaming.resyncs": aux_of("StreamingSpecSuite.observe_step"),
            "collector.observes": calls_of("StreamingMetricsCollector.observe_step"),
            "batched.groups": groups - fallback_groups,
            "batched.lanes": lanes - fallback_runs,
            "batched.fallbacks": fallback_groups,
            "batched.sweeps": calls_of("BatchedProgram.sweep"),
            "store.cache_lookups": calls_of("RunCache.lookup"),
            "store.cache_stores": aux_of("RunCache.store"),
            "sinks.writes": calls_of("JsonlSink.write_row"),
            "other.share": share(int(wall_s / _NS) - covered),
            "trace.wall_s": wall_s,
            "trace.spans": count,
        })
        return metrics

    def write_spans(self, path: str, origin_ns: int) -> None:
        """Write every span as a tab-separated line, times in ns from ``origin_ns``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tlayer\tstart_ns\tend_ns\tparent\trun\taux\n")
            names, layers = self.span_names, self.layers
            for i in range(len(self.name)):
                n = self.name[i]
                fh.write(
                    f"{i}\t{names[n]}\t{layers[n]}\t{self.start[i] - origin_ns}\t"
                    f"{self.end[i] - origin_ns}\t{self.parent[i]}\t{self.run[i]}\t{self.aux[i]}\n"
                )


def _percentile(values: Iterable[float], pct: int) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
