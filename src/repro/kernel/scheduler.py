"""The execution engine: steps, rounds, termination.

The scheduler repeatedly

1. computes ``Enabled(γ)`` and, for each enabled process, its
   highest-priority enabled action,
2. asks the daemon for a non-empty subset of the enabled processes,
3. lets every selected process execute its priority action *against the
   pre-step configuration* (composite atomicity) and merges the buffered
   writes into the next configuration,
4. updates round bookkeeping: a round completes once every process that was
   enabled at the beginning of the round has been activated or neutralized.

A computation is maximal: the run stops when no process is enabled (terminal
configuration) or when a step/round/predicate bound is hit.

Two execution engines are available (``engine=`` parameter):

``"dense"``
    The reference engine: ``Enabled(γ)`` is recomputed from scratch before
    and after every step.
``"incremental"``
    The post-step enabled map of step ``k`` is cached and reused as the
    pre-step map of step ``k+1``.  Re-evaluation has exactly two inputs:

    * after a step, the readers of the ``(writer, variable)`` pairs the step
      wrote, from the reader map inverted at construction from
      :meth:`~repro.kernel.algorithm.DistributedAlgorithm.read_dependency_variables`;
    * between steps, the processes whose request answers flipped: the
      *environment delta* that
      :meth:`~repro.kernel.algorithm.Environment.observe` returns, collected
      over every ``observe`` since the last refresh (idle ticks included).
      An environment that cannot tell returns ``None``, which drops the
      cached map, so the next step sweeps every guard.

    Produces traces identical to the dense engine for any fixed seed.

Both engines evaluate guards through per-run *action tables*: at
construction the scheduler builds each process's
:meth:`~repro.kernel.algorithm.DistributedAlgorithm.action_table` (its
actions, highest priority first, keyed by the value of the algorithm's
:attr:`~repro.kernel.algorithm.DistributedAlgorithm.action_key` variable)
once, and every
:meth:`~repro.kernel.algorithm.DistributedAlgorithm.enabled_action` call of
the run returns the first action in the walker's entry whose guard holds.
This relies on
the guard purity contract of :class:`~repro.kernel.algorithm.Environment`:
request predicates are pure reads, so which and how many guards run cannot
change the run.  The tables belong to the scheduler, not to the algorithm,
so a finished run is freed by reference counting alone.

The **default** is ``engine=None``, which means ``incremental``.

The delta protocol
------------------

Every committed step's :class:`~repro.kernel.trace.StepRecord` carries a
:class:`~repro.kernel.trace.StepDelta`: the exact ``(process, variable)``
writes the step applied, stamped with the scheduler's *configuration epoch*
(:attr:`Scheduler.epoch`).  The epoch starts at 0 and is bumped by every
external configuration swap — :meth:`Scheduler.set_configuration`, and hence
:meth:`~repro.kernel.faults.FaultInjector.corrupt_scheduler`.  Observers that
maintain incremental state over the configuration stream (the streaming spec
monitors, streaming metrics) apply the delta in ``O(|writers|)`` per step
while the epoch is unchanged, and resynchronize from the full configuration
when it changes ("the world was swapped under me").  The incremental engine's
own enabled-map cache is invalidated through the same
:meth:`Scheduler.set_configuration` path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from repro.kernel.algorithm import ActionContext, DistributedAlgorithm, Environment
from repro.kernel.configuration import Configuration, ProcessId
from repro.kernel.daemon import Daemon, default_daemon
from repro.kernel.trace import StepDelta, StepRecord, Trace

#: Concrete execution engines (the ``engine`` parameter also accepts ``None``,
#: which means ``incremental``).
ENGINES = ("dense", "incremental")

#: Signature of a scheduler observer (see ``Scheduler`` ``step_listener``).
StepListener = Callable[[Configuration, Optional[StepRecord]], None]


class StopRun(Exception):
    """Raised by a step listener to halt the run after the current step.

    The scheduler's observer protocol is deliberately dumb: listeners are
    called after every committed step and normally just accumulate state
    (metrics, spec monitors).  A listener that wants to *stop* the run — e.g.
    a streaming property monitor in ``stop_on_violation`` mode — raises
    :class:`StopRun`; :meth:`Scheduler.run` catches it and returns a
    :class:`SchedulerResult` whose ``stop_reason`` is the exception's
    ``reason``.  The step that triggered the stop is fully committed (trace,
    round bookkeeping, environment observation), so the run can be resumed or
    inspected at the exact offending step.
    """

    def __init__(self, reason: str = "listener_stop", message: str = "") -> None:
        super().__init__(message or reason)
        self.reason = reason


@dataclass
class SchedulerResult:
    """Outcome of a run: the trace plus summary counters."""

    trace: Trace
    steps: int
    rounds: int
    terminated: bool
    stop_reason: str

    @property
    def final(self) -> Configuration:
        return self.trace.final


class Scheduler:
    """Executes a :class:`DistributedAlgorithm` under a daemon.

    Parameters
    ----------
    algorithm:
        The distributed algorithm to run.
    environment:
        External inputs (request predicates).  Defaults to the inert
        :class:`~repro.kernel.algorithm.Environment`.
    daemon:
        Scheduling adversary.  Defaults to a distributed randomized daemon
        with enforced weak fairness (the paper's assumption).
    initial_configuration:
        Starting configuration; defaults to the algorithm's legitimate
        initial configuration.  Pass an arbitrary configuration (see
        :mod:`repro.kernel.faults`) for stabilization experiments.
    record_configurations:
        If ``False``, only the initial and current configurations are kept
        (step metadata is always recorded); use for long throughput runs.
        Such *sparse* traces cannot answer per-configuration queries
        (``pairs``, ``variable_series``, ``waiting_spells`` — they raise or
        degenerate); attach a streaming consumer via ``step_listener`` (e.g.
        :class:`~repro.metrics.collector.StreamingMetricsCollector`) to
        compute trace metrics online instead.
    engine:
        ``"dense"``, ``"incremental"``, or ``None`` (the default, meaning
        ``incremental``).  See the module docstring.
    step_listener:
        Optional observer — a callable or a sequence of callables — invoked
        as ``listener(configuration, record)``: once at construction with the
        initial configuration and ``record=None``, then after every step with
        the new configuration and its :class:`StepRecord` (whose ``delta``
        carries the step's exact writer set and the configuration epoch).
        This is the observer protocol shared by
        :class:`~repro.metrics.collector.StreamingMetricsCollector` and the
        streaming spec monitors
        (:class:`~repro.spec.streaming.StreamingSpecSuite`); any number of
        observers can ride along one run.  A listener may raise
        :class:`StopRun` to halt the run after the current step.
    """

    def __init__(
        self,
        algorithm: DistributedAlgorithm,
        environment: Optional[Environment] = None,
        daemon: Optional[Daemon] = None,
        initial_configuration: Optional[Configuration] = None,
        record_configurations: bool = True,
        engine: Optional[str] = None,
        step_listener: Optional[Union[StepListener, Sequence[StepListener]]] = None,
    ) -> None:
        self.algorithm = algorithm
        self.environment = environment if environment is not None else Environment()
        if engine is None:
            engine = "incremental"
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES} "
                "(or None for incremental)"
            )
        self.daemon = daemon if daemon is not None else default_daemon()
        self.daemon.reset()
        self.environment.reset()
        self.configuration = (
            initial_configuration
            if initial_configuration is not None
            else algorithm.initial_configuration()
        )
        self.record_configurations = record_configurations
        self.engine = engine
        #: Configuration epoch: bumped by every external configuration swap
        #: (:meth:`set_configuration`), stamped onto every step's
        #: :class:`~repro.kernel.trace.StepDelta` so observers can tell
        #: "delta applies" from "world swapped under me".
        self.epoch = 0
        self.trace = Trace(self.configuration)
        self.step_index = 0
        # Round bookkeeping: the set of processes enabled at the start of the
        # current round that have not yet been activated or neutralized.
        self.round_index = 0
        self._round_pending: Optional[Set[ProcessId]] = None
        if step_listener is None:
            self._step_listeners: List[StepListener] = []
        elif callable(step_listener):
            self._step_listeners = [step_listener]
        else:
            self._step_listeners = list(step_listener)
        # Each process's actions, highest priority first and keyed by its
        # key value, built once for this run (see
        # ``DistributedAlgorithm.action_table``).
        self._tables = {pid: algorithm.action_table(pid) for pid in algorithm.process_ids()}
        # Incremental engine state: the cached enabled map (valid for the
        # current configuration, modulo the environment flips collected
        # since it was last refreshed) and the reader map.
        self._enabled_cache: Optional[Dict[ProcessId, Any]] = None
        self._env_flips: Set[ProcessId] = set()
        self._readers: Dict[Tuple[ProcessId, str], FrozenSet[ProcessId]] = (
            self._reader_map() if engine == "incremental" else {}
        )
        # Let stateful environments see the initial configuration (its delta
        # is moot: the first step sweeps every guard).
        self.environment.observe(self.configuration, -1)
        for listener in self._step_listeners:
            listener(self.configuration, None)

    def add_step_listener(self, listener: StepListener) -> None:
        """Attach another observer mid-construction (before the run starts).

        The listener is immediately fed the current configuration with
        ``record=None`` (mirroring the construction-time call), so observers
        attached after ``__init__`` see the same stream as those passed in.
        """
        self._step_listeners.append(listener)
        listener(self.configuration, None)

    def _reader_map(self) -> Dict[Tuple[ProcessId, str], FrozenSet[ProcessId]]:
        """``(writer, variable) -> readers``, inverted from the declarations.

        Every process reads all of its own variables, and a ``None`` entry
        of :meth:`~repro.kernel.algorithm.DistributedAlgorithm.read_dependency_variables`
        ("any variable of that source") expands to the source's variables
        in the initial configuration.  A statement that writes outside that
        layout (repro-lint RL201) finds no entry, and its step raises
        ``KeyError``.
        """
        algorithm, configuration = self.algorithm, self.configuration
        readers: Dict[Tuple[ProcessId, str], Set[ProcessId]] = {}
        for pid in algorithm.process_ids():
            declared = dict(algorithm.read_dependency_variables(pid))
            declared[pid] = None
            for source, variables in declared.items():
                if variables is None:
                    variables = tuple(configuration.state_of(source))
                for name in variables:
                    readers.setdefault((source, name), set()).add(pid)
        return {pair: frozenset(ps) for pair, ps in readers.items()}

    # ------------------------------------------------------------------ #
    # single step
    # ------------------------------------------------------------------ #
    def set_configuration(self, configuration: Configuration) -> None:
        """Replace the current configuration from outside the step loop.

        This is the supported way to model a mid-run transient fault burst
        (see :meth:`repro.kernel.faults.FaultInjector.corrupt_scheduler`): the
        new configuration becomes the source of the next step, the
        incremental engine's cached enabled map is invalidated (guards are
        re-evaluated against the corrupted state instead of the stale cache),
        and the configuration :attr:`epoch` is bumped — so delta-driven
        observers see the epoch change on the next step's
        :class:`~repro.kernel.trace.StepDelta` and resynchronize from the
        full configuration instead of applying the delta to a world they
        never saw.  Round bookkeeping is kept — the pending set is pruned
        against the fresh enabled map on the next step anyway.
        """
        self.configuration = configuration
        self.epoch += 1
        self._enabled_cache = None

    def _sweep(self, configuration: Configuration) -> Dict[ProcessId, Any]:
        """A full guard sweep; it also makes every collected flip moot."""
        self._env_flips = set()
        return self.algorithm.enabled_processes(configuration, self.environment, self._tables)

    def _observe(self, configuration: Configuration, step_index: int) -> None:
        """Let the environment observe ``configuration``; collect its delta.

        An environment that cannot tell (``None``) drops the cached enabled
        map, so the next step sweeps every guard.
        """
        flips = self.environment.observe(configuration, step_index)
        if flips is None:
            self._enabled_cache = None
        else:
            self._env_flips.update(flips)

    def _current_enabled(self) -> Dict[ProcessId, Any]:
        """The enabled map for the current configuration (cached if incremental)."""
        if self.engine == "dense":
            return self._sweep(self.configuration)
        cache = self._enabled_cache
        if cache is None:
            cache = self._enabled_cache = self._sweep(self.configuration)
            return cache
        # The cache was computed before the environment observed the current
        # configuration; refresh the processes whose request answers flipped
        # since.
        refresh = self._env_flips
        if refresh:
            configuration, environment, tables = self.configuration, self.environment, self._tables
            enabled_action = self.algorithm.enabled_action
            for pid in refresh:
                action = enabled_action(pid, configuration, environment, tables[pid])
                if action is None:
                    cache.pop(pid, None)
                else:
                    cache[pid] = action
            self._env_flips = set()
        return cache

    def _enabled_after_step(
        self,
        enabled_map: Dict[ProcessId, Any],
        writers: Dict[ProcessId, Dict[str, Any]],
        new_configuration: Configuration,
    ) -> Dict[ProcessId, Any]:
        """The enabled map of ``new_configuration`` (γ').

        Dense engine: a full sweep.  Incremental engine: start from the
        pre-step map and re-evaluate the dirty set, the union of the readers
        of every ``(writer, variable)`` pair the step wrote.  For everyone
        else neither the variables their guards read nor the environment
        changed, so their enabledness is unchanged by construction.
        """
        if self.engine == "dense":
            return self._sweep(new_configuration)
        after = dict(enabled_map)
        dirty: Set[ProcessId] = set()
        readers = self._readers
        for writer, written in writers.items():
            for name in written:
                dirty.update(readers[writer, name])
        environment, tables = self.environment, self._tables
        enabled_action = self.algorithm.enabled_action
        for pid in dirty:
            action = enabled_action(pid, new_configuration, environment, tables[pid])
            if action is None:
                after.pop(pid, None)
            else:
                after[pid] = action
        return after

    def step(self) -> Optional[StepRecord]:
        """Execute one step; returns ``None`` if the configuration is terminal."""
        enabled_map = self._current_enabled()
        if not enabled_map:
            return None
        enabled_ids = tuple(sorted(enabled_map))

        if self._round_pending is None:
            # A new round starts: it must see the activation or
            # neutralization of every process enabled right now.
            self._round_pending = set(enabled_ids)

        selected = self.daemon.select(enabled_ids, self.configuration, self.step_index)
        selected = frozenset(p for p in selected if p in enabled_map)
        if not selected:
            # A daemon must select at least one enabled process; fall back to
            # the smallest id to preserve the distributed property.
            selected = frozenset({enabled_ids[0]})
        # Report the selection that is actually executed (it may differ from
        # the daemon's answer when the fallback above kicked in), so stateful
        # daemons keep their fairness bookkeeping truthful.
        self.daemon.notify_enabled(enabled_ids, selected)

        writes: Dict[ProcessId, Dict[str, Any]] = {}
        executed: Dict[ProcessId, str] = {}
        for pid in sorted(selected):
            action = enabled_map[pid]
            ctx = ActionContext(pid, self.configuration, self.environment)
            action.execute(ctx)
            writes[pid] = ctx.writes
            executed[pid] = action.label

        new_configuration = self.configuration.updated(writes)

        # Neutralization: enabled before, not selected, not enabled after.
        enabled_after_map = self._enabled_after_step(enabled_map, writes, new_configuration)
        enabled_after = set(enabled_after_map)
        neutralized = frozenset(
            pid
            for pid in enabled_ids
            if pid not in selected and pid not in enabled_after
        )

        record = StepRecord(
            index=self.step_index,
            selected=frozenset(selected),
            executed=executed,
            enabled_before=frozenset(enabled_ids),
            neutralized=neutralized,
            round_index=self.round_index,
            delta=StepDelta(
                writes={
                    pid: tuple(sorted(written))
                    for pid, written in writes.items()
                    if written
                },
                epoch=self.epoch,
            ),
        )

        # Advance round bookkeeping *after* stamping the record: the step is
        # part of the round it completes.
        self._round_pending -= set(selected)
        self._round_pending -= set(neutralized)
        # Processes that are simply no longer enabled (e.g. their guard went
        # false because a neighbour moved) also stop being owed a move.
        self._round_pending &= enabled_after | set(selected)
        if not self._round_pending:
            self.round_index += 1
            self._round_pending = None

        self.configuration = new_configuration
        if self.engine == "incremental":
            # γ''s enabled map becomes the next step's pre-step map; the
            # environment drift from the ``observe`` below is folded in by
            # ``_current_enabled`` at the start of the next step.
            self._enabled_cache = enabled_after_map
        if self.record_configurations:
            self.trace.append(new_configuration, record)
        else:
            self.trace.append_sparse(new_configuration, record)
        self.step_index += 1
        self._observe(new_configuration, record.index)
        # Every listener sees every committed step, even when one of them
        # stops the run: capture the first StopRun, keep notifying the rest
        # (their state must stay in sync with the trace), then re-raise.
        stop: Optional[StopRun] = None
        for listener in self._step_listeners:
            try:
                listener(new_configuration, record)
            except StopRun as exc:
                if stop is None:
                    stop = exc
        if stop is not None:
            raise stop
        return record

    # ------------------------------------------------------------------ #
    # run loops
    # ------------------------------------------------------------------ #
    def run(
        self,
        max_steps: int = 10_000,
        max_rounds: Optional[int] = None,
        stop_predicate: Optional[Callable[[Configuration, int], bool]] = None,
        allow_idle_steps: bool = False,
    ) -> SchedulerResult:
        """Run until termination, a bound, or ``stop_predicate`` becomes true.

        ``stop_predicate(configuration, step_index)`` is evaluated after every
        step — including idle ticks, so a predicate that becomes true while
        the system is quiescent (e.g. an external timer expiring) stops the
        run promptly instead of spinning to ``max_steps``; when it returns
        ``True`` the run stops with reason ``"predicate"``.  A step listener
        raising :class:`StopRun` stops the run with the exception's reason.

        With ``allow_idle_steps=True`` a configuration with no enabled process
        does *not* end the run: an "idle tick" is consumed instead (the
        environment observes the unchanged configuration and external time
        advances), so request predicates that depend on elapsed time -- e.g.
        a professor deciding to leave a meeting after a while -- can become
        true and re-enable the system.  This models the asynchronous
        environment of the paper, where professors act at unpredictable real
        times even while the algorithm itself is quiescent.
        """
        stop_reason = "max_steps"
        terminated = False
        while self.step_index < max_steps:
            if max_rounds is not None and self.round_index >= max_rounds:
                stop_reason = "max_rounds"
                break
            try:
                record = self.step()
            except StopRun as stop:
                # A listener (e.g. a spec monitor in stop_on_violation mode)
                # halted the run; the offending step is fully committed.
                stop_reason = stop.reason
                break
            if record is None:
                if not allow_idle_steps:
                    terminated = True
                    stop_reason = "terminal"
                    break
                # Idle tick: no process can move, but external time passes.
                self._observe(self.configuration, self.step_index)
                self.step_index += 1
            if stop_predicate is not None and stop_predicate(self.configuration, self.step_index):
                stop_reason = "predicate"
                break
        else:
            stop_reason = "max_steps"
        return SchedulerResult(
            trace=self.trace,
            steps=self.step_index,
            rounds=self.round_index + (0 if self._round_pending is None else 1),
            terminated=terminated,
            stop_reason=stop_reason,
        )
