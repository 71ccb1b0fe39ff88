"""Guarded-action local algorithms and their evaluation context.

A local algorithm (Section 2.2) is a finite **ordered** list of guarded
actions::

    <label> :: <guard>  |->  <statement>

The guard of an action of process ``p`` is a Boolean expression over the
variables of ``p`` and of its neighbours; the statement updates a subset of
``p``'s own variables.  The order of the list encodes priority: *an action A
has higher priority than B iff A appears after B in the code* (this is the
convention the paper uses -- the stabilization actions appear last and are
the "priority actions").  When a selected process has several enabled
actions, it executes its highest-priority enabled one.

Guards are pure functions of the configuration and the environment's
answers, so only the highest-priority enabled action matters:
:meth:`DistributedAlgorithm.enabled_action` walks the process's *action
table* (:meth:`DistributedAlgorithm.action_table`, the list reversed, built
once per run by the scheduler) and returns the first action whose guard
holds.  The guards of one walk share one :class:`ActionContext`, so a macro
several of them test (a :func:`shared` predicate) is derived only once.

Algorithms also receive *inputs* from the environment: the committee
coordination algorithms read the predicates ``RequestIn(p)`` and
``RequestOut(p)`` which model the professor's autonomous decisions.  The
environment is exposed to guards and statements through the
:class:`ActionContext`; its :meth:`Environment.observe` reports which
processes' answers flipped (the environment delta), so the incremental
engine refreshes only those between steps.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.kernel.configuration import Configuration, ProcessId


class Environment:
    """External inputs to an algorithm (professor requests, clocks, ...).

    The default environment answers ``False`` to every request predicate; the
    request models in :mod:`repro.workloads.request_models` override these
    hooks.  ``observe`` is called by the scheduler once per step *after* the
    step has been applied so that stateful environments (e.g. meeting-length
    counters) can advance.

    **Guard purity.**  ``request_in`` and ``request_out`` must be pure reads:
    no RNG draws, no state mutation.  Guards call them, and the scheduler
    evaluates only the guards an answer needs (the highest-priority action
    first, stopping at the first enabled one; only the processes a step
    could have affected), so a side effect there would make runs depend on
    the evaluation order.  Draw randomness in :meth:`observe` (as
    ``ProbabilisticRequestEnvironment`` does) or in :meth:`reset`.
    """

    def request_in(self, pid: ProcessId, configuration: Configuration) -> bool:
        """The ``RequestIn(p)`` predicate: does professor ``pid`` want to meet?"""
        return False

    def request_out(self, pid: ProcessId, configuration: Configuration) -> bool:
        """The ``RequestOut(p)`` predicate: does professor ``pid`` want to leave?"""
        return False

    def observe(
        self, configuration: Configuration, step_index: int
    ) -> Optional[Iterable[ProcessId]]:
        """Hook invoked after every step (and idle tick) with the new configuration.

        Returns the *environment delta*: every process whose
        ``(request_in, request_out)`` answer on ``configuration`` may differ
        from its answer just before this call (extra processes are allowed,
        missing ones are not), or ``None`` when the environment cannot tell.
        The incremental engine re-evaluates exactly these processes between
        steps; on ``None`` it falls back to
        :meth:`DistributedAlgorithm.environment_sensitive_processes`.
        """
        return None

    def on_essential_discussion(self, pid: ProcessId) -> None:
        """Hook invoked when professor ``pid`` performs its essential discussion."""

    def reset(self) -> None:
        """Reset any internal state (called when a scheduler is rebuilt)."""


class ActionContext:
    """Read/write interface handed to guards and statements.

    Reads are served from the *pre-step* snapshot (composite atomicity:
    every process selected in a step evaluates its guard and computes its
    writes against the same configuration ``γ``).  Writes are buffered and
    applied by the scheduler when building ``γ'``.

    The atomic-state model only allows a process to read its neighbours'
    variables; the context does not mechanically enforce this (the token
    circulation substrate legitimately reads its virtual-ring predecessor,
    a documented substitution), but every committee coordination algorithm
    restricts itself to hypergraph neighbours.

    **The memo.**  ``memo`` maps each :func:`shared` predicate evaluated for
    ``pid`` (never for another process) to its immutable value on this
    context's snapshot.  A context lives for exactly one
    :meth:`DistributedAlgorithm.enabled_action` walk or one statement
    execution, and the snapshot it reads never changes, so a value is only
    ever reused against the snapshot it was computed on.  The memo belongs
    to the context, never to the algorithm or the scheduler: one that
    outlived its context would serve values of an older configuration.
    """

    __slots__ = ("pid", "configuration", "environment", "read", "_writes", "memo")

    def __init__(
        self,
        pid: ProcessId,
        configuration: Configuration,
        environment: Environment,
    ) -> None:
        self.pid = pid
        self.configuration = configuration
        self.environment = environment
        #: ``read(pid, variable, default=None)``: read ``variable`` of process
        #: ``pid`` from the pre-step snapshot.  Bound to the snapshot's own
        #: ``get``, so a guard's read costs one Python frame, not two.
        self.read: Callable[..., Any] = configuration.get
        self._writes: Dict[str, Any] = {}
        self.memo: Dict[Callable[..., Any], Any] = {}

    # -- reads ---------------------------------------------------------- #
    def own(self, variable: str, default: Any = None) -> Any:
        """Read one of the executing process's own variables."""
        return self.configuration.get(self.pid, variable, default)

    def request_in(self) -> bool:
        return self.environment.request_in(self.pid, self.configuration)

    def request_out(self) -> bool:
        return self.environment.request_out(self.pid, self.configuration)

    # -- writes --------------------------------------------------------- #
    def write(self, variable: str, value: Any) -> None:
        """Buffer a write to one of the executing process's own variables."""
        self._writes[variable] = value

    @property
    def writes(self) -> Dict[str, Any]:
        return dict(self._writes)


def shared(predicate: Callable[[Any, ActionContext, ProcessId], Any]) -> Callable[..., Any]:
    """Evaluate a ``(self, ctx, pid)`` predicate at most once per context.

    Guards of one process share macros (``Ready``, ``FreeEdges``,
    ``Token(p)``, ...), so a priority walk would otherwise derive the same
    macro once per guard.  A call with ``pid == ctx.pid`` stores its value
    in ``ctx.memo`` under ``predicate`` and later calls return it; a call
    for any other process evaluates directly and leaves the memo alone.

    The contract a decorated predicate keeps:

    * it is a pure function of ``ctx.read`` (the immutable snapshot) and
      ``pid``: it never calls ``ctx.request_in``/``ctx.request_out`` or
      touches ``ctx.environment``, which a statement may mutate partway
      through a context;
    * its value is immutable (a bool, a tuple), so no caller can alter what
      a later caller is handed;
    * one context serves the guards of one algorithm instance (composed
      components run in their own namespaced contexts), so the predicate
      alone is the key.
    """

    def cached(self: Any, ctx: ActionContext, pid: ProcessId) -> Any:
        if pid != ctx.pid:
            return predicate(self, ctx, pid)
        memo = ctx.memo
        if predicate in memo:
            return memo[predicate]
        value = memo[predicate] = predicate(self, ctx, pid)
        return value

    return functools.wraps(predicate)(cached)


Guard = Callable[[ActionContext], bool]
Statement = Callable[[ActionContext], None]

#: The value type of :meth:`DistributedAlgorithm.read_dependency_variables`:
#: ``source process -> variables read`` (``None`` = any variable).
ReadDependencyVariables = Mapping[ProcessId, Optional[Tuple[str, ...]]]


def merge_read_dependency_variables(
    *specs: ReadDependencyVariables,
) -> Dict[ProcessId, Optional[Tuple[str, ...]]]:
    """Union several variable-granular dependency maps.

    Used by composed algorithms (CC layer + token module, election + token
    circulation) whose guards read different variables of possibly the same
    source processes.  A ``None`` entry ("any variable") absorbs explicit
    variable tuples for that source.
    """
    merged: Dict[ProcessId, Optional[set]] = {}
    for spec in specs:
        for source, variables in spec.items():
            if variables is None:
                merged[source] = None
                continue
            current = merged.get(source, set())
            if current is None:
                continue  # already "any variable"
            merged[source] = set(current) | set(variables)
    return {
        source: (None if variables is None else tuple(sorted(variables)))
        for source, variables in merged.items()
    }


@dataclass(frozen=True)
class Action:
    """One guarded action ``label :: guard |-> statement`` of a local algorithm."""

    label: str
    guard: Guard
    statement: Statement

    def enabled(self, ctx: ActionContext) -> bool:
        return bool(self.guard(ctx))

    def execute(self, ctx: ActionContext) -> None:
        self.statement(ctx)


class DistributedAlgorithm(abc.ABC):
    """A distributed algorithm: one local algorithm per process.

    Subclasses describe

    * the set of processes (:meth:`process_ids`),
    * each process's variables with a legitimate initial value
      (:meth:`initial_state`) and, for stabilization experiments, an
      arbitrary value drawn from the variable domains
      (:meth:`arbitrary_state`),
    * the ordered list of guarded actions of each process
      (:meth:`actions`); the list order encodes priority, **later = higher**.
    """

    @abc.abstractmethod
    def process_ids(self) -> Tuple[ProcessId, ...]:
        """All process identifiers (a total order, as the paper assumes)."""

    @abc.abstractmethod
    def initial_state(self, pid: ProcessId) -> Dict[str, Any]:
        """A legitimate ("clean start") variable assignment for ``pid``."""

    @abc.abstractmethod
    def arbitrary_state(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        """A uniformly arbitrary variable assignment for ``pid`` (fault model)."""

    @abc.abstractmethod
    def actions(self, pid: ProcessId) -> Sequence[Action]:
        """Ordered guarded actions of ``pid`` (later in the list = higher priority)."""

    # ------------------------------------------------------------------ #
    # conveniences shared by all algorithms
    # ------------------------------------------------------------------ #
    def initial_configuration(self) -> Configuration:
        """The all-legitimate starting configuration."""
        return Configuration({pid: self.initial_state(pid) for pid in self.process_ids()})

    def arbitrary_configuration(self, rng: Any) -> Configuration:
        """A configuration with every variable drawn arbitrarily (transient faults)."""
        return Configuration({pid: self.arbitrary_state(pid, rng) for pid in self.process_ids()})

    def action_table(self, pid: ProcessId) -> Tuple[Action, ...]:
        """``pid``'s actions, highest priority first: :meth:`actions` reversed.

        The scheduler builds one table per process once per run and passes it
        to every guard evaluation of that run; it belongs to the run, never
        to the algorithm (a table cached here would close a reference cycle
        algorithm -> table -> closures -> algorithm).
        """
        return tuple(reversed(self.actions(pid)))

    def enabled_action(
        self,
        pid: ProcessId,
        configuration: Configuration,
        environment: Environment,
        table: Optional[Sequence[Action]] = None,
    ) -> Optional[Action]:
        """The highest-priority enabled action of ``pid`` in ``configuration``.

        Returns ``None`` when ``pid`` is disabled.  Priority follows the
        paper's convention: the action appearing *last* in :meth:`actions`
        wins.  ``table`` is ``pid``'s :meth:`action_table` (built here when
        omitted); guards are pure, so the first action in it whose guard
        holds is the answer and the guards after it are never evaluated.
        This is the only per-process guard entry point; subclasses do not
        override it.
        """
        if table is None:
            table = self.action_table(pid)
        ctx = ActionContext(pid, configuration, environment)
        for action in table:
            if action.guard(ctx):
                return action
        return None

    def enabled_processes(
        self,
        configuration: Configuration,
        environment: Environment,
        tables: Optional[Mapping[ProcessId, Sequence[Action]]] = None,
    ) -> Dict[ProcessId, Action]:
        """``Enabled(γ)`` with, for each enabled process, its priority action.

        A full sweep of :meth:`enabled_action`; ``tables`` maps each process
        to its :meth:`action_table` (built per process when omitted).
        """
        enabled: Dict[ProcessId, Action] = {}
        enabled_action = self.enabled_action
        for pid in self.process_ids():
            action = enabled_action(
                pid, configuration, environment, None if tables is None else tables[pid]
            )
            if action is not None:
                enabled[pid] = action
        return enabled

    def variable_names(self) -> Tuple[str, ...]:
        """Names of the variables of the first process (assumed uniform)."""
        first = self.process_ids()[0]
        return tuple(sorted(self.initial_state(first)))

    # ------------------------------------------------------------------ #
    # dirty-set protocol (incremental scheduler engine)
    # ------------------------------------------------------------------ #
    def read_dependencies(self, pid: ProcessId) -> Tuple[ProcessId, ...]:
        """Processes whose *variables* the guards of ``pid`` may read.

        This is the process-granular half of the dirty-set protocol: the
        incremental scheduler engine re-evaluates the guards of ``pid`` after
        a step only if some process in this set wrote a variable.  The
        default is maximally conservative (every process), which makes the
        incremental engine correct for any algorithm at the cost of
        re-evaluating everything; algorithms with local guards (the committee
        coordination layer reads its ``G_H`` neighbourhood plus its token
        link, the ring modules read their ring predecessor) override this to
        unlock the speed-up.  ``pid`` itself is always treated as a
        dependency by the scheduler, whether or not it appears here.

        For *variable*-granular invalidation — re-evaluate ``pid`` only when
        specific variables of a source process change — override
        :meth:`read_dependency_variables` instead; its default delegates to
        this method.
        """
        return self.process_ids()

    def read_dependency_variables(
        self, pid: ProcessId
    ) -> Mapping[ProcessId, Optional[Tuple[str, ...]]]:
        """Variable-granular read dependencies of the guards of ``pid``.

        Returns a mapping ``source process -> variable names read`` where
        ``None`` means "any variable of that source" (process-granular).  The
        incremental scheduler engine inverts this map at construction: after
        a step it re-evaluates ``pid`` iff some step writer wrote a variable
        ``pid`` declares here (matching against the step's
        :class:`~repro.kernel.trace.StepDelta`).  This is strictly finer than
        :meth:`read_dependencies` — e.g. the committee coordination layer
        reads only ``S``/``P``/``T``(/``L``) of its hypergraph neighbours,
        so a neighbour updating its token-module counter no longer dirties
        the whole neighbourhood, only the counter's ring successor.

        The default delegates to :meth:`read_dependencies` with ``None``
        variables (process granularity), so algorithms that only declare the
        coarse form keep working unchanged.  ``pid`` itself is always treated
        as a full dependency by the scheduler regardless of what this
        returns.
        """
        return {source: None for source in self.read_dependencies(pid)}

    def environment_sensitive_processes(
        self, configuration: Configuration
    ) -> Tuple[ProcessId, ...]:
        """Processes whose enabledness may change with the *environment* alone.

        Between two steps the configuration is frozen but the environment
        advances (``observe`` runs after every step), so guards that read
        ``RequestIn`` / ``RequestOut`` can flip without any process writing.
        The incremental engine normally re-evaluates just the processes the
        environment's ``observe`` reports as flipped; this is its fallback
        when ``observe`` returns ``None`` (it cannot tell).  The default is
        conservative (every process -- the refresh then degenerates to a full
        sweep); algorithms whose guards never consult the environment return
        ``()``, and the committee coordination layer returns the processes
        whose status makes a request predicate relevant (``idle``/``done``).
        """
        return self.process_ids()
