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

Every process runs the same local algorithm with its own id as a
parameter (Algorithms 1 and 2 of the paper), so the list is one list for
all processes: a guard or statement reads the acting process from
``ctx.pid``.  Guards are pure functions of the configuration and the
environment's answers, so only the highest-priority enabled action
matters: :meth:`DistributedAlgorithm.enabled_action` walks the run's
*action table* (:meth:`DistributedAlgorithm.action_table`, the list
reversed, built once per run by the scheduler and shared by every
process) and returns the first action whose guard holds.  An action may
declare the values of one own variable (the algorithm's
:attr:`DistributedAlgorithm.action_key`, the status ``S`` for the committee
coordination algorithms) at which its guard can hold; the table is keyed
by that value, so a walk tries only the actions the walker's own value
admits.  The guards of one walk share one
:class:`ActionContext`, so a macro several of them test (a :func:`shared`
predicate) is derived only once.

Algorithms also receive *inputs* from the environment: the committee
coordination algorithms read the predicates ``RequestIn(p)`` and
``RequestOut(p)`` which model the professor's autonomous decisions.  The
environment is exposed to guards and statements through the
:class:`ActionContext`; its :meth:`Environment.observe` reports which
processes' answers flipped (the environment delta), so the incremental
engine re-evaluates only those, besides the processes a step wrote to.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

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

        After a step, the incremental engine walks the guards of the dirty
        processes the step did not move *before* this call (they must see
        the answers the step saw), and those of the dirty processes it moved
        right *after* it.  It re-evaluates the delta's other processes
        before the next step.  On ``None`` it drops its cached enabled map
        (and skips the movers' walk), so the next step sweeps every guard.
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

    **The read protocol.**  ``states`` is the snapshot's row mapping
    ``pid -> {variable: value}``, taken once from the configuration's
    ``states_view()``; it MUST NOT be mutated.  Guards and their macros
    index it directly (``states[q][STATUS]``, no Python frame per read),
    and :meth:`read` and :meth:`own` are the one-call forms over the same
    rows, which statements use.  Every provider
    of a context's configuration implements just this mapping: a
    :class:`~repro.kernel.configuration.Configuration`, a batched lane view
    and a composed component's prefixing view.

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

    __slots__ = ("pid", "configuration", "environment", "states", "_writes", "memo")

    def __init__(
        self,
        pid: ProcessId,
        configuration: Configuration,
        environment: Environment,
    ) -> None:
        self.pid = pid
        self.configuration = configuration
        self.environment = environment
        self.states: Mapping[ProcessId, Mapping[str, Any]] = configuration.states_view()
        self._writes: Dict[str, Any] = {}
        self.memo: Dict[Callable[..., Any], Any] = {}

    # -- reads ---------------------------------------------------------- #
    def read(self, pid: ProcessId, variable: str, default: Any = None) -> Any:
        """Read ``variable`` of process ``pid`` from the pre-step snapshot."""
        return self.states[pid].get(variable, default)

    def own(self, variable: str, default: Any = None) -> Any:
        """Read one of the executing process's own variables."""
        return self.states[self.pid].get(variable, default)

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

    * it is a pure function of ``ctx.states`` (the immutable snapshot) and
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
    """One guarded action ``label :: guard |-> statement`` of a local algorithm.

    ``when`` optionally declares the values of the acting process's
    :attr:`DistributedAlgorithm.action_key` variable at which ``guard`` can
    hold (``None``: any value).  A declaration only prunes which guards a
    walk tries, so it must cover every value at which the guard holds; the
    guard keeps its full conjunction, and a sound declaration can never
    change which action wins.
    """

    label: str
    guard: Guard
    statement: Statement
    when: Optional[FrozenSet[Any]] = None

    def enabled(self, ctx: ActionContext) -> bool:
        return bool(self.guard(ctx))

    def execute(self, ctx: ActionContext) -> None:
        self.statement(ctx)


class ActionTable(dict):
    """The actions, highest priority first, keyed by the walker's key value.

    ``table[value]`` holds the actions whose guard can hold while the
    walking process's :attr:`variable` equals ``value``: those whose
    ``when`` names ``value`` or declares nothing.  :attr:`every` holds all
    of them, and a value that no declaration names maps to it.  A table
    whose :attr:`variable` is ``None`` (the algorithm declares no key) has
    the single entry ``table[None]``.
    """

    __slots__ = ("variable", "every")

    def __init__(self, variable: Optional[str], every: Tuple[Action, ...]) -> None:
        super().__init__()
        self.variable = variable
        self.every = every
        if variable is None:
            self[None] = every
            return
        for action in every:
            for value in action.when or ():
                if value not in self:
                    self[value] = tuple(
                        a for a in every if a.when is None or value in a.when
                    )

    def __missing__(self, value: Any) -> Tuple[Action, ...]:
        return self.every


class DistributedAlgorithm(abc.ABC):
    """A distributed algorithm: one local algorithm per process.

    Subclasses describe

    * the set of processes (:meth:`process_ids`),
    * each process's variables with a legitimate initial value
      (:meth:`initial_state`) and, for stabilization experiments, an
      arbitrary value drawn from the variable domains
      (:meth:`arbitrary_state`),
    * the ordered list of guarded actions every process runs
      (:meth:`actions`); the list order encodes priority, **later = higher**.
    """

    #: The own variable whose value keys :meth:`action_table` (see
    #: :attr:`Action.when`); ``None`` keys nothing, so every walk tries
    #: every action.
    action_key: Optional[str] = None

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
    def actions(self) -> Sequence[Action]:
        """Ordered guarded actions (later in the list = higher priority).

        One list serves every process: each guard and statement reads the
        acting process from ``ctx.pid``, never from a value it closed over.
        """

    # ------------------------------------------------------------------ #
    # conveniences shared by all algorithms
    # ------------------------------------------------------------------ #
    def initial_configuration(self) -> Configuration:
        """The all-legitimate starting configuration."""
        return Configuration({pid: self.initial_state(pid) for pid in self.process_ids()})

    def arbitrary_configuration(self, rng: Any) -> Configuration:
        """A configuration with every variable drawn arbitrarily (transient faults)."""
        return Configuration({pid: self.arbitrary_state(pid, rng) for pid in self.process_ids()})

    def action_table(self) -> ActionTable:
        """The actions, highest priority first, keyed by :attr:`action_key`.

        Every entry is :meth:`actions` reversed, less the actions whose
        :attr:`Action.when` excludes the entry's value.  The scheduler
        builds one table per run and passes it to every guard evaluation
        of that run, whichever process walks; it belongs to the run, never
        to the algorithm (a table cached here would close a reference cycle
        algorithm -> table -> closures -> algorithm).
        """
        return ActionTable(self.action_key, tuple(reversed(self.actions())))

    def enabled_action(
        self,
        pid: ProcessId,
        configuration: Configuration,
        environment: Environment,
        table: Optional[ActionTable] = None,
    ) -> Optional[Action]:
        """The highest-priority enabled action of ``pid`` in ``configuration``.

        Returns ``None`` when ``pid`` is disabled.  Priority follows the
        paper's convention: the action appearing *last* in :meth:`actions`
        wins.  ``table`` is the run's :meth:`action_table` (built here when
        omitted).  The walk reads ``pid``'s row once for its key value and
        tries only that entry; guards are pure, so the first action in it
        whose guard holds is the answer and the guards after it are never
        evaluated.  This is the only per-process guard entry point;
        subclasses do not override it.
        """
        if table is None:
            table = self.action_table()
        ctx = ActionContext(pid, configuration, environment)
        variable = table.variable
        try:
            actions = table[None if variable is None else ctx.states[pid].get(variable)]
        except TypeError:  # an unhashable value, which no declaration names
            actions = table.every
        for action in actions:
            if action.guard(ctx):
                return action
        return None

    def enabled_processes(
        self,
        configuration: Configuration,
        environment: Environment,
        table: Optional[ActionTable] = None,
    ) -> Dict[ProcessId, Action]:
        """``Enabled(γ)`` with, for each enabled process, its priority action.

        A full sweep of :meth:`enabled_action` over one :meth:`action_table`
        (``table``, built once here when omitted).
        """
        if table is None:
            table = self.action_table()
        enabled: Dict[ProcessId, Action] = {}
        enabled_action = self.enabled_action
        for pid in self.process_ids():
            action = enabled_action(pid, configuration, environment, table)
            if action is not None:
                enabled[pid] = action
        return enabled

    # ------------------------------------------------------------------ #
    # dirty-set protocol (incremental scheduler engine)
    # ------------------------------------------------------------------ #
    def read_dependency_variables(
        self, pid: ProcessId
    ) -> Mapping[ProcessId, Optional[Tuple[str, ...]]]:
        """The variables the guards of ``pid`` read, per source process.

        Returns a mapping ``source process -> variable names read``, where
        ``None`` means "any variable of that source".  This declaration is
        what the incremental scheduler engine's dirty set is built from: at
        construction it inverts every process's map into one
        ``(writer, variable) -> readers`` map, and after a step it
        re-evaluates exactly the readers of the pairs the step wrote.  A
        ``None`` entry expands to the source's variables in the run's
        initial configuration, and ``pid`` always reads all of its own
        variables, whatever this returns.

        The default is maximally conservative (every variable of every
        process), which makes the incremental engine correct for any
        algorithm at the cost of re-evaluating everything after every step.
        Algorithms with local guards override it to unlock the speed-up: the
        committee coordination layer reads only ``S``/``P``/``T`` (and
        ``L``) of its ``G_H`` neighbours plus the token module's counter of
        its ring link, so a neighbour updating its token-module counter
        dirties only the counter's ring successor, not the whole
        neighbourhood.
        """
        return {q: None for q in self.process_ids()}
