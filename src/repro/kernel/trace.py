"""Computation traces.

A computation is a maximal sequence of configurations ``γ0 γ1 ...`` produced
by the scheduler.  A dense :class:`Trace` stores the configurations together
with per-step metadata (which processes moved, which actions they executed,
round boundaries) and offers the queries the spec checkers need.  A sparse
trace keeps counts only, so its memory does not grow with the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.kernel.configuration import Configuration, ProcessId


@dataclass(frozen=True)
class StepDelta:
    """The writer set of one committed step, stamped with the configuration epoch.

    This is the kernel's *delta protocol*: every step record produced by the
    scheduler carries the exact ``(process, variable)`` writes the step
    applied, so downstream consumers — the incremental engine's dirty-set,
    the streaming spec monitors, streaming metrics — can update their state
    in ``O(|writers|)`` instead of re-scanning all ``n`` processes.

    Attributes
    ----------
    writes:
        Map from each process that wrote at least one variable to the sorted
        tuple of variable names it wrote.  Processes that executed an action
        but wrote nothing are omitted (``γ'`` is identical to ``γ`` for them).
    epoch:
        The scheduler's *configuration epoch* at the time the step committed.
        The epoch starts at 0 and is bumped by every external configuration
        swap (:meth:`~repro.kernel.scheduler.Scheduler.set_configuration`,
        and therefore
        :meth:`~repro.kernel.faults.FaultInjector.corrupt_scheduler`).  An
        observer that caches state derived from earlier configurations must
        compare epochs: *same epoch* ⇒ every variable whose value differs
        between the previously observed configuration and this one appears
        in the delta (entries may additionally include same-value rewrites —
        a statement that writes a variable's current value back is still
        recorded, so treat entries as invalidation candidates, not as proof
        of change); *epoch changed* ⇒ the world was swapped under the
        observer between steps and it must resynchronize from the full
        configuration.
    """

    writes: Mapping[ProcessId, Tuple[str, ...]]
    epoch: int

    @property
    def writers(self) -> Tuple[ProcessId, ...]:
        """The processes that wrote at least one variable, in sorted order."""
        return tuple(sorted(self.writes))

    def wrote(self, pid: ProcessId, *variables: str) -> bool:
        """``True`` iff ``pid`` wrote any of ``variables`` (any variable if empty)."""
        written = self.writes.get(pid)
        if written is None:
            return False
        if not variables:
            return True
        return any(v in written for v in variables)


@dataclass(frozen=True)
class StepRecord:
    """Metadata about one step ``γ_i -> γ_{i+1}``.

    Attributes
    ----------
    index:
        The step number (0 is the step leading from ``γ0`` to ``γ1``).
    selected:
        Processes chosen by the daemon.
    executed:
        Map from each moving process to the label of the action it executed.
    enabled_before:
        Processes enabled in the source configuration.
    neutralized:
        Processes that were enabled before the step, did not move, and are no
        longer enabled after it (the paper's *neutralization*).
    round_index:
        Index of the round this step belongs to (0-based).
    delta:
        The step's :class:`StepDelta` (exact writer set + configuration
        epoch).  Always populated by the scheduler; ``None`` only for
        hand-constructed records (old tests, synthetic traces), in which case
        delta consumers fall back to their full-scan path.
    """

    index: int
    selected: FrozenSet[ProcessId]
    executed: Mapping[ProcessId, str]
    enabled_before: FrozenSet[ProcessId]
    neutralized: FrozenSet[ProcessId]
    round_index: int
    delta: Optional[StepDelta] = None


class Trace:
    """A recorded computation: configurations plus step metadata.

    Recording every configuration keeps spec checking simple and exact; for
    the problem sizes of the paper's figures and of our benchmarks this is
    cheap.  ``record_configurations=False`` in the scheduler produces a
    *sparse* trace, in ``O(n)`` memory whatever the run length.

    The sparse contract is counts, not records: ``length``, ``rounds``,
    ``action_counts()``, ``initial`` and ``final`` are exact, while the
    intermediate configurations and the :class:`StepRecord` objects are
    dropped.  ``configurations``, ``steps``, ``pairs``, ``executions_of``,
    ``variable_series``, ``len()``, iteration and every dense consumer of
    the configuration sequence (the dense spec checkers,
    ``waiting_spells``, ...) call :meth:`require_dense` and raise; such
    consumers attach a step listener (a streaming collector, spec suite or
    recorder) to the scheduler while the run happens instead.
    """

    def __init__(self, initial: Configuration) -> None:
        self._configurations: List[Configuration] = [initial]
        self._steps: List[StepRecord] = []
        self._sparse_final: Optional[Configuration] = None
        self._length = 0
        self._rounds = 0
        self._action_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # construction (used by the scheduler)
    # ------------------------------------------------------------------ #
    def _count(self, step: StepRecord) -> None:
        self._length += 1
        self._rounds = step.round_index + 1
        counts = self._action_counts
        for label in step.executed.values():
            counts[label] = counts.get(label, 0) + 1

    def append(self, configuration: Configuration, step: StepRecord) -> None:
        self._configurations.append(configuration)
        self._steps.append(step)
        self._count(step)

    def append_sparse(self, configuration: Configuration, step: StepRecord) -> None:
        """Count the step but keep only the latest configuration."""
        self._sparse_final = configuration
        self._count(step)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def initial(self) -> Configuration:
        return self._configurations[0]

    @property
    def final(self) -> Configuration:
        if self._sparse_final is not None:
            return self._sparse_final
        return self._configurations[-1]

    @property
    def is_sparse(self) -> bool:
        """``True`` iff intermediate configurations were dropped while recording."""
        return self._sparse_final is not None

    def require_dense(self, consumer: str) -> None:
        """Raise a clear :class:`ValueError` if this trace is sparse.

        Every consumer that walks the full configuration sequence (the dense
        spec checkers, ``waiting_spells``, ``concurrency_profile``, ...) calls
        this first, so a sparse trace fails loudly instead of silently
        reporting a vacuous verdict computed from the initial configuration
        alone.
        """
        if self.is_sparse:
            raise ValueError(
                f"{consumer} needs a densely recorded trace, but this trace "
                "was recorded with record_configurations=False and only "
                "retains the initial and final configurations and its step "
                "counts; re-run with record_configurations=True, or attach a "
                "streaming monitor (repro.spec.streaming.StreamingSpecSuite, "
                "repro.metrics.collector.StreamingMetricsCollector, ...) as a "
                "scheduler step_listener while the run happens"
            )

    @property
    def configurations(self) -> Sequence[Configuration]:
        """Every configuration ``γ0 .. γn`` (dense traces only)."""
        self.require_dense("Trace.configurations")
        return tuple(self._configurations)

    @property
    def steps(self) -> Sequence[StepRecord]:
        """Every step's :class:`StepRecord` (dense traces only)."""
        self.require_dense("Trace.steps")
        return tuple(self._steps)

    @property
    def length(self) -> int:
        """Number of steps in the computation."""
        return self._length

    @property
    def rounds(self) -> int:
        """Number of completed rounds (per the Dolev-Israeli-Moran definition)."""
        return self._rounds

    def __iter__(self) -> Iterator[Configuration]:
        self.require_dense("Trace.__iter__")
        return iter(self._configurations)

    def __len__(self) -> int:
        """The number of configurations, ``length + 1`` (dense traces only)."""
        self.require_dense("Trace.__len__")
        return len(self._configurations)

    def __bool__(self) -> bool:
        # Every trace holds at least its initial configuration; without this
        # a sparse trace's truth value would go through ``__len__``.
        return True

    # ------------------------------------------------------------------ #
    # queries used by the spec checkers
    # ------------------------------------------------------------------ #
    def pairs(self) -> Iterator[Tuple[Configuration, Configuration, StepRecord]]:
        """Iterate over ``(γ_i, γ_{i+1}, step_i)`` transitions (dense traces only)."""
        self.require_dense("Trace.pairs")
        configurations = self._configurations
        for i, step in enumerate(self._steps):
            yield configurations[i], configurations[i + 1], step

    def executions_of(self, pid: ProcessId) -> List[Tuple[int, str]]:
        """All ``(step_index, action_label)`` executions of process ``pid``."""
        self.require_dense("Trace.executions_of")
        return [
            (step.index, step.executed[pid])
            for step in self._steps
            if pid in step.executed
        ]

    def action_counts(self) -> Dict[str, int]:
        """Histogram of action labels executed over the whole computation."""
        return dict(self._action_counts)

    def variable_series(self, pid: ProcessId, variable: str) -> List[Any]:
        """The successive values of one variable (dense traces only)."""
        self.require_dense("Trace.variable_series")
        return [cfg.get(pid, variable) for cfg in self._configurations]
