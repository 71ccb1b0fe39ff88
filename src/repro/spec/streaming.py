"""Streaming specification monitors: safety/progress/fairness in O(n + m) memory.

The dense checkers in :mod:`repro.spec.properties` and
:mod:`repro.spec.fairness` need the full recorded configuration sequence,
which production-scale runs (``record_configurations=False``) do not retain.
The monitors here consume the *stream* of configurations a scheduler
produces — through :class:`StreamingSpecSuite`, the run's one
``step_listener``, which drives its own
:class:`~repro.metrics.collector.StreamingMetricsCollector` and hands each
configuration's meeting events to every monitor — and produce the **same**
:class:`~repro.spec.properties.PropertyReport` /
:class:`~repro.spec.fairness.FairnessSummary` objects as the dense post-hoc
checkers, in memory proportional to the hypergraph, not to the run length.
This is the runtime-verification style of checking: properties are evaluated
incrementally over observations instead of over a stored trace.

Usage::

    suite = StreamingSpecSuite(hypergraph)
    scheduler = Scheduler(algorithm, ..., record_configurations=False,
                          step_listener=suite.observe_step)
    result = scheduler.run(max_steps=5_000_000)
    verdicts = suite.verdicts()     # == the dense checkers on the same run
    metrics = suite.collector.metrics(result.trace)   # == collect_metrics
    assert verdicts.exclusion.holds and verdicts.synchronization.holds

With ``stop_on_violation=True`` the suite raises
:class:`SpecViolationError` (a :class:`~repro.kernel.scheduler.StopRun`) at
the first safety violation; ``Scheduler.run`` halts at the offending step
with ``stop_reason == "violation"`` and the suite's
:attr:`~StreamingSpecSuite.first_violation` holds a
:class:`CounterexampleWindow` — the violation plus the trailing
configurations leading up to it — for debugging without a recorded trace.

Parity contract with the dense checkers, monitor by monitor:

* **Exclusion** — dense checks every configuration from the first convene
  onward; the monitor arms itself at the first convene event and checks the
  held meetings of every configuration from that one (inclusive) onward.
* **Synchronization** — checked on each convene event, in the configuration
  the event happens in; identical in both paths.
* **Progress** — the dense check examines only the *final* tail window of
  the trace, so a mid-run stall that recovers is not a violation; the
  monitor therefore keeps per-professor "last seen not-waiting" / "last seen
  in a meeting" watermarks and renders the verdict at :meth:`finalize` time,
  when the trace length (and hence the default window) is known.  Progress
  violations consequently never trigger the early stop — only the safety
  monitors (Exclusion, Synchronization) do.
* **Fairness** — the suite's collector counts convene events.
* **2-phase discussion** (``check_discussion=True``) — the
  Essential/Voluntary checkers of :mod:`repro.spec.discussion` stream too:
  intervals are paired on convene/terminate events exactly like the dense
  ``_meeting_intervals`` pairing, so the reports match byte for byte.
  Campaign runs (:mod:`repro.campaign`) enable this so 2-phase discussion is
  checked on sparse runs.

**Cost per step.**  ``O(|writers|)``: the collector's
:class:`~repro.spec.events.MeetingEventStream` keeps per-committee counts
of the members that point at it with status waiting or done, so a process
that wrote ``S`` or ``P`` in the step's
:class:`~repro.kernel.trace.StepDelta` costs one comparison unless the
committee it counts toward changed, and only a committee whose count
reached or left its size is re-examined.  Exclusion reads the stream's
(normally empty) conflict set, and the other monitors update from the
writer map the stream applied.  The stream falls back to the full ``O(n + m)``
sweep, and the monitors resync, on the first observation, on a record
without a delta, and whenever the delta's configuration *epoch* moved
(:meth:`~repro.kernel.scheduler.Scheduler.set_configuration`,
:meth:`~repro.kernel.faults.FaultInjector.corrupt_scheduler`).  Verdicts are
byte-identical on every path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.states import LOOKING, POINTER, STATUS, WAITING
from repro.hypergraph.hypergraph import Hyperedge, Hypergraph, ProcessId
from repro.kernel.configuration import Configuration
from repro.kernel.scheduler import StopRun
from repro.kernel.trace import StepRecord
from repro.spec.discussion import (
    StreamingEssentialDiscussionMonitor,
    StreamingVoluntaryDiscussionMonitor,
)
from repro.spec.events import MeetingEvent, MeetingEventStream
from repro.spec.fairness import FairnessSummary
from repro.spec.properties import (
    PropertyReport,
    Violation,
    exclusion_violations_at,
    progress_violation,
    progress_window,
    report_from_details,
    synchronization_violations_at,
)

#: Number of trailing ``(index, configuration)`` frames a
#: :class:`CounterexampleWindow` keeps.
WINDOW_SIZE = 8


@dataclass(frozen=True)
class CounterexampleWindow:
    """A violation plus the trailing configurations that led up to it.

    ``frames`` holds ``(configuration_index, configuration)`` pairs in trace
    order, ending with the configuration the violation occurred in — the
    debuggable artefact a sparse run can still produce, because the suite
    keeps a small bounded deque of recent configurations.
    """

    violation: Violation
    frames: Tuple[Tuple[int, Configuration], ...]

    @property
    def step_index(self) -> int:
        """Index of the configuration (= scheduler step count) of the violation."""
        return self.violation.configuration_index

    @property
    def committees(self) -> Tuple[Tuple[ProcessId, ...], ...]:
        return self.violation.committees

    def describe(self) -> str:
        """Multi-line human-readable rendering (used by ``repro-cc check``)."""
        lines = [self.violation.message]
        for index, configuration in self.frames:
            states = ", ".join(
                f"{pid}:S={configuration.get(pid, STATUS)!r}"
                f",P={_pointer_label(configuration, pid)}"
                for pid in configuration
            )
            lines.append(f"  γ_{index}: {states}")
        return "\n".join(lines)


def _pointer_label(configuration: Configuration, pid: ProcessId) -> str:
    pointer = configuration.get(pid, POINTER)
    if isinstance(pointer, Hyperedge):
        return str(tuple(pointer.members))
    return repr(pointer)


class SpecViolationError(StopRun):
    """Raised by a monitor in ``stop_on_violation`` mode; halts the scheduler.

    Subclasses :class:`~repro.kernel.scheduler.StopRun`, so
    ``Scheduler.run`` catches it and returns with
    ``stop_reason == "violation"`` after committing the offending step.
    """

    def __init__(self, counterexample: CounterexampleWindow) -> None:
        super().__init__("violation", counterexample.violation.message)
        self.counterexample = counterexample


# --------------------------------------------------------------------------- #
# individual monitors
# --------------------------------------------------------------------------- #
class StreamingPropertyMonitor:
    """Base class of the suite's monitors, and their one interface.

    The suite calls :meth:`observe` once per configuration, in trace order,
    with the configuration's meeting events and the step delta's writer map
    (``None`` when the event stream full-scanned: first observation,
    delta-less record, configuration-epoch change).  ``observe`` returns the
    violations that occur *in* ``γ_index``; only the safety monitors
    (Exclusion, Synchronization) return any, and only they drive the early
    stop.  :meth:`report` renders the dense-identical
    :class:`PropertyReport` for the configurations observed so far.  The
    2-phase discussion monitors of :mod:`repro.spec.discussion` implement the
    same two methods.
    """

    name: str = "Property"

    def __init__(self) -> None:
        self._details: List[Violation] = []

    def observe(
        self,
        index: int,
        configuration: Configuration,
        events: Sequence[MeetingEvent],
        writers: Optional[Mapping[ProcessId, Tuple[str, ...]]] = None,
    ) -> List[Violation]:
        """Consume ``γ_index``; returns the violations that occur *in* it."""
        raise NotImplementedError

    def finalize(self, n_configurations: int) -> List[Violation]:
        """Violations only decidable once the stream length is known."""
        return []

    def report(self, n_configurations: int) -> PropertyReport:
        """The dense-identical :class:`PropertyReport` for the observed stream."""
        return report_from_details(
            self.name, self._details + self.finalize(n_configurations)
        )


class StreamingExclusionMonitor(StreamingPropertyMonitor):
    """Online counterpart of :func:`repro.spec.properties.check_exclusion`.

    Note that under the single-pointer trace vocabulary a violation cannot
    arise from ``committee_meets``-consistent states: a shared member of two
    conflicting committees has one ``P`` value, so distinct intersecting
    committees can never *meet* simultaneously — exactly like the dense
    checker, whose verdict this monitor replicates.  The monitor is
    defense-in-depth: it guards the meeting-detection invariant itself (a
    regression in ``committee_meets``/pointer handling, or a future
    multi-pointer algorithm, would surface here), while observed safety
    violations in practice come from the Synchronization monitor.

    It reads the stream's conflict set, which the stream maintains across
    flips, so in the (normal) conflict-free steady state a step costs one
    empty-set check instead of an all-pairs scan of the held meetings.
    Pairs come out in the dense checker's enumeration order, so accumulated
    violations stay byte-identical.
    """

    name = "Exclusion"

    def __init__(self, stream: MeetingEventStream) -> None:
        super().__init__()
        self._stream = stream
        self._armed = False

    def observe(self, index, configuration, events, writers=None):
        if not self._armed:
            if not any(e.kind == "convene" for e in events):
                return []
            # The first convene: from this configuration (inclusive) onward
            # every pair of held meetings must be conflict-free — exactly the
            # dense checker's ``start = min(convene_indices)``.
            self._armed = True
        pairs = self._stream.conflict_pairs()
        if not pairs:
            return []
        found: List[Violation] = []
        for a, b in pairs:
            found.extend(exclusion_violations_at(index, (a, b)))
        self._details.extend(found)
        return found


class StreamingSynchronizationMonitor(StreamingPropertyMonitor):
    """Online counterpart of :func:`repro.spec.properties.check_synchronization`.

    Event-driven: the check runs only on convene events, in the
    configuration the event happens in.
    """

    name = "Synchronization"

    def observe(self, index, configuration, events, writers=None):
        found: List[Violation] = []
        for event in events:
            if event.kind == "convene":
                found.extend(
                    synchronization_violations_at(index, event.committee, configuration)
                )
        self._details.extend(found)
        return found


class StreamingProgressMonitor(StreamingPropertyMonitor):
    """Online counterpart of :func:`repro.spec.properties.check_progress`.

    Keeps two watermarks per professor — the last configuration index in
    which it was *not* problem-level waiting, and the last one in which it
    participated in a held meeting.  A committee violates Progress iff both
    watermarks of every member predate the final grace window, which is
    exactly the dense tail-window condition.  Being a liveness rendering,
    the verdict is only available at :meth:`finalize`.

    The watermarks are maintained in ``O(|writers|)`` per step: a professor's
    waiting-ness can only flip when it writes its status ``S`` (tracked from
    the step delta's writer set; a full rescan happens exactly when the
    event stream full-scans, i.e. on the first observation, delta-less
    records, and configuration-epoch changes), and meeting participation is
    tracked from terminate events plus — for meetings still held when the
    verdict is rendered — the stream's current held set.  Not-waiting
    professors carry an *implicit* current watermark (their last-not-waiting
    index is "now"); :meth:`finalize` materializes it, so the reports stay
    byte-identical to the dense checker's at any observation point.
    """

    name = "Progress"

    def __init__(
        self,
        hypergraph: Hypergraph,
        stream: MeetingEventStream,
        grace_steps: Optional[int] = None,
    ) -> None:
        super().__init__()
        if grace_steps is not None and grace_steps < 1:
            # Fail at construction, not after a multi-million-step run.
            raise ValueError(f"grace_steps must be >= 1, got {grace_steps!r}")
        self._hypergraph = hypergraph
        self._grace_steps = grace_steps
        self._stream = stream
        # Is the professor currently problem-level waiting (status looking or
        # waiting)?  While False, its last-not-waiting watermark is
        # implicitly the current index; the stored value is only
        # authoritative while True.
        self._waiting: Dict[ProcessId, bool] = {p: False for p in hypergraph.vertices}
        self._last_not_waiting: Dict[ProcessId, int] = {
            p: -1 for p in hypergraph.vertices
        }
        self._last_met: Dict[ProcessId, int] = {p: -1 for p in hypergraph.vertices}

    def _update_waiting(self, pid: ProcessId, status: object, index: int) -> None:
        if status == LOOKING or status == WAITING:
            if not self._waiting[pid]:
                # Entered the waiting state in this configuration: the last
                # not-waiting index is the previous one (-1 before γ_0),
                # exactly what the dense per-configuration sweep recorded.
                self._last_not_waiting[pid] = index - 1
                self._waiting[pid] = True
        else:
            self._waiting[pid] = False

    def observe(self, index, configuration, events, writers=None):
        """Consume ``γ_index``; the verdict waits for :meth:`finalize`.

        Only the professors in ``writers`` can have flipped their status;
        ``None`` rescans every status.
        """
        states = configuration.states_view()
        if writers is None:
            for pid in self._waiting:
                self._update_waiting(pid, states[pid].get(STATUS), index)
        else:
            for pid, written in writers.items():
                if STATUS in written and pid in self._waiting:
                    self._update_waiting(pid, states[pid].get(STATUS), index)
        last_met = self._last_met
        for event in events:
            if event.kind == "terminate":
                # The meeting was held up to (and including) the previous
                # configuration; members still meeting now are covered by the
                # stream's held set at finalize time.
                for member in event.committee:
                    if last_met[member] < index - 1:
                        last_met[member] = index - 1
        return []

    def finalize(self, n_configurations: int) -> List[Violation]:
        window = progress_window(n_configurations, self._grace_steps)
        if window is None:
            return []
        start = n_configurations - window
        last_index = n_configurations - 1
        # Materialize the implicit watermarks: not-waiting professors are
        # not-waiting *now*, members of still-held meetings are meeting now.
        meeting_now = {q for edge in self._stream.held for q in edge}
        waiting = self._waiting
        last_not_waiting = self._last_not_waiting
        last_met = self._last_met
        found: List[Violation] = []
        for edge in self._hypergraph.hyperedges:
            if any(
                (last_index if not waiting[q] else last_not_waiting[q]) >= start
                for q in edge
            ):
                continue  # some member left the waiting state inside the window
            if any(
                (last_index if q in meeting_now else last_met[q]) >= start
                for q in edge
            ):
                continue  # some member participated in a meeting inside the window
            found.append(progress_violation(edge, window, last_index))
        return found


# --------------------------------------------------------------------------- #
# the suite
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SpecVerdicts:
    """The bundle a spec-checked run produces (dense-identical reports).

    ``essential`` / ``voluntary`` carry the 2-phase discussion reports when
    the suite ran with ``check_discussion=True`` (campaign runs do); they are
    ``None`` otherwise and then do not participate in :attr:`all_hold`.
    """

    exclusion: PropertyReport
    synchronization: PropertyReport
    progress: PropertyReport
    fairness: FairnessSummary
    first_violation: Optional[CounterexampleWindow] = None
    essential: Optional[PropertyReport] = None
    voluntary: Optional[PropertyReport] = None

    @property
    def all_hold(self) -> bool:
        return all(report.holds for report in self.reports)

    @property
    def reports(self) -> Tuple[PropertyReport, ...]:
        """The checked reports, in table order (discussion only when enabled)."""
        base = (self.exclusion, self.synchronization, self.progress)
        extra = tuple(r for r in (self.essential, self.voluntary) if r is not None)
        return base + extra

    def as_rows(self) -> List[Dict[str, object]]:
        """One row per property (used by the ``repro-cc check`` table)."""
        rows: List[Dict[str, object]] = []
        for report in self.reports:
            rows.append(
                {
                    "property": report.name,
                    "holds": report.holds,
                    "violations": len(report.violations),
                    "first": (
                        report.details[0].configuration_index if report.details else "-"
                    ),
                }
            )
        return rows


class StreamingSpecSuite:
    """The one observer of a checked run: metrics, fairness and every monitor.

    Parameters
    ----------
    hypergraph:
        Professors and committees (the spec is algorithm-agnostic).
    grace_steps:
        Progress tail window; defaults to half the trace length, like the
        dense checker.
    stop_on_violation:
        Raise :class:`SpecViolationError` at the first Exclusion or
        Synchronization violation, halting the scheduler at the offending
        step (Progress is a finalize-time verdict and never early-stops).
    check_discussion:
        Also run the 2-phase discussion monitors (Definition 1).

    The suite builds its own
    :class:`~repro.metrics.collector.StreamingMetricsCollector`
    (:attr:`collector`) and drives it first on every step: the collector's
    meeting-event stream yields the configuration's events, and the suite
    hands them to each monitor in turn.  Attach :meth:`observe_step` as the
    scheduler's ``step_listener``, then read the run's metrics from
    ``suite.collector`` and its verdicts from :meth:`verdicts`.  The suite
    keeps O(n + m + WINDOW_SIZE) state.

    Mid-run fault injection caveat: like the dense post-hoc checkers on a
    trace that contains mid-run corruption, the monitors attribute every
    meeting transition to the observed stream — a meeting *fabricated* by
    :meth:`~repro.kernel.faults.FaultInjector.corrupt_scheduler` is reported
    as a convene (and, typically, as a Synchronization/Exclusion violation)
    on both paths identically.  The paper's guarantee is scoped to meetings
    convened *after the last fault*; to check snap-stabilization, attach a
    fresh suite after the last injected fault (cf.
    :func:`repro.spec.stabilization.snap_stabilization_sweep`, which starts
    each checked computation from the arbitrary configuration).
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        *,
        grace_steps: Optional[int] = None,
        stop_on_violation: bool = False,
        check_discussion: bool = False,
    ) -> None:
        # Imported here: repro.metrics.collector imports repro.spec, so a
        # module-top import would cycle through the package __init__s.
        from repro.metrics.collector import StreamingMetricsCollector

        self.hypergraph = hypergraph
        self.stop_on_violation = stop_on_violation
        self.collector = StreamingMetricsCollector(hypergraph)
        self._stream = self.collector.stream
        self.exclusion = StreamingExclusionMonitor(self._stream)
        self.synchronization = StreamingSynchronizationMonitor()
        self.progress = StreamingProgressMonitor(hypergraph, self._stream, grace_steps)
        self.essential = StreamingEssentialDiscussionMonitor() if check_discussion else None
        self.voluntary = StreamingVoluntaryDiscussionMonitor() if check_discussion else None
        monitors = (
            self.exclusion, self.synchronization, self.progress, self.essential, self.voluntary
        )
        self._monitors = tuple(monitor for monitor in monitors if monitor is not None)
        self._frames: Deque[Tuple[int, Configuration]] = deque(maxlen=WINDOW_SIZE)
        self._index = 0
        self.first_violation: Optional[CounterexampleWindow] = None

    def observe_step(
        self, configuration: Configuration, record: Optional[StepRecord] = None
    ) -> None:
        """Scheduler ``step_listener`` hook.

        ``record``'s :class:`~repro.kernel.trace.StepDelta` (when present)
        drives the ``O(|writers|)`` fast path; a missing record/delta or a
        configuration-epoch change falls back to the full ``O(n + m)`` sweep
        with identical verdicts.
        """
        events = self.collector.observe_step(configuration, record)
        # The stream decided full-vs-delta (it owns the epoch bookkeeping);
        # monitors that keep delta-derived state resync exactly when it
        # full-scanned.
        writers = self._stream.last_writers
        index = self._index
        self._index += 1
        self._frames.append((index, configuration))
        # Every monitor observes the committed step *before* the suite
        # raises, so post-halt verdicts stay dense-identical on the recorded
        # prefix even when several properties break at once.
        first_found: Optional[Violation] = None
        for monitor in self._monitors:
            found = monitor.observe(index, configuration, events, writers)
            if found and first_found is None:
                first_found = found[0]
        if first_found is not None and self.first_violation is None:
            self.first_violation = CounterexampleWindow(
                violation=first_found, frames=tuple(self._frames)
            )
            if self.stop_on_violation:
                raise SpecViolationError(self.first_violation)

    def verdicts(self) -> SpecVerdicts:
        """Dense-identical reports for the stream observed so far.

        Callable at any point (also after an early stop); Progress is
        rendered against the configurations observed so far, exactly as the
        dense checker would render it for the recorded prefix.
        """
        n = self._index
        return SpecVerdicts(
            exclusion=self.exclusion.report(n),
            synchronization=self.synchronization.report(n),
            progress=self.progress.report(n),
            fairness=self.collector.fairness(),
            first_violation=self.first_violation,
            essential=self.essential.report(n) if self.essential is not None else None,
            voluntary=self.voluntary.report(n) if self.voluntary is not None else None,
        )
