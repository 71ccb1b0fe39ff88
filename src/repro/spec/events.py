"""Trace-level vocabulary: meetings, convening, terminating, participating.

These are the Section 4.2 definitions, applied to recorded configurations:

* a process ``p`` is **idle** iff ``S_p = idle``;
* ``p`` is **waiting** iff ``S_p ∈ {looking, waiting}``;
* a committee ``ε`` **meets** in ``γ`` iff every member ``p ∈ ε`` has
  ``P_p = ε`` and ``S_p ∈ {waiting, done}``;
* ``ε`` **convenes** in ``γ_i`` (``i > 0``) iff it meets in ``γ_i`` but not
  in ``γ_{i-1}``, and **terminates** symmetrically;
* every member of a meeting committee **participates** in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.states import DONE, IDLE, LOOKING, POINTER, STATUS, WAITING
from repro.hypergraph.hypergraph import Hyperedge, Hypergraph, ProcessId
from repro.kernel.configuration import Configuration
from repro.kernel.trace import StepDelta, Trace


def committee_meets(configuration: Configuration, edge: Hyperedge) -> bool:
    """``True`` iff committee ``edge`` meets in ``configuration``."""
    return all(
        configuration.get(q, POINTER) == edge
        and configuration.get(q, STATUS) in (WAITING, DONE)
        for q in edge
    )


def meetings_in(configuration: Configuration, hypergraph: Hypergraph) -> Tuple[Hyperedge, ...]:
    """All committees meeting in ``configuration``."""
    return tuple(e for e in hypergraph.hyperedges if committee_meets(configuration, e))


def waiting_processes(configuration: Configuration) -> Tuple[ProcessId, ...]:
    """Processes in the problem-level *waiting* state (status looking or waiting)."""
    return tuple(
        p for p in configuration if configuration.get(p, STATUS) in (LOOKING, WAITING)
    )


def idle_processes(configuration: Configuration) -> Tuple[ProcessId, ...]:
    return tuple(p for p in configuration if configuration.get(p, STATUS) == IDLE)


@dataclass(frozen=True)
class MeetingEvent:
    """A convene or terminate event extracted from a trace."""

    kind: str  # "convene" or "terminate"
    committee: Hyperedge
    configuration_index: int  # index i such that the event happens "in γ_i"


class MeetingEventStream:
    """Online convene/terminate detection over a stream of configurations.

    Feed configurations in trace order to :meth:`observe`; it returns the
    events that happen "in" the observed configuration (the same events, in
    the same order, as :func:`meeting_events` over the full trace).  The
    streaming metrics collector drives it, so no run needs its configurations
    recorded to know its meetings.

    **Member counts.**  The stream keeps, per process ``p``, its *count
    target*: ``P_p`` when ``S_p ∈ {waiting, done}`` and ``P_p`` is a
    committee of ``E_p``, otherwise none.  Per committee it keeps how many
    members have that committee as their count target.  A committee meets
    iff that count equals its size: every member points at it with status
    waiting or done, which is :func:`committee_meets` restated.

    **Delta fast path.**  When :meth:`observe` is also given the step's
    :class:`~repro.kernel.trace.StepDelta` (every scheduler-produced
    :class:`~repro.kernel.trace.StepRecord` carries one), only the
    processes that wrote ``S`` or ``P`` are looked at.  A writer whose
    count target did not change costs one comparison; a changed target
    moves at most two counts, and only a committee whose count reached or
    left its size can convene or terminate.  So a step costs
    ``O(|writers|)`` plus the committees that flip, with byte-identical
    events, still in hyperedge order.  The fast path self-disables (a full
    resync that rebuilds every target and count from the configuration)
    whenever the delta's configuration epoch differs from the last applied
    one — i.e. after
    :meth:`~repro.kernel.scheduler.Scheduler.set_configuration` /
    :meth:`~repro.kernel.faults.FaultInjector.corrupt_scheduler` swapped the
    world between steps — and whenever no delta is supplied (dense post-hoc
    replays, hand-fed configurations), as well as on the first observation.

    The stream also maintains the *conflict set* — ordered pairs of
    currently-held committees that share a member — so the streaming
    Exclusion monitor checks ``O(1)`` per step in the (normal) conflict-free
    case instead of scanning all held pairs.
    """

    def __init__(self, hypergraph: Hypergraph) -> None:
        self._edges = hypergraph.hyperedges
        self._edge_order: Dict[Hyperedge, int] = {
            edge: i for i, edge in enumerate(self._edges)
        }
        #: Maps a pointer value equal to a committee to that committee (a
        #: plain member tuple equals and hashes like its edge).
        self._canonical: Dict[Hyperedge, Hyperedge] = {edge: edge for edge in self._edges}
        self._members = tuple(p for p in hypergraph.vertices if hypergraph.incident_edges(p))
        self._targets: Dict[ProcessId, Optional[Hyperedge]] = {}
        self._counts: Dict[Hyperedge, int] = {}
        self._meeting: Set[Hyperedge] = set()
        self._held_by_member: Dict[ProcessId, set] = {}
        self._conflicts: set = set()
        self._index = 0
        self._epoch: Optional[int] = None
        #: The writer map the most recent :meth:`observe` applied, or
        #: ``None`` when it resynced every committee (first observation, no
        #: delta, or epoch change).  Observers that keep their own
        #: delta-derived state (the streaming Progress monitor's status
        #: watermarks) update from it, and resynchronize exactly when it is
        #: ``None``.
        self.last_writers: Optional[Mapping[ProcessId, Tuple[str, ...]]] = None
        #: Number of committees meeting in the most recently observed
        #: configuration (the online concurrency profile sample).
        self.current_meetings = 0

    @property
    def held(self) -> Tuple[Hyperedge, ...]:
        """The committees meeting in the most recently observed configuration.

        In hyperedge order — the streaming counterpart of
        :func:`meetings_in`.  Built on each call, in ``O(m)``: the
        per-step monitors never read it (the Progress verdict reads it once).
        """
        meeting = self._meeting
        return tuple(edge for edge in self._edges if edge in meeting)

    def conflict_pairs(self) -> List[Tuple[Hyperedge, Hyperedge]]:
        """Currently-held intersecting committee pairs, in dense checker order.

        Each pair is ordered by hyperedge position, and the list is sorted the
        way :func:`repro.spec.properties.exclusion_violations_at` enumerates
        held pairs, so violations built from it are byte-identical to the
        dense checker's.  Empty (the overwhelmingly common case) is O(1).
        """
        if not self._conflicts:
            return []
        order = self._edge_order
        return sorted(self._conflicts, key=lambda pair: (order[pair[0]], order[pair[1]]))

    # ------------------------------------------------------------------ #
    # held-set bookkeeping (flips)
    # ------------------------------------------------------------------ #
    def _flip_on(self, edge: Hyperedge) -> None:
        self._meeting.add(edge)
        order = self._edge_order
        for q in edge:
            others = self._held_by_member.setdefault(q, set())
            for other in others:
                pair = (
                    (other, edge) if order[other] < order[edge] else (edge, other)
                )
                self._conflicts.add(pair)
            others.add(edge)

    def _flip_off(self, edge: Hyperedge) -> None:
        self._meeting.discard(edge)
        for q in edge:
            others = self._held_by_member.get(q)
            if others is not None:
                others.discard(edge)
        if self._conflicts:
            self._conflicts = {pair for pair in self._conflicts if edge not in pair}

    # ------------------------------------------------------------------ #
    # count targets
    # ------------------------------------------------------------------ #
    def _target(self, pid: ProcessId, state: Mapping[str, object]) -> Optional[Hyperedge]:
        """The committee ``pid`` counts toward while its row is ``state``."""
        status = state.get(STATUS)
        if status != WAITING and status != DONE:
            return None
        try:
            edge = self._canonical.get(state.get(POINTER))
        except TypeError:  # an unhashable pointer equals no committee
            return None
        return edge if edge is not None and pid in edge else None

    def _resync(self, states: Mapping[ProcessId, Mapping[str, object]]) -> None:
        """Rebuild every count target and member count from the rows."""
        target_of = self._target
        targets: Dict[ProcessId, Optional[Hyperedge]] = {}
        counts = dict.fromkeys(self._edges, 0)
        for p in self._members:
            target = targets[p] = target_of(p, states[p])
            if target is not None:
                counts[target] += 1
        self._targets = targets
        self._counts = counts

    def _apply(
        self,
        states: Mapping[ProcessId, Mapping[str, object]],
        writes: Mapping[ProcessId, Tuple[str, ...]],
    ) -> List[Hyperedge]:
        """Move the counts of the writers whose target changed.

        Returns the committees whose count reached or left their size, the
        only ones that can have convened or terminated.
        """
        targets, counts = self._targets, self._counts
        target_of = self._target
        flipped: List[Hyperedge] = []
        for pid, written in writes.items():
            if STATUS not in written and POINTER not in written:
                continue
            target = target_of(pid, states[pid])
            previous = targets.get(pid)
            if target is previous:
                continue
            targets[pid] = target
            if previous is not None:
                if counts[previous] == len(previous):
                    flipped.append(previous)
                counts[previous] -= 1
            if target is not None:
                counts[target] += 1
                if counts[target] == len(target):
                    flipped.append(target)
        if len(flipped) > 1:
            # Events must come out in hyperedge order, like the full sweep's.
            flipped = sorted(set(flipped), key=self._edge_order.__getitem__)
        return flipped

    # ------------------------------------------------------------------ #
    # the stream
    # ------------------------------------------------------------------ #
    def observe(
        self, configuration: Configuration, delta: Optional["StepDelta"] = None
    ) -> List[MeetingEvent]:
        events: List[MeetingEvent] = []
        first = self._index == 0
        use_delta = (
            delta is not None
            and not first
            and self._epoch is not None
            and delta.epoch == self._epoch
        )
        self._epoch = delta.epoch if delta is not None else None
        self.last_writers = delta.writes if use_delta else None
        states = configuration.states_view()
        if use_delta:
            edges: Sequence[Hyperedge] = self._apply(states, delta.writes)
        else:
            self._resync(states)
            edges = self._edges
        counts, meeting = self._counts, self._meeting
        for edge in edges:
            now = counts[edge] == len(edge)
            if now == (edge in meeting):
                continue
            if now:
                if not first:
                    events.append(MeetingEvent("convene", edge, self._index))
                self._flip_on(edge)
            else:
                if not first:
                    events.append(MeetingEvent("terminate", edge, self._index))
                self._flip_off(edge)
        self.current_meetings = len(meeting)
        self._index += 1
        return events


def meeting_events(trace: Trace, hypergraph: Hypergraph) -> List[MeetingEvent]:
    """All convene/terminate events of a (densely recorded) trace."""
    trace.require_dense("meeting_events")
    stream = MeetingEventStream(hypergraph)
    events: List[MeetingEvent] = []
    for configuration in trace.configurations:
        events.extend(stream.observe(configuration))
    return events


def convened_meetings(trace: Trace, hypergraph: Hypergraph) -> List[MeetingEvent]:
    """Only the convene events."""
    return [e for e in meeting_events(trace, hypergraph) if e.kind == "convene"]


def terminated_meetings(trace: Trace, hypergraph: Hypergraph) -> List[MeetingEvent]:
    """Only the terminate events."""
    return [e for e in meeting_events(trace, hypergraph) if e.kind == "terminate"]


def participations(trace: Trace, hypergraph: Hypergraph) -> Dict[ProcessId, int]:
    """Number of distinct meetings each professor participated in.

    A professor participates in a meeting for every convene event of a
    committee it belongs to.  (Counting convene events rather than
    configurations avoids counting a long meeting many times.)
    """
    counts: Dict[ProcessId, int] = {p: 0 for p in hypergraph.vertices}
    for event in convened_meetings(trace, hypergraph):
        for member in event.committee:
            counts[member] += 1
    return counts


def concurrency_profile(trace: Trace, hypergraph: Hypergraph) -> List[int]:
    """Number of simultaneously-held meetings in every configuration."""
    trace.require_dense("concurrency_profile")
    return [len(meetings_in(cfg, hypergraph)) for cfg in trace.configurations]
