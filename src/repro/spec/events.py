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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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

    **Delta fast path.**  When :meth:`observe` is also given the step's
    :class:`~repro.kernel.trace.StepDelta` (every scheduler-produced
    :class:`~repro.kernel.trace.StepRecord` carries one), only the committees
    incident to processes that wrote ``S`` or ``P`` are re-examined —
    ``O(|writers| · Δ)`` instead of the ``O(n + m)`` full sweep, with
    byte-identical events: a committee *meets* as a function of its members'
    statuses and pointers alone, so a committee none of whose members wrote
    either variable cannot have changed.  The fast path self-disables (full
    resync) whenever the delta's configuration epoch differs from the last
    applied one — i.e. after
    :meth:`~repro.kernel.scheduler.Scheduler.set_configuration` /
    :meth:`~repro.kernel.faults.FaultInjector.corrupt_scheduler` swapped the
    world between steps — and whenever no delta is supplied (dense post-hoc
    replays, hand-fed configurations).

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
        self._incident: Dict[ProcessId, Tuple[Hyperedge, ...]] = {
            p: hypergraph.incident_edges(p) for p in hypergraph.vertices
        }
        self._previous: Dict[Hyperedge, bool] = {}
        self._held_by_member: Dict[ProcessId, set] = {}
        self._conflicts: set = set()
        self._held_count = 0
        self._index = 0
        self._epoch: Optional[int] = None
        #: The writer map the most recent :meth:`observe` applied, or
        #: ``None`` when it swept every committee (first observation, no
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
        previous = self._previous
        return tuple(edge for edge in self._edges if previous.get(edge, False))

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
        self._held_count += 1
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
        self._held_count -= 1
        for q in edge:
            others = self._held_by_member.get(q)
            if others is not None:
                others.discard(edge)
        if self._conflicts:
            self._conflicts = {pair for pair in self._conflicts if edge not in pair}

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
        if use_delta:
            # Only committees with a member that wrote S or P can have
            # changed their meeting status; everything else keeps its flag.
            candidates: List[Hyperedge] = []
            seen: set = set()
            incident = self._incident
            for pid, written in delta.writes.items():
                if STATUS not in written and POINTER not in written:
                    continue
                for edge in incident.get(pid, ()):
                    if edge not in seen:
                        seen.add(edge)
                        candidates.append(edge)
            # Events must come out in hyperedge order, like the full sweep's.
            candidates.sort(key=self._edge_order.__getitem__)
            edges = candidates
        else:
            edges = self._edges
        # Inlined committee_meets over the zero-copy state view: this runs
        # per candidate committee per step on sparse multi-million-step runs,
        # so the per-variable accessor cost matters.
        states = configuration.states_view()
        previous = self._previous
        for edge in edges:
            now = True
            for q in edge:
                state = states[q]
                pointer = state.get(POINTER)
                if pointer is not edge and pointer != edge:
                    now = False
                    break
                status = state.get(STATUS)
                if status != WAITING and status != DONE:
                    now = False
                    break
            before = previous.get(edge, False)
            if now and not before:
                if not first:
                    events.append(MeetingEvent("convene", edge, self._index))
                self._flip_on(edge)
            elif before and not now:
                if not first:
                    events.append(MeetingEvent("terminate", edge, self._index))
                self._flip_off(edge)
            previous[edge] = now
        self.current_meetings = self._held_count
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
