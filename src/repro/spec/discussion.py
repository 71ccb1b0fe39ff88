"""2-Phase Discussion checkers (Definition 1).

* **Essential discussion**: after a meeting convenes, every participating
  professor performs its essential discussion (operationally: it executes the
  ``Step32`` / ``Step3`` action, i.e. reaches status ``done`` while its
  committee is meeting) before the meeting can terminate.
* **Voluntary discussion**: the meeting then continues until some professor
  *voluntarily* terminates it, i.e. the committee only stops meeting because
  a member executed ``Step4`` (left with status ``done``) -- never because a
  member abandoned the meeting in another way.

Both properties exist in two equivalent renderings: the dense post-hoc
checkers (:func:`check_essential_discussion` /
:func:`check_voluntary_discussion`, which need a recorded trace) and the
streaming monitors (:class:`StreamingEssentialDiscussionMonitor` /
:class:`StreamingVoluntaryDiscussionMonitor`) that consume the scheduler's
configuration stream in O(n + m) memory and produce byte-identical
:class:`~repro.spec.properties.PropertyReport` objects — so sparse
multi-million-step campaign runs can check 2-phase discussion online.  They
speak the suite's one monitor interface
(:class:`~repro.spec.streaming.StreamingPropertyMonitor`) behind its
``check_discussion`` switch; their violations are messages without a
configuration index, so ``observe`` returns ``[]`` and never stops a run.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.states import DONE, POINTER, STATUS, WAITING
from repro.hypergraph.hypergraph import Hyperedge, Hypergraph, ProcessId
from repro.kernel.configuration import Configuration
from repro.kernel.trace import Trace
from repro.spec.events import MeetingEvent, committee_meets, meeting_events
from repro.spec.properties import PropertyReport, Violation


def _meeting_intervals(trace: Trace, hypergraph: Hypergraph) -> List[Tuple[Hyperedge, int, Optional[int]]]:
    """Pair every convene event with the matching terminate event (or ``None``)."""
    intervals: List[Tuple[Hyperedge, int, Optional[int]]] = []
    open_since: Dict[Hyperedge, int] = {}
    for event in meeting_events(trace, hypergraph):
        if event.kind == "convene":
            open_since[event.committee] = event.configuration_index
        else:
            start = open_since.pop(event.committee, None)
            if start is not None:
                intervals.append((event.committee, start, event.configuration_index))
    for committee, start in open_since.items():
        intervals.append((committee, start, None))
    return intervals


def check_essential_discussion(trace: Trace, hypergraph: Hypergraph) -> PropertyReport:
    """Every member of a convened-and-terminated meeting reached ``done`` during it."""
    violations: List[str] = []
    configurations = trace.configurations
    for committee, start, end in _meeting_intervals(trace, hypergraph):
        if end is None:
            continue  # still meeting at the end of the trace: nothing to check yet
        reached_done = {member: False for member in committee}
        for index in range(start, end):
            cfg = configurations[index]
            for member in committee:
                if cfg.get(member, STATUS) == DONE and cfg.get(member, POINTER) == committee:
                    reached_done[member] = True
        missing = [m for m, ok in reached_done.items() if not ok]
        if missing:
            violations.append(
                f"meeting of {tuple(committee.members)} (configurations {start}..{end}) "
                f"terminated before members {missing} performed their essential discussion"
            )
    return PropertyReport("EssentialDiscussion", not violations, violations)


def check_voluntary_discussion(trace: Trace, hypergraph: Hypergraph) -> PropertyReport:
    """A convened meeting only terminates because a member voluntarily left.

    Operationally: in the step that makes the committee stop meeting, at
    least one member that was pointing at the committee with status ``done``
    resets its pointer (the ``Step4`` signature).  A meeting that dissolves
    any other way (e.g. a member jumping straight to another committee)
    violates voluntary discussion.
    """
    violations: List[str] = []
    configurations = trace.configurations
    for committee, start, end in _meeting_intervals(trace, hypergraph):
        if end is None or end == 0:
            continue
        before = configurations[end - 1]
        after = configurations[end]
        voluntary = False
        for member in committee:
            was_done_here = (
                before.get(member, STATUS) == DONE
                and before.get(member, POINTER) == committee
            )
            left = after.get(member, POINTER) != committee
            if was_done_here and left:
                voluntary = True
                break
        if not voluntary:
            violations.append(
                f"meeting of {tuple(committee.members)} terminated at configuration {end} "
                "without any member voluntarily leaving from the done status"
            )
    return PropertyReport("VoluntaryDiscussion", not violations, violations)


# --------------------------------------------------------------------------- #
# streaming monitors (sparse-run counterparts of the checkers above)
# --------------------------------------------------------------------------- #
class StreamingEssentialDiscussionMonitor:
    """Online counterpart of :func:`check_essential_discussion`.

    Tracks, per *open* meeting (opened by a convene event — meetings
    inherited from an arbitrary initial configuration carry no guarantee and
    are skipped, exactly like the dense interval pairing), which members have
    reached ``done`` while pointing at the committee.  The dense checker
    scans configurations ``start..end-1``, so marks are updated from the
    convene configuration (inclusive) up to the one *before* the terminate
    event: terminations are handled first in :meth:`observe`.

    ``writers`` (the step delta's writer map, forwarded by the suite exactly
    when the shared event stream took its delta fast path) drives the
    ``O(|writers|)`` update: a member's mark can only flip when it writes its
    status or pointer.  ``None`` forces a full rescan of every open meeting —
    first observation, delta-less records, configuration-epoch changes.
    """

    name = "EssentialDiscussion"

    def __init__(self) -> None:
        self._violations: List[str] = []
        #: committee -> (convene index, member -> reached ``done`` here)
        self._open: Dict[Hyperedge, Tuple[int, Dict[ProcessId, bool]]] = {}
        self._member_open: Dict[ProcessId, Set[Hyperedge]] = {}

    @staticmethod
    def _mark(committee: Hyperedge, reached: Dict[ProcessId, bool],
              member: ProcessId, states: Mapping[ProcessId, Mapping[str, object]]) -> None:
        state = states[member]
        if state.get(STATUS) == DONE and state.get(POINTER) == committee:
            reached[member] = True

    def observe(
        self,
        index: int,
        configuration: Configuration,
        events: Sequence[MeetingEvent],
        writers: Optional[Mapping[ProcessId, Tuple[str, ...]]] = None,
    ) -> List[Violation]:
        open_meetings = self._open
        member_open = self._member_open
        # Terminations first: γ_index is outside the dense scan window.
        for event in events:
            if event.kind != "terminate":
                continue
            entry = open_meetings.pop(event.committee, None)
            if entry is None:
                continue  # meeting inherited from the initial configuration
            start, reached = entry
            for member in event.committee:
                committees = member_open.get(member)
                if committees is not None:
                    committees.discard(event.committee)
            missing = [m for m, ok in reached.items() if not ok]
            if missing:
                self._violations.append(
                    f"meeting of {tuple(event.committee.members)} "
                    f"(configurations {start}..{index}) terminated before "
                    f"members {missing} performed their essential discussion"
                )
        states = configuration.states_view()
        # New meetings: the convene configuration is part of the scan window.
        for event in events:
            if event.kind != "convene":
                continue
            committee = event.committee
            reached = {member: False for member in committee}
            open_meetings[committee] = (index, reached)
            for member in committee:
                member_open.setdefault(member, set()).add(committee)
                self._mark(committee, reached, member, states)
        # Marks for meetings that stay open through γ_index.
        if writers is None:
            for committee, (_, reached) in open_meetings.items():
                for member in committee:
                    if not reached[member]:
                        self._mark(committee, reached, member, states)
        else:
            for pid, written in writers.items():
                if STATUS not in written and POINTER not in written:
                    continue
                for committee in member_open.get(pid, ()):
                    _, reached = open_meetings[committee]
                    if not reached[pid]:
                        self._mark(committee, reached, pid, states)
        return []

    def report(self, n_configurations: int) -> PropertyReport:
        """Dense-identical report: meetings still open are not checked yet."""
        return PropertyReport(self.name, not self._violations, list(self._violations))


class StreamingVoluntaryDiscussionMonitor:
    """Online counterpart of :func:`check_voluntary_discussion`.

    Keeps one reference to the previously observed configuration (O(1) —
    configurations are immutable and copy-on-write) so the terminate-step
    signature check ``done-with-pointer in γ_{end-1} ∧ pointer moved in
    γ_end`` is evaluated exactly as the dense checker does on the recorded
    pair.  Like the dense interval pairing, only meetings opened by an
    observed convene event are checked.
    """

    name = "VoluntaryDiscussion"

    def __init__(self) -> None:
        self._violations: List[str] = []
        self._convened: Set[Hyperedge] = set()
        self._previous: Optional[Configuration] = None

    def observe(
        self,
        index: int,
        configuration: Configuration,
        events: Sequence[MeetingEvent],
        writers: Optional[Mapping[ProcessId, Tuple[str, ...]]] = None,
    ) -> List[Violation]:
        previous = self._previous
        for event in events:
            committee = event.committee
            if event.kind == "convene":
                self._convened.add(committee)
                continue
            if committee not in self._convened:
                continue  # inherited from the initial configuration
            self._convened.discard(committee)
            voluntary = False
            if previous is not None:
                for member in committee:
                    if (
                        previous.get(member, STATUS) == DONE
                        and previous.get(member, POINTER) == committee
                        and configuration.get(member, POINTER) != committee
                    ):
                        voluntary = True
                        break
            if not voluntary:
                self._violations.append(
                    f"meeting of {tuple(committee.members)} terminated at "
                    f"configuration {index} without any member voluntarily "
                    "leaving from the done status"
                )
        self._previous = configuration
        return []

    def report(self, n_configurations: int) -> PropertyReport:
        return PropertyReport(self.name, not self._violations, list(self._violations))
