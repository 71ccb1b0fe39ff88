"""Fairness measurements (Definitions 3 and 4).

Professor Fairness ("every professor participates infinitely often") and
Committee Fairness ("every committee convenes infinitely often") are liveness
properties; on finite traces we report participation counts and let the
caller (tests, benchmarks) assert the finite rendering appropriate for the
experiment -- e.g. *every professor participated at least k times* for a
sufficiently long run of ``CC2 ∘ TC``, or *some professor was starved under
the adversarial schedule* for the Theorem 1 witness on ``CC1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph, ProcessId
from repro.kernel.trace import Trace
from repro.spec.events import MeetingEvent, convened_meetings, participations


@dataclass(frozen=True)
class FairnessSummary:
    """Participation statistics over one trace."""

    per_professor: Dict[ProcessId, int]
    per_committee: Dict[Tuple[ProcessId, ...], int]

    @property
    def min_professor_participations(self) -> int:
        return min(self.per_professor.values()) if self.per_professor else 0

    @property
    def max_professor_participations(self) -> int:
        return max(self.per_professor.values()) if self.per_professor else 0

    @property
    def starved_professors(self) -> Tuple[ProcessId, ...]:
        """Professors that never participated in any meeting."""
        return tuple(sorted(p for p, c in self.per_professor.items() if c == 0))

    @property
    def starved_committees(self) -> Tuple[Tuple[ProcessId, ...], ...]:
        """Committees that never convened."""
        return tuple(sorted(c for c, n in self.per_committee.items() if n == 0))

    def professor_jain_index(self) -> float:
        """Jain's fairness index over professor participation counts (1.0 = perfectly even)."""
        values = list(self.per_professor.values())
        if not values or all(v == 0 for v in values):
            return 0.0
        numerator = sum(values) ** 2
        denominator = len(values) * sum(v * v for v in values)
        return numerator / denominator if denominator else 0.0


class StreamingFairnessMonitor:
    """Online counterpart of :func:`professor_fairness_counts`.

    Counts convene events per professor and per committee; the
    :class:`~repro.metrics.collector.StreamingMetricsCollector` feeds it the
    events of every observed configuration.
    """

    def __init__(self, hypergraph: Hypergraph) -> None:
        self._per_professor: Dict[ProcessId, int] = {p: 0 for p in hypergraph.vertices}
        self._per_committee: Dict[Tuple[ProcessId, ...], int] = {
            e.members: 0 for e in hypergraph.hyperedges
        }
        self.meetings_convened = 0

    def consume(self, events: Sequence[MeetingEvent]) -> None:
        for event in events:
            if event.kind != "convene":
                continue
            self.meetings_convened += 1
            self._per_committee[event.committee.members] += 1
            for member in event.committee:
                self._per_professor[member] += 1

    def summary(self) -> FairnessSummary:
        return FairnessSummary(
            per_professor=dict(self._per_professor),
            per_committee=dict(self._per_committee),
        )


def professor_fairness_counts(trace: Trace, hypergraph: Hypergraph) -> FairnessSummary:
    """Participation counts per professor and per committee for one trace.

    Raises :class:`ValueError` on sparse traces; use
    :class:`StreamingFairnessMonitor` (or the
    :class:`~repro.metrics.collector.StreamingMetricsCollector`) on such runs.
    """
    trace.require_dense("professor_fairness_counts")
    per_prof = participations(trace, hypergraph)
    per_committee: Dict[Tuple[ProcessId, ...], int] = {
        e.members: 0 for e in hypergraph.hyperedges
    }
    for event in convened_meetings(trace, hypergraph):
        per_committee[event.committee.members] += 1
    return FairnessSummary(per_professor=per_prof, per_committee=per_committee)


def committee_fairness_counts(trace: Trace, hypergraph: Hypergraph) -> Dict[Tuple[ProcessId, ...], int]:
    """Convene counts per committee (Definition 4's finite rendering)."""
    return professor_fairness_counts(trace, hypergraph).per_committee
