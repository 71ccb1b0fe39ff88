"""Specification checkers for the committee coordination problem.

Every checker operates on recorded traces (or single configurations) and is
algorithm-agnostic: it only relies on the shared variable names ``S`` and
``P`` and on the hypergraph, so the same checkers validate ``CC1``, ``CC2``,
``CC3`` and arbitrary-initial-configuration (snap-stabilization) runs.
"""

from repro.spec.events import (
    MeetingEvent,
    committee_meets,
    convened_meetings,
    meetings_in,
    meeting_events,
    participations,
    terminated_meetings,
    waiting_processes,
)
from repro.spec.properties import (
    PropertyReport,
    Violation,
    check_exclusion,
    check_progress,
    check_synchronization,
)
from repro.spec.streaming import (
    CounterexampleWindow,
    SpecVerdicts,
    SpecViolationError,
    StreamingExclusionMonitor,
    StreamingProgressMonitor,
    StreamingSpecSuite,
    StreamingSynchronizationMonitor,
)
from repro.spec.discussion import (
    StreamingEssentialDiscussionMonitor,
    StreamingVoluntaryDiscussionMonitor,
    check_essential_discussion,
    check_voluntary_discussion,
)
from repro.spec.fairness import (
    StreamingFairnessMonitor,
    committee_fairness_counts,
    professor_fairness_counts,
)
from repro.spec.concurrency import check_maximal_concurrency, measure_fair_concurrency
from repro.spec.stabilization import snap_stabilization_sweep

__all__ = [
    "MeetingEvent",
    "committee_meets",
    "convened_meetings",
    "meetings_in",
    "meeting_events",
    "participations",
    "terminated_meetings",
    "waiting_processes",
    "PropertyReport",
    "Violation",
    "check_exclusion",
    "check_progress",
    "check_synchronization",
    "CounterexampleWindow",
    "SpecVerdicts",
    "SpecViolationError",
    "StreamingExclusionMonitor",
    "StreamingFairnessMonitor",
    "StreamingProgressMonitor",
    "StreamingSpecSuite",
    "StreamingSynchronizationMonitor",
    "StreamingEssentialDiscussionMonitor",
    "StreamingVoluntaryDiscussionMonitor",
    "check_essential_discussion",
    "check_voluntary_discussion",
    "committee_fairness_counts",
    "professor_fairness_counts",
    "check_maximal_concurrency",
    "measure_fair_concurrency",
    "snap_stabilization_sweep",
]
