"""Per-trace metric aggregation.

``collect_metrics`` condenses one recorded trace into the numbers the
benchmark tables report: meetings convened, average and peak concurrency,
per-professor participation statistics and the action histogram (useful for
inspecting how much work the stabilization actions do after a fault).

:class:`StreamingMetricsCollector` computes the same numbers *online* from
the stream of configurations a scheduler produces, so no run needs its
configurations recorded to report them.  It is the metrics source of every
:meth:`~repro.core.runner.CommitteeCoordinator.run`, dense or sparse: an
unchecked run registers it as the scheduler's one ``step_listener``, and a
checked run registers the :class:`~repro.spec.streaming.StreamingSpecSuite`,
which builds and drives its own collector.  ``collect_metrics`` stays the
dense reference: the tests compare against it, and
:mod:`repro.metrics.throughput` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernel.configuration import Configuration
from repro.kernel.trace import StepRecord, Trace
from repro.spec.events import (
    MeetingEvent,
    MeetingEventStream,
    concurrency_profile,
    convened_meetings,
)
from repro.spec.fairness import (
    FairnessSummary,
    StreamingFairnessMonitor,
    professor_fairness_counts,
)


@dataclass(frozen=True)
class TraceMetrics:
    """Summary numbers for one computation."""

    steps: int
    rounds: int
    meetings_convened: int
    peak_concurrency: int
    mean_concurrency: float
    min_professor_participations: int
    max_professor_participations: int
    jain_fairness_index: float
    action_counts: Dict[str, int]

    def as_row(self) -> Dict[str, object]:
        return {
            "steps": self.steps,
            "rounds": self.rounds,
            "meetings": self.meetings_convened,
            "peak_conc": self.peak_concurrency,
            "mean_conc": round(self.mean_concurrency, 3),
            "min_part": self.min_professor_participations,
            "max_part": self.max_professor_participations,
            "jain": round(self.jain_fairness_index, 3),
        }


class StreamingMetricsCollector:
    """Online :class:`TraceMetrics`, dense-identical on any run.

    Usage::

        collector = StreamingMetricsCollector(hypergraph)
        scheduler = Scheduler(algorithm, ..., record_configurations=False,
                              step_listener=collector.observe_step)
        result = scheduler.run(...)
        metrics = collector.metrics(result.trace)   # == dense collect_metrics

    The collector consumes each configuration exactly once, keeps O(n + m)
    state, and produces numbers identical to running :func:`collect_metrics`
    over the equivalent densely recorded trace.
    """

    def __init__(self, hypergraph: Hypergraph) -> None:
        self._stream = MeetingEventStream(hypergraph)
        self._fairness = StreamingFairnessMonitor(hypergraph)
        self._profile_sum = 0
        self._profile_count = 0
        self._peak_concurrency = 0

    @property
    def stream(self) -> MeetingEventStream:
        """The meeting-event stream this collector drives.

        The :class:`~repro.spec.streaming.StreamingSpecSuite` that owns this
        collector hands it to its monitors, so metrics and spec checking
        share one per-step meeting sweep and never disagree on convene
        events.
        """
        return self._stream

    def observe_step(
        self, configuration: Configuration, record: Optional[StepRecord] = None
    ) -> List[MeetingEvent]:
        """Scheduler ``step_listener`` hook; returns the configuration's meeting events.

        Forwards the record's :class:`~repro.kernel.trace.StepDelta` to the
        meeting-event stream so its per-step update runs in ``O(|writers|)``
        (see :class:`~repro.spec.events.MeetingEventStream`); a missing
        record/delta falls back to the full resync.
        """
        delta = record.delta if record is not None else None
        events = self._stream.observe(configuration, delta)
        self._fairness.consume(events)
        held = self._stream.current_meetings
        self._profile_sum += held
        self._profile_count += 1
        if held > self._peak_concurrency:
            self._peak_concurrency = held
        return events

    def fairness(self) -> FairnessSummary:
        """Participation statistics seen so far (mirrors ``professor_fairness_counts``)."""
        return self._fairness.summary()

    def metrics(self, trace: Trace) -> TraceMetrics:
        """The :class:`TraceMetrics` of the observed run.

        ``trace`` supplies the step counts every trace keeps, even sparse:
        steps, rounds and the action histogram.
        """
        fairness = self.fairness()
        return TraceMetrics(
            steps=trace.length,
            rounds=trace.rounds,
            meetings_convened=self._fairness.meetings_convened,
            peak_concurrency=self._peak_concurrency,
            mean_concurrency=(
                self._profile_sum / self._profile_count if self._profile_count else 0.0
            ),
            min_professor_participations=fairness.min_professor_participations,
            max_professor_participations=fairness.max_professor_participations,
            jain_fairness_index=fairness.professor_jain_index(),
            action_counts=trace.action_counts(),
        )


def collect_metrics(trace: Trace, hypergraph: Hypergraph) -> TraceMetrics:
    """Compute :class:`TraceMetrics` for a densely-recorded trace."""
    profile = concurrency_profile(trace, hypergraph)
    convened = convened_meetings(trace, hypergraph)
    fairness = professor_fairness_counts(trace, hypergraph)
    return TraceMetrics(
        steps=trace.length,
        rounds=trace.rounds,
        meetings_convened=len(convened),
        peak_concurrency=max(profile) if profile else 0,
        mean_concurrency=(sum(profile) / len(profile)) if profile else 0.0,
        min_professor_participations=fairness.min_professor_participations,
        max_professor_participations=fairness.max_professor_participations,
        jain_fairness_index=fairness.professor_jain_index(),
        action_counts=trace.action_counts(),
    )
