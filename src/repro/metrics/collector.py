"""Per-trace metric aggregation.

``collect_metrics`` condenses one recorded trace into the numbers the
benchmark tables report: meetings convened, average and peak concurrency,
per-professor participation statistics and the action histogram (useful for
inspecting how much work the stabilization actions do after a fault).

:class:`StreamingMetricsCollector` computes the same numbers *online* from
the stream of configurations a scheduler produces, so sparse runs
(``record_configurations=False``) report full metrics without ever retaining
the dense trace.  Attach it to the scheduler via ``step_listener``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernel.configuration import Configuration
from repro.kernel.trace import StepRecord, Trace
from repro.spec.events import (
    MeetingEventStream,
    concurrency_profile,
    convened_meetings,
    participations,
)
from repro.spec.fairness import FairnessSummary, professor_fairness_counts
from repro.spec.streaming import StreamingFairnessMonitor


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
    """Online :class:`TraceMetrics` for sparse runs.

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
        self._hypergraph = hypergraph
        self._stream = MeetingEventStream(hypergraph)
        self._fairness = StreamingFairnessMonitor(hypergraph)
        self._profile_sum = 0
        self._profile_count = 0
        self._peak_concurrency = 0

    @property
    def stream(self) -> MeetingEventStream:
        """The meeting-event stream this collector drives.

        A :class:`~repro.spec.streaming.StreamingSpecSuite` built with
        ``collector=`` this collector (and registered *after* it in the
        scheduler's listener sequence) reads this stream, so metrics and
        spec checking share one per-step meeting sweep and can never
        disagree on convene events.
        """
        return self._stream

    @property
    def fairness_monitor(self) -> StreamingFairnessMonitor:
        """The shared convene counter (see :attr:`stream`)."""
        return self._fairness

    def observe_step(
        self, configuration: Configuration, record: Optional[StepRecord] = None
    ) -> None:
        """Scheduler ``step_listener`` hook.

        Forwards the record's :class:`~repro.kernel.trace.StepDelta` to the
        meeting-event stream so the per-step committee sweep runs in
        ``O(|writers|)`` (see :class:`~repro.spec.events.MeetingEventStream`);
        a missing record/delta falls back to the full sweep.
        """
        delta = record.delta if record is not None else None
        self._fairness.consume(self._stream.observe(configuration, delta))
        held = self._stream.current_meetings
        self._profile_sum += held
        self._profile_count += 1
        if held > self._peak_concurrency:
            self._peak_concurrency = held

    @property
    def _meetings_convened(self) -> int:
        return self._fairness.meetings_convened

    def fairness(self) -> FairnessSummary:
        """Participation statistics seen so far (mirrors ``professor_fairness_counts``)."""
        return self._fairness.summary()

    def metrics(self, trace: Trace) -> TraceMetrics:
        """The :class:`TraceMetrics` of the observed run.

        ``trace`` supplies the step metadata (always recorded, even sparse):
        step/round counts and the action histogram.
        """
        fairness = self.fairness()
        return TraceMetrics(
            steps=trace.length,
            rounds=trace.rounds,
            meetings_convened=self._meetings_convened,
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
