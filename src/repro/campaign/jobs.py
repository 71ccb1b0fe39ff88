"""Run jobs: the picklable unit of campaign work and its worker entry point.

A :class:`RunJob` is a frozen dataclass of primitives — everything a worker
process needs to reproduce one seeded run, whether it was expanded from a
named scenario or from a :class:`~repro.workloads.random_scenarios.RandomScenarioSpec`.
:func:`execute_job` is the ``multiprocessing`` entry point: module-top-level
(so a spawn context can resolve it by dotted name) and side-effect free on
import.  It wires the streaming metrics collector and the full streaming
spec suite (2-phase discussion included) onto a sparse scheduler run,
injects the job's fault schedule mid-run, and returns a :class:`JobResult`
whose ``row`` contains only deterministic fields — wall-clock time travels
separately so aggregate JSONL output stays byte-identical across worker
counts.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.runner import CommitteeCoordinator
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernel.algorithm import Environment
from repro.kernel.daemon import Daemon, daemon_from_name
from repro.kernel.faults import FaultInjector, arbitrary_configuration
from repro.kernel.scheduler import Scheduler, StopRun
from repro.metrics.collector import StreamingMetricsCollector
from repro.spec.streaming import SpecVerdicts, StreamingSpecSuite
from repro.workloads.random_scenarios import random_scenario
from repro.workloads.request_models import environment_from_spec
from repro.workloads.scenarios import scenario_by_name


@dataclass(frozen=True)
class RunJob:
    """One seeded run of the campaign matrix (primitives only — picklable).

    ``random_seed`` selects the scenario source: ``None`` means ``scenario``
    names an entry of :mod:`repro.workloads.scenarios`; otherwise the
    topology, token, daemon, environment and fault schedule were drawn by
    :func:`~repro.workloads.random_scenarios.random_scenario` and the fields
    below carry the drawn values verbatim (so the job alone reproduces the
    run, without re-deriving the spec).
    """

    index: int
    scenario: str
    random_seed: Optional[int]
    algorithm: str
    token: str
    engine: str
    daemon: str
    environment: str  # "always" | "probabilistic:<p>" | "bursty:<active>:<quiet>"
    discussion_steps: int
    seed: int
    max_steps: int
    arbitrary_start: bool
    fault_every: int
    fault_fraction: float
    grace_steps: Optional[int] = None

    def build_hypergraph(self) -> Hypergraph:
        return _scenario_hypergraph(self.scenario, self.random_seed)

    def build_environment(self) -> Environment:
        # Seeded by the *job* seed: two engines replay the same request
        # stream, two seeds explore different ones.
        return environment_from_spec(
            self.environment, self.discussion_steps, seed=self.seed
        )

    def build_daemon(self) -> Daemon:
        return daemon_from_name(self.daemon, seed=self.seed)


@functools.lru_cache(maxsize=4)
def _scenario_hypergraph(scenario: str, random_seed: Optional[int]) -> Hypergraph:
    """The hypergraph of one scenario identity, built once per process.

    A hypergraph is immutable, so the jobs of one scenario (one per
    algorithm, engine and seed) can share it.  ``expand_jobs`` keeps them
    adjacent, so a few entries suffice, and no more are kept alive.
    """
    if random_seed is not None:
        return random_scenario(random_seed).build_hypergraph()
    return scenario_by_name(scenario).hypergraph


@dataclass(frozen=True)
class JobResult:
    """What one worker sends back: the deterministic row plus timing."""

    index: int
    row: Dict[str, object]
    steps: int
    elapsed_seconds: float
    ok: bool

    @property
    def steps_per_sec(self) -> float:
        # 0.0, not inf, when no wall time was recorded (zero-elapsed clock
        # resolution, synthesized resume rows): ``json.dumps(float("inf"))``
        # emits ``Infinity``, which is not RFC 8259 JSON.
        return self.steps / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def status(self) -> str:
        """``"ok"``, ``"violation"`` or ``"error"`` (worker exception)."""
        return str(self.row.get("status") or ("ok" if self.ok else "violation"))

    def output_row(self, include_timing: bool = False) -> Dict[str, object]:
        """The row as it is serialized: optionally timing-augmented.

        Used by both the streaming sinks (completion order) and the final
        JSONL rewrite (job order), so the two byte-match per row.  A row
        resumed from a ``--timing`` file already carries its originally
        measured ``steps_per_sec`` (see
        :func:`repro.campaign.resume.as_job_result`): with timing on it is
        kept verbatim — re-deriving it from the reconstructed elapsed time
        could drift in the last decimal — and with timing off it is
        stripped, so an untimed rewrite of a timed file is byte-identical
        to an untimed campaign.
        """
        row = dict(self.row)
        if include_timing:
            row.setdefault("steps_per_sec", round(self.steps_per_sec, 1))
        else:
            row.pop("steps_per_sec", None)
        return row


#: row key -> :class:`RunJob` attribute, for the identity block present in
#: *every* row — error rows included.  This is the single source of truth
#: shared by the row emitters below and by
#: :func:`repro.campaign.resume.validate_rows_match_jobs`: every RunJob
#: field appears here, so a persisted row pins down the *entire* run shape
#: (fault fraction, step budget, grace window, ...) and ``--resume``
#: against a matrix that differs in any of them is rejected instead of
#: silently mixing two campaigns.
ROW_IDENTITY_ATTRS = {
    "job": "index",
    "scenario": "scenario",
    "random_seed": "random_seed",
    "algorithm": "algorithm",
    "token": "token",
    "engine": "engine",
    "daemon": "daemon",
    "environment": "environment",
    "discussion_steps": "discussion_steps",
    "seed": "seed",
    "max_steps": "max_steps",
    "arbitrary": "arbitrary_start",
    "fault_every": "fault_every",
    "fault_fraction": "fault_fraction",
    "grace_steps": "grace_steps",
}

#: Identity fields present in *every* row, so any row maps back to its
#: matrix cell and job index (the resume contract).
ROW_IDENTITY_FIELDS = tuple(ROW_IDENTITY_ATTRS)

#: Metric fields a completed (non-error) run reports.
ROW_RESULT_FIELDS = (
    "steps",
    "rounds",
    "stop_reason",
    "meetings",
    "peak_conc",
    "mean_conc",
    "min_part",
    "max_part",
    "jain",
    "starved_professors",
    "starved_committees",
)

#: Verdict fields a completed (non-error) run reports.
ROW_VERDICT_FIELDS = (
    "exclusion",
    "synchronization",
    "progress",
    "essential_discussion",
    "voluntary_discussion",
    "violations",
    "first_violation",
    "status",
    "ok",
)

#: The exact key set of a completed run's row
#: (``tests/test_campaign_persistence.py::TestErrorRows`` asserts that
#: :func:`execute_job` emits precisely these, and error rows the next set).
ROW_FIELDS = ROW_IDENTITY_FIELDS + ROW_RESULT_FIELDS + ROW_VERDICT_FIELDS

#: The exact key set of an error row (worker exception captured per-job).
ERROR_ROW_FIELDS = ROW_IDENTITY_FIELDS + ("status", "error", "ok")


_REPORT_KEYS = {
    "EssentialDiscussion": "essential_discussion",
    "VoluntaryDiscussion": "voluntary_discussion",
}


def _identity_fields(job: RunJob) -> Dict[str, object]:
    return {key: getattr(job, attr) for key, attr in ROW_IDENTITY_ATTRS.items()}


def error_result(job: RunJob, exc: BaseException, elapsed_seconds: float = 0.0) -> JobResult:
    """An error-carrying :class:`JobResult` for a job whose run raised.

    The row keeps the full identity block (so resume/aggregation still map
    it to its cell) plus ``status="error"`` and a deterministic
    ``"ExcType: message"`` string — no traceback, no timestamps, so error
    rows stay byte-identical across worker counts and re-runs.
    """
    row: Dict[str, object] = _identity_fields(job)
    row["status"] = "error"
    row["error"] = f"{type(exc).__name__}: {exc}"
    row["ok"] = False
    return JobResult(
        index=job.index, row=row, steps=0, elapsed_seconds=elapsed_seconds, ok=False
    )


def _verdict_fields(verdicts: SpecVerdicts) -> Dict[str, object]:
    fields: Dict[str, object] = {}
    total = 0
    first: Optional[int] = None
    for report in verdicts.reports:
        key = _REPORT_KEYS.get(report.name, report.name.lower())
        fields[key] = report.holds
        total += len(report.violations)
        for violation in report.details:
            if first is None or violation.configuration_index < first:
                first = violation.configuration_index
    fields["violations"] = total
    # Safety violations carry the counterexample window's exact step; other
    # structured violations (Progress) fall back to their earliest detail
    # index.  Discussion violations are interval-shaped strings without an
    # index — they count toward ``violations`` but cannot set this field.
    fields["first_violation"] = (
        verdicts.first_violation.step_index
        if verdicts.first_violation is not None
        else first
    )
    return fields


def completed_row(
    job: RunJob,
    steps: int,
    stop_reason: str,
    metrics,
    verdicts: SpecVerdicts,
) -> Dict[str, object]:
    """Assemble the deterministic row of a completed (non-error) run.

    Single source of truth for :data:`ROW_FIELDS` content, shared by the
    solo path below and by :mod:`repro.campaign.batched` — so a batched
    lane's row byte-matches the solo row *by construction*, not by parallel
    bookkeeping.
    """
    fairness = verdicts.fairness
    row: Dict[str, object] = _identity_fields(job)
    row.update({
        "steps": steps,
        "rounds": metrics.rounds,
        "stop_reason": stop_reason,
        "meetings": metrics.meetings_convened,
        "peak_conc": metrics.peak_concurrency,
        "mean_conc": round(metrics.mean_concurrency, 6),
        "min_part": metrics.min_professor_participations,
        "max_part": metrics.max_professor_participations,
        "jain": round(fairness.professor_jain_index(), 6),
        "starved_professors": len(fairness.starved_professors),
        "starved_committees": len(fairness.starved_committees),
    })
    row.update(_verdict_fields(verdicts))
    row["status"] = "ok" if verdicts.all_hold else "violation"
    row["ok"] = verdicts.all_hold
    return row


def execute_job(job: RunJob) -> JobResult:
    """Run one job sparsely with all streaming observers attached.

    This is the campaign's ``multiprocessing`` entry point; it must stay a
    module-top-level function (RL303 and ``tests/test_campaign.py`` pin
    spawn-context picklability).  The returned row is a pure function of
    the job — no timestamps, no machine-dependent values.

    A ``batched``-engine job routes through
    :func:`repro.campaign.batched.execute_job_group` (a one-lane batch here;
    the serial runner groups same-scenario seeds into wider batches before
    reaching this point).  If the scenario is outside the batched engine's
    coverage — or numpy is missing — that module falls back to a solo
    ``incremental`` run, which produces the identical row.

    **Never raises**: any exception from the run becomes an error row
    (``status="error"``) via :func:`error_result`, because an exception
    escaping a worker aborts the whole ``imap_unordered`` drain and loses
    every completed result with it.  The runner surfaces error rows in the
    summary and the CLI exits 3 when any are present.
    """
    start = time.perf_counter()  # repro-lint: disable=RL102 -- elapsed_seconds is --timing-only, stripped from rows
    try:
        if job.engine == "batched":
            from repro.campaign.batched import execute_job_group

            return execute_job_group([job])[0]
        return _run_job(job)
    except Exception as exc:
        return error_result(job, exc, elapsed_seconds=time.perf_counter() - start)  # repro-lint: disable=RL102 -- --timing-only


def _run_job(job: RunJob, runtime_engine: Optional[str] = None) -> JobResult:
    """One solo run.  ``runtime_engine`` overrides the engine actually
    executed (the batched fallback runs ``incremental``) while the row's
    identity block keeps ``job.engine`` — the row describes the matrix cell,
    not the implementation detail that computed it.
    """
    engine = runtime_engine or job.engine
    hypergraph = job.build_hypergraph()
    coordinator = CommitteeCoordinator(
        hypergraph,
        algorithm=job.algorithm,
        token=job.token,
        seed=job.seed,
        engine=engine,
    )
    algorithm = coordinator.algorithm
    collector = StreamingMetricsCollector(hypergraph)
    suite = StreamingSpecSuite(
        hypergraph,
        grace_steps=job.grace_steps,
        stream=collector.stream,
        fairness=collector.fairness_monitor,
        check_discussion=True,
    )
    scheduler = Scheduler(
        algorithm,
        environment=job.build_environment(),
        daemon=job.build_daemon(),
        initial_configuration=(
            arbitrary_configuration(algorithm, seed=job.seed)
            if job.arbitrary_start
            else None
        ),
        record_configurations=False,
        engine=engine,
        step_listener=[collector.observe_step, suite.observe_step],
    )
    injector = (
        FaultInjector(algorithm, fraction=job.fault_fraction, seed=job.seed + 1)
        if job.fault_every
        else None
    )
    start = time.perf_counter()  # repro-lint: disable=RL102 -- elapsed_seconds is --timing-only, stripped from rows
    stop_reason = "max_steps"
    while scheduler.step_index < job.max_steps:
        if (
            injector is not None
            and scheduler.step_index
            and scheduler.step_index % job.fault_every == 0
        ):
            injector.corrupt_scheduler(scheduler)
        try:
            if scheduler.step() is None:
                stop_reason = "terminal"
                break
        except StopRun as stop:  # pragma: no cover - suite never early-stops here
            stop_reason = stop.reason
            break
    elapsed = time.perf_counter() - start  # repro-lint: disable=RL102 -- --timing-only

    metrics = collector.metrics(scheduler.trace)
    verdicts = suite.verdicts()
    row = completed_row(job, scheduler.step_index, stop_reason, metrics, verdicts)
    return JobResult(
        index=job.index,
        row=row,
        steps=scheduler.step_index,
        elapsed_seconds=elapsed,
        ok=verdicts.all_hold,
    )
