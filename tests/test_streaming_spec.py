"""Tests for the streaming specification subsystem (`repro.spec.streaming`).

Covers

* dense checkers raising a clear ``ValueError`` on sparse traces instead of
  silently reporting vacuous passes;
* dense-vs-streaming report parity on clean and arbitrary-start runs;
* counterexample windows: violation step index, involved committees and
  window contents match the dense checker's first violation on
  cc1/cc2/cc3 × ring/tree/oracle under seeded mid-run fault injection;
* ``stop_on_violation`` halting the scheduler at the exact first-violation
  step via the ``StopRun`` listener protocol;
* ``FaultInjector.corrupt_scheduler`` invalidating the incremental engine's
  cached enabled map (the dirty-set protocol observes mid-run corruption);
* sparse-vs-dense fairness parity (``FairnessSummary``, Jain index, starved
  sets), with a ``slow``-marked >=100k-step long-haul variant;
* the ``CommitteeCoordinator.run(check=...)`` and ``repro-cc check`` wiring.
"""

from __future__ import annotations

from typing import Optional, Tuple

import pytest

from repro.cli import main as cli_main
from repro.core.runner import CommitteeCoordinator
from repro.hypergraph.generators import figure1_hypergraph
from repro.kernel.daemon import SynchronousDaemon, default_daemon
from repro.kernel.faults import FaultInjector, arbitrary_configuration
from repro.kernel.scheduler import Scheduler, StopRun
from repro.metrics.collector import StreamingMetricsCollector, collect_metrics
from repro.spec.events import concurrency_profile, meeting_events
from repro.spec.fairness import professor_fairness_counts
from repro.spec.properties import (
    check_exclusion,
    check_progress,
    check_synchronization,
)
from repro.spec.streaming import (
    SpecViolationError,
    StreamingSpecSuite,
)
from repro.workloads.request_models import AlwaysRequestingEnvironment

ALGORITHMS = ("cc1", "cc2", "cc3")
TOKENS = ("ring", "tree", "oracle")


def _build(algorithm: str, token: str, seed: int, engine: str, record: bool,
           suite: Optional[StreamingSpecSuite] = None,
           arbitrary: bool = False):
    hypergraph = figure1_hypergraph()
    coordinator = CommitteeCoordinator(
        hypergraph, algorithm=algorithm, token=token, seed=seed, engine=engine
    )
    scheduler = Scheduler(
        coordinator.algorithm,
        environment=AlwaysRequestingEnvironment(discussion_steps=1),
        daemon=default_daemon(seed=seed),
        initial_configuration=(
            arbitrary_configuration(coordinator.algorithm, seed=seed) if arbitrary else None
        ),
        record_configurations=record,
        engine=engine,
        step_listener=suite.observe_step if suite is not None else None,
    )
    return hypergraph, coordinator.algorithm, scheduler


def _run_with_bursts(scheduler, algorithm, seed: int, max_steps: int,
                     burst_every: int, fraction: float = 0.8) -> Optional[int]:
    """Step the scheduler, corrupting it every ``burst_every`` steps.

    Returns the step index the run stopped at when a listener raised
    ``StopRun``, else ``None``.
    """
    injector = FaultInjector(algorithm, fraction=fraction, seed=seed + 99)
    while scheduler.step_index < max_steps:
        if burst_every and scheduler.step_index and scheduler.step_index % burst_every == 0:
            injector.corrupt_scheduler(scheduler)
        try:
            if scheduler.step() is None:
                break
        except StopRun:
            return scheduler.step_index
    return None


# --------------------------------------------------------------------------- #
# satellite: dense checkers reject sparse traces
# --------------------------------------------------------------------------- #
class TestSparseTraceGuards:
    @pytest.fixture
    def sparse_trace(self):
        _, _, scheduler = _build("cc2", "oracle", seed=1, engine="dense", record=False)
        result = scheduler.run(max_steps=30)
        assert result.trace.is_sparse
        return result.trace

    @pytest.mark.parametrize(
        "checker",
        [
            check_exclusion,
            check_synchronization,
            check_progress,
            professor_fairness_counts,
            meeting_events,
            concurrency_profile,
            collect_metrics,
        ],
    )
    def test_dense_consumers_raise_on_sparse_traces(self, sparse_trace, checker):
        with pytest.raises(ValueError, match="record_configurations"):
            checker(sparse_trace, figure1_hypergraph())

    def test_dense_trace_still_accepted(self):
        hypergraph, _, scheduler = _build("cc2", "oracle", seed=1, engine="dense", record=True)
        trace = scheduler.run(max_steps=30).trace
        assert check_exclusion(trace, hypergraph).holds
        assert check_progress(trace, hypergraph).holds


# --------------------------------------------------------------------------- #
# dense-vs-streaming report parity
# --------------------------------------------------------------------------- #
class TestStreamingParity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("arbitrary", [False, True])
    def test_reports_match_dense_checkers(self, algorithm, arbitrary):
        hypergraph, _, dense_sched = _build(
            algorithm, "ring", seed=7, engine="dense", record=True, arbitrary=arbitrary
        )
        trace = dense_sched.run(max_steps=250).trace

        suite = StreamingSpecSuite(hypergraph)
        _, _, sparse_sched = _build(
            algorithm, "ring", seed=7, engine="incremental", record=False,
            suite=suite, arbitrary=arbitrary,
        )
        sparse_sched.run(max_steps=250)

        verdicts = suite.verdicts()
        assert verdicts.exclusion == check_exclusion(trace, hypergraph)
        assert verdicts.synchronization == check_synchronization(trace, hypergraph)
        assert verdicts.progress == check_progress(trace, hypergraph)
        assert verdicts.fairness == professor_fairness_counts(trace, hypergraph)

    def test_explicit_grace_steps_match(self):
        hypergraph, _, dense_sched = _build("cc2", "tree", seed=3, engine="dense", record=True)
        trace = dense_sched.run(max_steps=180).trace
        suite = StreamingSpecSuite(hypergraph, grace_steps=25)
        _, _, sparse_sched = _build(
            "cc2", "tree", seed=3, engine="incremental", record=False, suite=suite
        )
        sparse_sched.run(max_steps=180)
        assert suite.verdicts().progress == check_progress(trace, hypergraph, grace_steps=25)

    @pytest.mark.parametrize("grace", [0, -3])
    def test_non_positive_grace_rejected_everywhere(self, grace):
        # A zero window would make the dense tail slice ([-0:] = whole
        # trace) and the streaming monitor's empty window silently disagree,
        # so every entry point refuses it up front.
        hypergraph, _, scheduler = _build("cc2", "oracle", seed=1, engine="dense", record=True)
        trace = scheduler.run(max_steps=30).trace
        with pytest.raises(ValueError, match="grace_steps"):
            check_progress(trace, hypergraph, grace_steps=grace)
        with pytest.raises(ValueError, match="grace_steps"):
            StreamingSpecSuite(hypergraph, grace_steps=grace)
        with pytest.raises(SystemExit):
            cli_main(["check", "--scenario", "figure1", "--grace", str(grace)])

    def test_short_run_progress_vacuous_both_ways(self):
        hypergraph, _, dense_sched = _build("cc1", "oracle", seed=2, engine="dense", record=True)
        trace = dense_sched.run(max_steps=2).trace
        suite = StreamingSpecSuite(hypergraph)
        _, _, sparse_sched = _build(
            "cc1", "oracle", seed=2, engine="incremental", record=False, suite=suite
        )
        sparse_sched.run(max_steps=2)
        dense_report = check_progress(trace, hypergraph)
        assert dense_report.holds and suite.verdicts().progress == dense_report


# --------------------------------------------------------------------------- #
# satellite: counterexample windows across cc1/cc2/cc3 × ring/tree/oracle
# --------------------------------------------------------------------------- #
class TestCounterexampleWindows:
    MAX_STEPS = 400
    BURST_EVERY = 7

    def _first_dense_violation(self, algorithm: str, token: str):
        """Scan seeds until fault injection produces a safety violation."""
        for seed in range(8):
            hypergraph, algo, scheduler = _build(
                algorithm, token, seed=seed, engine="dense", record=True
            )
            _run_with_bursts(scheduler, algo, seed, self.MAX_STEPS, self.BURST_EVERY)
            trace = scheduler.trace
            details = sorted(
                check_exclusion(trace, hypergraph).details
                + check_synchronization(trace, hypergraph).details,
                key=lambda v: v.configuration_index,
            )
            if details:
                return seed, trace, details[0]
        pytest.fail(f"no safety violation provoked for {algorithm}/{token} in 8 seeds")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("token", TOKENS)
    def test_window_matches_dense_first_violation(self, algorithm, token):
        seed, dense_trace, dense_first = self._first_dense_violation(algorithm, token)

        hypergraph = figure1_hypergraph()
        suite = StreamingSpecSuite(hypergraph, stop_on_violation=True)
        _, algo, scheduler = _build(
            algorithm, token, seed=seed, engine="incremental", record=False, suite=suite
        )
        stopped_at = _run_with_bursts(scheduler, algo, seed, self.MAX_STEPS, self.BURST_EVERY)

        window = suite.first_violation
        assert window is not None
        # The run halted at the exact step of the dense checker's first violation.
        assert stopped_at == dense_first.configuration_index
        assert window.step_index == dense_first.configuration_index
        assert window.violation == dense_first
        assert window.committees == dense_first.committees
        # The window frames are the dense trace's configurations at those indices.
        assert window.frames
        for index, configuration in window.frames:
            assert dense_trace.configurations[index] == configuration
        # The frames end at the violating configuration and are contiguous.
        indices = [index for index, _ in window.frames]
        assert indices[-1] == window.step_index
        assert indices == list(range(indices[0], indices[-1] + 1))
        # The textual rendering names the step and the involved committees.
        description = window.describe()
        assert str(window.step_index) in description

    def test_no_stop_without_flag(self):
        # Same scenario, stop_on_violation=False: the run continues to the
        # bound and every violation is accumulated in the reports.
        seed, _, dense_first = self._first_dense_violation("cc2", "oracle")
        hypergraph = figure1_hypergraph()
        suite = StreamingSpecSuite(hypergraph, stop_on_violation=False)
        _, algo, scheduler = _build(
            "cc2", "oracle", seed=seed, engine="incremental", record=False, suite=suite
        )
        stopped_at = _run_with_bursts(scheduler, algo, seed, self.MAX_STEPS, self.BURST_EVERY)
        assert stopped_at is None
        assert suite.first_violation is not None
        assert suite.first_violation.violation == dense_first

    def test_violation_error_is_stop_run(self):
        # The early-stop exception rides the kernel's listener protocol.
        assert issubclass(SpecViolationError, StopRun)

    def test_exclusion_monitor_fires_on_synthetic_conflicts(self):
        # Under the single-pointer vocabulary two conflicting committees can
        # never *meet* simultaneously, so the Exclusion monitor is
        # defense-in-depth for the meeting-detection invariant; exercise its
        # violation path directly with a stub stream holding a conflict.
        from repro.spec.events import MeetingEvent
        from repro.spec.properties import exclusion_violations_at
        from repro.spec.streaming import StreamingExclusionMonitor

        hypergraph = figure1_hypergraph()
        a, b = hypergraph.hyperedges[0], hypergraph.hyperedges[1]
        assert a.intersects(b)

        class _ConflictStream:
            def conflict_pairs(self):
                return [(a, b)]

        monitor = StreamingExclusionMonitor(_ConflictStream())
        convene = [MeetingEvent("convene", a, 1)]
        # Before any convene: held conflicts are exempt (inherited meetings).
        assert monitor.observe(0, None, [], None) == []
        # The first convene arms the monitor; the conflict is now reported.
        found = monitor.observe(1, None, convene, None)
        assert len(found) == 1
        assert found[0].committees == (a.members, b.members)
        assert found[0] == exclusion_violations_at(1, (a, b))[0]
        assert not monitor.report(2).holds

    def test_all_safety_monitors_observe_before_early_stop(self):
        # When several properties break in the same configuration, every
        # safety monitor must see the step before the suite raises, so the
        # post-halt verdicts stay dense-identical on the committed prefix.
        from repro.spec.properties import Violation

        hypergraph = figure1_hypergraph()
        suite = StreamingSpecSuite(hypergraph, stop_on_violation=True)
        calls = []

        class _Tripping:
            def __init__(self, name):
                self.name = name

            def observe(self, index, configuration, events, writers):
                calls.append(self.name)
                return [Violation(self.name, index, (), self.name)]

        suite._monitors = (_Tripping("first"), _Tripping("second"))
        with pytest.raises(SpecViolationError) as excinfo:
            suite.observe_step(
                CommitteeCoordinator(hypergraph, algorithm="cc1").algorithm.initial_configuration()
            )
        assert calls == ["first", "second"]
        assert excinfo.value.counterexample.violation.property_name == "first"

    def test_later_listeners_still_observe_the_stopping_step(self):
        # A StopRun from one listener must not starve the listeners behind
        # it of the committed step, or their state silently desynchronizes
        # from the trace.
        seen = []

        def stopper(configuration, record):
            if record is not None and record.index >= 2:
                raise StopRun("stopper")

        coordinator = CommitteeCoordinator(figure1_hypergraph(), algorithm="cc2", seed=1)
        scheduler = Scheduler(
            coordinator.algorithm,
            environment=AlwaysRequestingEnvironment(1),
            daemon=default_daemon(seed=1),
            step_listener=[stopper, lambda cfg, rec: seen.append(rec)],
        )
        result = scheduler.run(max_steps=50)
        assert result.stop_reason == "stopper"
        assert result.steps == 3
        assert len(seen) == result.steps + 1  # initial call + every committed step


class TestStopRunProtocol:
    def test_listener_stop_reason_reaches_result(self):
        hypergraph = figure1_hypergraph()

        def tripwire(configuration, record):
            if record is not None and record.index >= 4:
                raise StopRun("tripwire")

        coordinator = CommitteeCoordinator(hypergraph, algorithm="cc2", seed=1)
        scheduler = Scheduler(
            coordinator.algorithm,
            environment=AlwaysRequestingEnvironment(1),
            daemon=default_daemon(seed=1),
            step_listener=tripwire,
        )
        result = scheduler.run(max_steps=100)
        assert result.stop_reason == "tripwire"
        assert result.steps == 5  # the offending step is committed

    def test_multiple_listeners_all_observe(self):
        hypergraph = figure1_hypergraph()
        seen = []
        suite = StreamingSpecSuite(hypergraph)
        collector = StreamingMetricsCollector(hypergraph)
        coordinator = CommitteeCoordinator(hypergraph, algorithm="cc2", seed=1)
        scheduler = Scheduler(
            coordinator.algorithm,
            environment=AlwaysRequestingEnvironment(1),
            daemon=default_daemon(seed=1),
            record_configurations=False,
            step_listener=[collector.observe_step, suite.observe_step,
                           lambda cfg, rec: seen.append(rec)],
        )
        result = scheduler.run(max_steps=20)
        # Initial call with record=None plus one call per step, for everyone:
        # the suite's own collector saw what the standalone one saw.
        assert len(seen) == result.steps + 1
        assert suite.collector.metrics(result.trace) == collector.metrics(result.trace)
        assert collector.metrics(result.trace).steps == result.steps


# --------------------------------------------------------------------------- #
# satellite: mid-run corruption is observed by the incremental engine
# --------------------------------------------------------------------------- #
class TestCorruptSchedulerInvalidation:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_corruption_between_steps_matches_dense(self, algorithm):
        def run(engine: str):
            _, algo, scheduler = _build(algorithm, "tree", seed=5, engine=engine, record=True)
            injector = FaultInjector(algo, fraction=0.7, seed=123)
            for _ in range(3):
                scheduler.run(max_steps=scheduler.step_index + 40)
                injector.corrupt_scheduler(scheduler)
            scheduler.run(max_steps=scheduler.step_index + 40)
            return scheduler

        dense = run("dense")
        incremental = run("incremental")
        assert tuple(dense.trace.steps) == tuple(incremental.trace.steps)
        assert dense.configuration == incremental.configuration

    def test_corrupt_scheduler_drops_enabled_cache(self):
        _, algo, scheduler = _build("cc2", "oracle", seed=4, engine="incremental", record=False)
        scheduler.run(max_steps=10)
        assert scheduler._enabled_cache is not None
        injector = FaultInjector(algo, fraction=1.0, seed=9)
        corrupted = injector.corrupt_scheduler(scheduler)
        assert scheduler._enabled_cache is None
        assert scheduler.configuration == corrupted

    def test_set_configuration_invalidates(self):
        _, algo, scheduler = _build("cc2", "oracle", seed=4, engine="incremental", record=False)
        scheduler.run(max_steps=10)
        assert scheduler._enabled_cache is not None
        scheduler.set_configuration(scheduler.configuration)
        assert scheduler._enabled_cache is None


# --------------------------------------------------------------------------- #
# satellite: sparse-vs-dense fairness parity
# --------------------------------------------------------------------------- #
class TestFairnessParity:
    def _parity(self, max_steps: int, seed: int = 21) -> None:
        hypergraph, _, dense_sched = _build("cc2", "tree", seed=seed, engine="dense", record=True)
        trace = dense_sched.run(max_steps=max_steps).trace
        dense_summary = professor_fairness_counts(trace, hypergraph)

        suite = StreamingSpecSuite(hypergraph)
        _, _, sparse_sched = _build(
            "cc2", "tree", seed=seed, engine="incremental", record=False, suite=suite
        )
        sparse_sched.run(max_steps=max_steps)
        sparse_summary = suite.verdicts().fairness

        assert sparse_summary == dense_summary
        assert sparse_summary.professor_jain_index() == dense_summary.professor_jain_index()
        assert sparse_summary.starved_professors == dense_summary.starved_professors
        assert sparse_summary.starved_committees == dense_summary.starved_committees
        assert sparse_summary.min_professor_participations == dense_summary.min_professor_participations

    def test_fairness_parity_quick(self):
        self._parity(max_steps=3000)

    @pytest.mark.slow
    def test_fairness_parity_100k_steps(self):
        self._parity(max_steps=100_000)


# --------------------------------------------------------------------------- #
# runner + CLI wiring
# --------------------------------------------------------------------------- #
class TestRunnerCheckMode:
    def test_check_false_leaves_spec_none(self):
        outcome = CommitteeCoordinator(figure1_hypergraph(), algorithm="cc2", seed=1).run(
            max_steps=50
        )
        assert outcome.spec is None

    def test_sparse_check_matches_dense_posthoc(self):
        hypergraph = figure1_hypergraph()
        dense = CommitteeCoordinator(hypergraph, algorithm="cc2", seed=9, engine="dense").run(
            max_steps=400
        )
        sparse = CommitteeCoordinator(
            hypergraph, algorithm="cc2", seed=9, engine="incremental"
        ).run(max_steps=400, record_configurations=False, check=True)
        spec = sparse.spec
        assert spec is not None
        assert spec.exclusion == check_exclusion(dense.trace, hypergraph)
        assert spec.synchronization == check_synchronization(dense.trace, hypergraph)
        assert spec.progress == check_progress(dense.trace, hypergraph)
        assert spec.fairness == dense.fairness
        assert spec.all_hold

    def test_meetings_convened_exact_on_sparse_runs(self):
        hypergraph = figure1_hypergraph()
        dense = CommitteeCoordinator(hypergraph, algorithm="cc2", seed=1).run(max_steps=500)
        sparse = CommitteeCoordinator(hypergraph, algorithm="cc2", seed=1).run(
            max_steps=500, record_configurations=False
        )
        assert dense.meetings_convened > 0
        assert sparse.meetings_convened == dense.meetings_convened

    def test_sparse_check_shares_one_meeting_sweep(self):
        # The suite drives its own collector, so metrics AND spec verdicts
        # both match the dense run while the per-step committee scan happens
        # once.
        hypergraph = figure1_hypergraph()
        dense = CommitteeCoordinator(hypergraph, algorithm="cc2", seed=11, engine="dense").run(
            max_steps=500
        )
        sparse = CommitteeCoordinator(
            hypergraph, algorithm="cc2", seed=11, engine="incremental"
        ).run(max_steps=500, record_configurations=False, check=True)
        assert sparse.metrics == dense.metrics
        assert sparse.fairness == dense.fairness
        assert sparse.spec.fairness == dense.fairness
        assert sparse.spec.exclusion == check_exclusion(dense.trace, hypergraph)
        assert sparse.spec.progress == check_progress(dense.trace, hypergraph)

    def test_check_cli_rejects_non_positive_steps(self):
        with pytest.raises(SystemExit):
            cli_main(["check", "--scenario", "figure1", "--steps", "0"])

    def test_stop_on_violation_implies_check(self):
        outcome = CommitteeCoordinator(figure1_hypergraph(), algorithm="cc2", seed=1).run(
            max_steps=50, stop_on_violation=True
        )
        assert outcome.spec is not None
        assert outcome.result.stop_reason != "violation"  # clean run: no stop

    def test_spec_verdict_rows_shape(self):
        outcome = CommitteeCoordinator(figure1_hypergraph(), algorithm="cc1", seed=2).run(
            max_steps=100, check=True
        )
        rows = outcome.spec.as_rows()
        assert [row["property"] for row in rows] == [
            "Exclusion", "Synchronization", "Progress",
        ]
        assert all(row["holds"] for row in rows)


class TestStreamingDiscussion:
    """Suite wiring of the streaming 2-phase discussion monitors."""

    def test_disabled_by_default(self):
        outcome = CommitteeCoordinator(figure1_hypergraph(), algorithm="cc2", seed=1).run(
            max_steps=100, check=True
        )
        spec = outcome.spec
        assert spec.essential is None and spec.voluntary is None
        assert [row["property"] for row in spec.as_rows()] == [
            "Exclusion", "Synchronization", "Progress",
        ]

    def test_enabled_rows_and_all_hold(self):
        outcome = CommitteeCoordinator(figure1_hypergraph(), algorithm="cc2", seed=1).run(
            max_steps=400, record_configurations=False, check=True, check_discussion=True
        )
        spec = outcome.spec
        assert [row["property"] for row in spec.as_rows()] == [
            "Exclusion", "Synchronization", "Progress",
            "EssentialDiscussion", "VoluntaryDiscussion",
        ]
        assert spec.essential.holds and spec.voluntary.holds
        assert spec.all_hold

    def test_discussion_failure_fails_all_hold(self):
        # Seeded corruption fabricates/dissolves meetings, so the discussion
        # checkers fail together with the safety monitors — and the failure
        # must be visible through ``all_hold``.
        from repro.spec.discussion import (
            check_essential_discussion,
            check_voluntary_discussion,
        )

        suite = StreamingSpecSuite(figure1_hypergraph(), check_discussion=True)
        hypergraph, algorithm, scheduler = _build(
            "cc2", "tree", seed=3, engine="dense", record=True, suite=suite
        )
        injector = FaultInjector(algorithm, fraction=0.7, seed=9)
        while scheduler.step_index < 300:
            if scheduler.step_index and scheduler.step_index % 11 == 0:
                injector.corrupt_scheduler(scheduler)
            try:
                if scheduler.step() is None:
                    break
            except StopRun:
                break
        verdicts = suite.verdicts()
        dense_essential = check_essential_discussion(scheduler.trace, hypergraph)
        dense_voluntary = check_voluntary_discussion(scheduler.trace, hypergraph)
        assert verdicts.essential == dense_essential
        assert verdicts.voluntary == dense_voluntary
        assert not dense_essential.holds  # the scenario actually bites
        assert not verdicts.all_hold


class TestCheckCli:
    def test_check_command_sparse_incremental(self, capsys):
        code = cli_main([
            "check", "--scenario", "figure1", "--algorithm", "cc2",
            "--engine", "incremental", "--sparse", "--steps", "600",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "Exclusion" in output and "Synchronization" in output
        assert "Progress" in output and "Fairness" in output
        assert "sparse" in output

    def test_check_command_exit_code_on_failure(self, capsys):
        # A 3-step run starves everyone; Progress is vacuous but fairness
        # reports starvation without failing the exit code, so force a
        # Progress failure via a tiny grace window on a run that is long
        # enough to be checkable but too short for every committee to meet.
        code = cli_main([
            "check", "--scenario", "star-5", "--algorithm", "cc1",
            "--steps", "6", "--grace", "2",
        ])
        output = capsys.readouterr().out
        assert "Progress" in output
        assert code in (0, 1)  # exit code mirrors spec.all_hold
        assert ("False" in output) == (code == 1)
