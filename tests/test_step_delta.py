"""Tests for the kernel's writer-set delta protocol (`StepDelta` + epoch).

Covers

* every scheduler-committed step carrying a ``StepDelta`` whose writes are
  exactly the variables that differ between consecutive configurations;
* the configuration epoch starting at 0, surviving normal steps, and being
  bumped by ``Scheduler.set_configuration`` /
  ``FaultInjector.corrupt_scheduler``;
* the ``(writer, variable) -> readers`` map the incremental engine builds
  from ``read_dependency_variables`` (token-counter writes dirty the ring
  successor, not the whole ``G_H`` neighbourhood), and that every guard
  outcome a one-variable change can flip belongs to a declared reader;
* the streaming monitors riding the delta fast path on normal steps and
  resynchronizing (full scan) exactly on epoch changes, with dense-identical
  verdicts either way — the mid-run ``set_configuration`` regression test;
* ``merge_read_dependency_variables`` absorption semantics.
"""

from __future__ import annotations

import random

import pytest

from repro.core.runner import CommitteeCoordinator
from repro.hypergraph.generators import figure1_hypergraph
from repro.kernel.daemon import default_daemon
from repro.kernel.faults import FaultInjector
from repro.kernel.scheduler import Scheduler
from repro.kernel.trace import StepDelta
from repro.kernel.algorithm import Environment, merge_read_dependency_variables
from repro.spec.properties import (
    check_exclusion,
    check_progress,
    check_synchronization,
)
from repro.spec.streaming import StreamingSpecSuite
from repro.tokenring.composed import ComposedTokenCirculation
from repro.tokenring.leader_election import SelfStabilizingLeaderElection
from repro.workloads.request_models import AlwaysRequestingEnvironment
from repro.workloads.scenarios import scenario_by_name


def _scheduler(engine=None, seed=3, record=True, listeners=None, algorithm="cc2"):
    coordinator = CommitteeCoordinator(
        figure1_hypergraph(), algorithm=algorithm, token="ring", seed=seed, engine=engine
    )
    return coordinator.algorithm, Scheduler(
        coordinator.algorithm,
        environment=AlwaysRequestingEnvironment(discussion_steps=1),
        daemon=default_daemon(seed=seed),
        record_configurations=record,
        engine=engine,
        step_listener=listeners,
    )


def _configuration_diff(before, after):
    """pid -> sorted tuple of variable names whose values differ."""
    diff = {}
    for pid in before:
        changed = tuple(
            sorted(
                name
                for name in set(before.state_of(pid)) | set(after.state_of(pid))
                if before.get(pid, name) != after.get(pid, name)
            )
        )
        if changed:
            diff[pid] = changed
    return diff


class TestStepDeltaContents:
    @pytest.mark.parametrize("engine", ["dense", "incremental"])
    def test_delta_writes_cover_configuration_diffs(self, engine):
        _, scheduler = _scheduler(engine=engine)
        result = scheduler.run(max_steps=120)
        configurations = result.trace.configurations
        assert result.steps > 0
        for before, after, record in result.trace.pairs():
            delta = record.delta
            assert isinstance(delta, StepDelta)
            assert delta.epoch == 0  # no external swaps in this run
            # Every variable that changed value is declared in the delta ...
            diff = _configuration_diff(before, after)
            for pid, changed in diff.items():
                assert set(changed) <= set(delta.writes[pid])
            # ... and every declared writer actually executed an action.
            assert set(delta.writes) <= set(record.selected)
            assert delta.writers == tuple(sorted(delta.writes))

    def test_no_empty_writer_entries(self):
        _, scheduler = _scheduler(engine="incremental")
        scheduler.run(max_steps=200)
        for record in scheduler.trace.steps:
            for pid, written in record.delta.writes.items():
                assert written, f"process {pid} recorded with an empty write set"

    def test_wrote_helper(self):
        delta = StepDelta(writes={1: ("P", "S")}, epoch=0)
        assert delta.wrote(1) and delta.wrote(1, "S") and delta.wrote(1, "S", "x")
        assert not delta.wrote(1, "x")
        assert not delta.wrote(2) and not delta.wrote(2, "S")


class TestEpoch:
    def test_epoch_starts_at_zero_and_survives_steps(self):
        _, scheduler = _scheduler(engine="incremental")
        assert scheduler.epoch == 0
        scheduler.run(max_steps=50)
        assert scheduler.epoch == 0

    def test_set_configuration_bumps_epoch(self):
        _, scheduler = _scheduler(engine="incremental")
        scheduler.run(max_steps=20)
        scheduler.set_configuration(scheduler.configuration)
        assert scheduler.epoch == 1
        record = scheduler.step()
        assert record.delta.epoch == 1

    def test_corrupt_scheduler_bumps_epoch(self):
        algorithm, scheduler = _scheduler(engine="incremental")
        scheduler.run(max_steps=20)
        injector = FaultInjector(algorithm, fraction=0.5, seed=9)
        injector.corrupt_scheduler(scheduler)
        injector.corrupt_scheduler(scheduler)
        assert scheduler.epoch == 2


class _FixedAnswers(Environment):
    """Request answers fixed per process, so guards depend on the configuration alone."""

    def __init__(self, answers):
        self._answers = answers

    def request_in(self, pid, configuration):
        return self._answers[pid][0]

    def request_out(self, pid, configuration):
        return self._answers[pid][1]


#: Every algorithm whose read declaration feeds the incremental engine.
DECLARING_ALGORITHMS = {
    **{
        f"{name}-{token}": (
            lambda hypergraph, name=name, token=token: CommitteeCoordinator(
                hypergraph, algorithm=name, token=token
            ).algorithm
        )
        for name in ("cc1", "cc2", "cc3")
        for token in ("tree", "ring", "oracle")
    },
    "composed-token": ComposedTokenCirculation,
    "leader-election": SelfStabilizingLeaderElection,
}


class TestPerVariableDirtyMaps:
    def test_token_counter_dirties_ring_successor_not_neighbourhood(self):
        algorithm, scheduler = _scheduler(engine="incremental")
        module = algorithm.token.module
        readers = scheduler._readers
        for pid in algorithm.process_ids():
            neighbourhood = frozenset({pid, *algorithm.hypergraph.neighbors(pid)})
            # A token-counter write dirties the writer and its ring successor
            # only, not the writer's G_H neighbourhood ...
            assert readers[(pid, "tc_c")] == frozenset({pid, module.successor(pid)})
            # ... and a CC-variable write dirties exactly that neighbourhood.
            for variable in ("S", "P", "T", "L"):
                assert readers[(pid, variable)] == neighbourhood

    @pytest.mark.parametrize("scenario", ["figure1", "grid-3x3"])
    @pytest.mark.parametrize("name", sorted(DECLARING_ALGORITHMS))
    def test_declared_readers_cover_every_guard_outcome_change(self, name, scenario):
        """Change one variable of one process, re-sweep every guard, and
        require each process whose priority action changed to be a reader
        of that ``(process, variable)`` in the scheduler's map."""
        algorithm = DECLARING_ALGORITHMS[name](scenario_by_name(scenario).hypergraph)
        rng = random.Random(17)
        pids = algorithm.process_ids()
        # Every professor wants to meet and leaves on a fixed coin, so guards
        # depend on the configuration alone.
        environment = _FixedAnswers({pid: (True, rng.random() < 0.5) for pid in pids})
        readers = Scheduler(algorithm, environment=environment)._readers
        # Arbitrary configurations, plus the ones a clean start passes
        # through (consistent token flags and free committees there expose
        # the reads of neighbours' flags).
        run = Scheduler(algorithm, environment=environment, daemon=default_daemon(seed=17))
        bases = [
            algorithm.arbitrary_configuration(random.Random(rng.random())) for _ in range(3)
        ] + list(run.run(max_steps=20).trace.configurations)[::5]

        def labels(configuration):
            enabled = algorithm.enabled_processes(configuration, environment)
            return {pid: action.label for pid, action in enabled.items()}

        changes = 0
        for base in bases:
            before = labels(base)
            for pid in pids:
                for _ in range(3):
                    # A fresh RNG per draw: the oracle module memoises its
                    # token position on the RNG it is handed.
                    drawn = algorithm.arbitrary_state(pid, random.Random(rng.random()))
                    for variable, value in sorted(drawn.items()):
                        if value == base.get(pid, variable):
                            continue
                        after = labels(base.updated({pid: {variable: value}}))
                        changed = {q for q in pids if before.get(q) != after.get(q)}
                        missed = changed - readers[(pid, variable)]
                        assert not missed, (
                            f"writing {variable!r} of {pid} changed the priority "
                            f"action of {sorted(missed)}, which do not declare it"
                        )
                        changes += bool(changed)
        assert changes > 0

    def test_merge_absorbs_none(self):
        merged = merge_read_dependency_variables(
            {1: ("a",), 2: ("b",)},
            {1: None, 2: ("c",), 3: ("d",)},
            {2: ("b",)},
        )
        assert merged == {1: None, 2: ("b", "c"), 3: ("d",)}


class TestMonitorResyncOnEpochBump:
    """Mid-run ``set_configuration`` must force a streaming full resync with
    dense-identical verdicts — the regression the epoch exists to prevent."""

    STEPS_PER_PHASE = 60
    PHASES = 4

    def _drive(self, engine, record, suite=None, seed=11):
        algorithm, scheduler = _scheduler(
            engine=engine,
            seed=seed,
            record=record,
            listeners=suite.observe_step if suite is not None else None,
        )
        injector = FaultInjector(algorithm, fraction=0.6, seed=seed + 1)
        for phase in range(self.PHASES):
            scheduler.run(max_steps=scheduler.step_index + self.STEPS_PER_PHASE)
            if phase < self.PHASES - 1:
                injector.corrupt_scheduler(scheduler)
        return scheduler

    def test_epoch_bump_forces_full_scan_then_delta_path_resumes(self):
        hypergraph = figure1_hypergraph()
        suite = StreamingSpecSuite(hypergraph)
        scans = []

        def spy(configuration, record):
            if record is not None:
                scans.append(suite._stream.last_writers is None)

        algorithm, scheduler = _scheduler(
            engine="incremental",
            record=False,
            listeners=[suite.observe_step, spy],
        )
        scheduler.run(max_steps=30)
        scheduler.set_configuration(scheduler.configuration)
        scheduler.run(max_steps=60)
        # Step 0 is a full scan (the suite has no epoch yet), the first step
        # after the swap is a full scan (epoch changed), everything else
        # rides the delta fast path.
        full_indices = [i for i, full in enumerate(scans) if full]
        assert full_indices == [0, 30]

    def test_verdicts_identical_to_dense_across_epoch_bumps(self):
        hypergraph = figure1_hypergraph()
        dense_trace = self._drive(engine="dense", record=True).trace
        suite = StreamingSpecSuite(hypergraph)
        self._drive(engine="incremental", record=False, suite=suite)
        verdicts = suite.verdicts()
        assert verdicts.exclusion == check_exclusion(dense_trace, hypergraph)
        assert verdicts.synchronization == check_synchronization(dense_trace, hypergraph)
        assert verdicts.progress == check_progress(dense_trace, hypergraph)
