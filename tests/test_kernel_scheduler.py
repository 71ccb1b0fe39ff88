"""Tests for the scheduler: steps, composite atomicity, rounds, termination."""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

import pytest

from repro.core.runner import CommitteeCoordinator
from repro.hypergraph.generators import figure1_hypergraph
from repro.kernel.algorithm import Action, ActionContext, DistributedAlgorithm, Environment
from repro.kernel.configuration import Configuration
from repro.kernel.daemon import CentralDaemon, SynchronousDaemon, default_daemon
from repro.kernel.faults import FaultInjector
from repro.kernel.scheduler import Scheduler


class CountUpAlgorithm(DistributedAlgorithm):
    """Every process increments its counter until it reaches ``limit``."""

    def __init__(self, n: int = 3, limit: int = 5) -> None:
        self.n = n
        self.limit = limit

    def process_ids(self) -> Tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def initial_state(self, pid: int) -> Dict[str, Any]:
        return {"c": 0}

    def arbitrary_state(self, pid: int, rng: Any) -> Dict[str, Any]:
        return {"c": rng.randrange(self.limit + 1)}

    def actions(self) -> Sequence[Action]:
        def guard(ctx: ActionContext) -> bool:
            return ctx.own("c") < self.limit

        def stmt(ctx: ActionContext) -> None:
            ctx.write("c", ctx.own("c") + 1)

        return (Action("inc", guard, stmt),)


class CopyNeighbourAlgorithm(DistributedAlgorithm):
    """Two processes; process 2 copies process 1's value when they differ.

    Used to verify composite atomicity: when both move in the same step,
    process 2 must read process 1's *pre-step* value.  Both processes run
    the same two actions; each guard gives a process its role through
    ``ctx.pid``.
    """

    def process_ids(self) -> Tuple[int, ...]:
        return (1, 2)

    def initial_state(self, pid: int) -> Dict[str, Any]:
        return {"v": 0}

    def arbitrary_state(self, pid: int, rng: Any) -> Dict[str, Any]:
        return {"v": rng.randrange(5)}

    def actions(self) -> Sequence[Action]:
        return (
            Action(
                "bump",
                lambda ctx: ctx.pid == 1 and ctx.own("v") < 3,
                lambda ctx: ctx.write("v", ctx.own("v") + 1),
            ),
            Action(
                "copy",
                lambda ctx: ctx.pid == 2 and ctx.own("v") != ctx.read(1, "v"),
                lambda ctx: ctx.write("v", ctx.read(1, "v")),
            ),
        )


class TestTermination:
    def test_runs_to_terminal_configuration(self):
        scheduler = Scheduler(CountUpAlgorithm(3, 5), daemon=SynchronousDaemon())
        result = scheduler.run(max_steps=100)
        assert result.terminated
        assert result.stop_reason == "terminal"
        for pid in (1, 2, 3):
            assert result.final.get(pid, "c") == 5

    def test_synchronous_daemon_takes_exactly_limit_steps(self):
        scheduler = Scheduler(CountUpAlgorithm(4, 7), daemon=SynchronousDaemon())
        result = scheduler.run(max_steps=100)
        assert result.steps == 7

    def test_max_steps_bound(self):
        scheduler = Scheduler(CountUpAlgorithm(3, 1000), daemon=SynchronousDaemon())
        result = scheduler.run(max_steps=10)
        assert result.steps == 10
        assert not result.terminated
        assert result.stop_reason == "max_steps"

    def test_stop_predicate(self):
        scheduler = Scheduler(CountUpAlgorithm(2, 50), daemon=SynchronousDaemon())
        result = scheduler.run(
            max_steps=100, stop_predicate=lambda cfg, step: cfg.get(1, "c") >= 5
        )
        assert result.stop_reason == "predicate"
        assert result.final.get(1, "c") == 5

    def test_step_returns_none_when_terminal(self):
        scheduler = Scheduler(CountUpAlgorithm(1, 0), daemon=SynchronousDaemon())
        assert scheduler.step() is None


class TestCompositeAtomicity:
    def test_simultaneous_moves_read_pre_step_snapshot(self):
        scheduler = Scheduler(CopyNeighbourAlgorithm(), daemon=SynchronousDaemon())
        scheduler.step()  # both enabled? process 2 copies 0 (already equal -> only 1 moves)
        # After first step: v1=1, v2 stays 0 (it was equal to the old value).
        assert scheduler.configuration.get(1, "v") == 1
        assert scheduler.configuration.get(2, "v") == 0
        scheduler.step()
        # Both moved simultaneously: process 2 copies the OLD value 1 while
        # process 1 bumps to 2 -- composite atomicity.
        assert scheduler.configuration.get(1, "v") == 2
        assert scheduler.configuration.get(2, "v") == 1


class TestRounds:
    def test_synchronous_rounds_equal_steps(self):
        scheduler = Scheduler(CountUpAlgorithm(3, 4), daemon=SynchronousDaemon())
        result = scheduler.run(max_steps=100)
        # Under the synchronous daemon every step completes a round.
        assert result.trace.rounds == result.steps

    def test_central_daemon_rounds_are_coarser(self):
        scheduler = Scheduler(CountUpAlgorithm(3, 4), daemon=CentralDaemon())
        result = scheduler.run(max_steps=100)
        # One process moves per step, so a round needs ~n steps.
        assert result.steps > result.trace.rounds
        assert result.trace.rounds >= 4


class TestTraceRecording:
    def test_dense_trace_records_every_configuration(self):
        scheduler = Scheduler(CountUpAlgorithm(2, 3), daemon=SynchronousDaemon())
        result = scheduler.run(max_steps=100)
        assert len(result.trace.configurations) == result.steps + 1

    def test_sparse_trace_keeps_final_configuration(self):
        scheduler = Scheduler(
            CountUpAlgorithm(2, 3), daemon=SynchronousDaemon(), record_configurations=False
        )
        result = scheduler.run(max_steps=100)
        # Only the initial and final configurations are kept, so the
        # sequence is not there to answer.
        with pytest.raises(ValueError, match="Trace.configurations needs a densely recorded trace"):
            result.trace.configurations
        assert result.trace.final.get(1, "c") == 3

    def test_sparse_trace_refuses_every_configuration_query(self):
        outcome = CommitteeCoordinator(figure1_hypergraph(), seed=1).run(
            max_steps=300, record_configurations=False
        )
        trace = outcome.trace
        assert trace.length == 300
        for name, query in (
            ("Trace.__len__", lambda: len(trace)),
            ("Trace.__iter__", lambda: iter(trace)),
            ("Trace.configurations", lambda: trace.configurations),
            ("Trace.variable_series", lambda: trace.variable_series(1, "S")),
        ):
            with pytest.raises(ValueError, match=f"{name} needs a densely recorded trace"):
                query()
        assert trace  # a trace's truth value does not go through len()
        dense = CommitteeCoordinator(figure1_hypergraph(), seed=1).run(max_steps=300).trace
        assert len(dense) == len(dense.configurations) == dense.length + 1 == 301
        assert len(dense.variable_series(1, "S")) == 301
        assert dense.final == trace.final

    def test_executed_action_labels(self):
        scheduler = Scheduler(CountUpAlgorithm(1, 2), daemon=SynchronousDaemon())
        result = scheduler.run(max_steps=10)
        assert result.trace.action_counts() == {"inc": 2}

    def test_executions_of_process(self):
        scheduler = Scheduler(CountUpAlgorithm(2, 2), daemon=SynchronousDaemon())
        result = scheduler.run(max_steps=10)
        executions = result.trace.executions_of(1)
        assert [label for _, label in executions] == ["inc", "inc"]

    def test_variable_series(self):
        scheduler = Scheduler(CountUpAlgorithm(1, 3), daemon=SynchronousDaemon())
        result = scheduler.run(max_steps=10)
        assert result.trace.variable_series(1, "c") == [0, 1, 2, 3]


class TestFaultSchedule:
    @pytest.mark.parametrize("fault_every", (0, -3))
    def test_injector_needs_a_positive_period(self, fault_every):
        coordinator = CommitteeCoordinator(figure1_hypergraph(), seed=1)
        injector = FaultInjector(coordinator.algorithm, fraction=0.3, seed=2)
        with pytest.raises(ValueError, match="fault_every must be >= 1"):
            coordinator.run(max_steps=50, injector=injector, fault_every=fault_every)
        # The check runs before the first step.
        scheduler = Scheduler(coordinator.algorithm, daemon=default_daemon(seed=1))
        with pytest.raises(ValueError, match="fault_every"):
            scheduler.run(max_steps=50, injector=injector, fault_every=fault_every)
        assert scheduler.step_index == 0 and scheduler.trace.length == 0

    def test_positive_period_and_no_injector_run(self):
        coordinator = CommitteeCoordinator(figure1_hypergraph(), seed=1)
        injector = FaultInjector(coordinator.algorithm, fraction=0.3, seed=2)
        assert coordinator.run(max_steps=50, injector=injector, fault_every=7).steps == 50
        # Without an injector the period is never read.
        assert coordinator.run(max_steps=50, fault_every=0).steps == 50
        assert coordinator.run(max_steps=50, fault_every=-3).steps == 50


class TestEnvironmentHook:
    class CountingEnvironment(Environment):
        def __init__(self):
            self.observations = 0

        def observe(self, configuration, step_index):
            self.observations += 1

    def test_environment_observes_every_step(self):
        env = self.CountingEnvironment()
        scheduler = Scheduler(CountUpAlgorithm(1, 4), environment=env, daemon=SynchronousDaemon())
        scheduler.run(max_steps=10)
        # One observation for the initial configuration plus one per step.
        assert env.observations == 5

    def test_initial_configuration_override(self):
        algo = CountUpAlgorithm(2, 5)
        start = Configuration({1: {"c": 4}, 2: {"c": 5}})
        scheduler = Scheduler(algo, daemon=SynchronousDaemon(), initial_configuration=start)
        result = scheduler.run(max_steps=10)
        assert result.steps == 1
        assert result.final.get(1, "c") == 5
