"""Tests for the high-level runner API, the request models, and the scenarios."""

from __future__ import annotations

import pytest

from repro.core.runner import CommitteeCoordinator
from repro.core.states import DONE, IDLE, LOOKING, STATUS
from repro.hypergraph.generators import figure1_hypergraph, path_of_committees
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernel.configuration import Configuration
from repro.kernel.daemon import SynchronousDaemon
from repro.workloads.request_models import (
    AlwaysRequestingEnvironment,
    BurstyRequestEnvironment,
    InfiniteMeetingEnvironment,
    ProbabilisticRequestEnvironment,
    ScriptedEnvironment,
    SelectiveInfiniteMeetingEnvironment,
)
from repro.workloads.scenarios import (
    Scenario,
    all_scenarios,
    paper_scenarios,
    scaling_scenarios,
    scenario_by_name,
)


class TestCommitteeCoordinator:
    def test_default_run(self):
        outcome = CommitteeCoordinator(figure1_hypergraph(), seed=1).run(max_steps=500)
        assert outcome.steps == 500
        assert outcome.meetings_convened > 0
        assert outcome.algorithm_name == "cc2"

    @pytest.mark.parametrize("algorithm", ["cc1", "cc2", "cc3"])
    @pytest.mark.parametrize("token", ["tree", "ring", "oracle"])
    def test_all_algorithm_token_combinations(self, algorithm, token):
        coordinator = CommitteeCoordinator(
            path_of_committees(3), algorithm=algorithm, token=token, seed=2
        )
        outcome = coordinator.run(max_steps=400)
        assert outcome.meetings_convened > 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            CommitteeCoordinator(figure1_hypergraph(), algorithm="cc9")

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            CommitteeCoordinator(figure1_hypergraph(), token="quantum")

    def test_unknown_daemon_rejected(self):
        coordinator = CommitteeCoordinator(figure1_hypergraph(), daemon="chaotic")
        with pytest.raises(ValueError):
            coordinator.run(max_steps=10)

    def test_synchronous_daemon_option(self):
        coordinator = CommitteeCoordinator(figure1_hypergraph(), daemon="synchronous", seed=1)
        outcome = coordinator.run(max_steps=400)
        assert outcome.meetings_convened > 0

    def test_daemon_instance_accepted(self):
        coordinator = CommitteeCoordinator(figure1_hypergraph(), daemon=SynchronousDaemon(), seed=1)
        assert coordinator.run(max_steps=200).steps == 200

    def test_arbitrary_start(self):
        coordinator = CommitteeCoordinator(figure1_hypergraph(), seed=5)
        outcome = coordinator.run(max_steps=400, from_arbitrary=True)
        assert outcome.meetings_convened > 0

    def test_sparse_recording(self):
        coordinator = CommitteeCoordinator(figure1_hypergraph(), seed=1)
        outcome = coordinator.run(max_steps=300, record_configurations=False)
        assert outcome.events == []
        assert outcome.metrics.steps == 300

    def test_meetings_in_delegation(self):
        coordinator = CommitteeCoordinator(figure1_hypergraph(), seed=1)
        outcome = coordinator.run(max_steps=300)
        held = coordinator.meetings_in(outcome.final)
        assert isinstance(held, tuple)


class TestRequestModels:
    def _config(self, status: str) -> Configuration:
        return Configuration({1: {STATUS: status}, 2: {STATUS: LOOKING}})

    def test_always_requesting_in(self):
        env = AlwaysRequestingEnvironment(discussion_steps=2)
        assert env.request_in(1, self._config(IDLE))

    def test_always_requesting_out_after_discussion(self):
        env = AlwaysRequestingEnvironment(discussion_steps=2)
        cfg_done = self._config(DONE)
        assert not env.request_out(1, cfg_done)
        env.observe(cfg_done, 0)
        assert not env.request_out(1, cfg_done)
        env.observe(cfg_done, 1)
        assert env.request_out(1, cfg_done)

    def test_done_counter_resets_when_leaving(self):
        env = AlwaysRequestingEnvironment(discussion_steps=1)
        env.observe(self._config(DONE), 0)
        assert env.request_out(1, self._config(DONE))
        env.observe(self._config(LOOKING), 1)
        assert not env.request_out(1, self._config(DONE))

    def test_per_professor_discussion_mapping(self):
        env = AlwaysRequestingEnvironment(discussion_steps={1: 3})
        cfg_done = self._config(DONE)
        env.observe(cfg_done, 0)
        assert not env.request_out(1, cfg_done)

    def test_callable_discussion(self):
        env = AlwaysRequestingEnvironment(discussion_steps=lambda pid: 1)
        cfg_done = self._config(DONE)
        env.observe(cfg_done, 0)
        assert env.request_out(1, cfg_done)

    def test_probabilistic_model_is_memoised_per_spell(self):
        env = ProbabilisticRequestEnvironment(request_probability=0.5, seed=1)
        cfg_idle = self._config(IDLE)
        first = env.request_in(1, cfg_idle)
        assert env.request_in(1, cfg_idle) == first

    def test_probabilistic_invalid_probability(self):
        with pytest.raises(ValueError):
            ProbabilisticRequestEnvironment(request_probability=0.0)

    def test_bursty_phases(self):
        env = BurstyRequestEnvironment(active_steps=2, quiet_steps=2)
        cfg_idle = self._config(IDLE)
        values = []
        for step in range(8):
            env.observe(cfg_idle, step)
            values.append(env.request_in(1, cfg_idle))
        assert True in values and False in values

    def test_bursty_invalid_phases(self):
        with pytest.raises(ValueError):
            BurstyRequestEnvironment(active_steps=0)

    def test_infinite_meeting_without_hypergraph(self):
        env = InfiniteMeetingEnvironment()
        assert env.request_in(1, self._config(LOOKING))
        assert not env.request_out(1, self._config(DONE))

    def test_selective_infinite_meetings(self):
        env = SelectiveInfiniteMeetingEnvironment(frozen=[1], discussion_steps=1)
        cfg_done = self._config(DONE)
        env.observe(cfg_done, 0)
        assert not env.request_out(1, cfg_done)   # frozen professor never leaves
        env.observe(cfg_done, 1)
        assert env.request_out(2, Configuration({1: {STATUS: DONE}, 2: {STATUS: DONE}})) or True

    def test_scripted_environment(self):
        env = ScriptedEnvironment(
            request_in_script={1: lambda cfg, step: step >= 3},
            request_out_script={1: lambda cfg, step: False},
        )
        cfg_idle = self._config(IDLE)
        assert not env.request_in(1, cfg_idle)
        for step in range(4):
            env.observe(cfg_idle, step)
        assert env.request_in(1, cfg_idle)
        assert not env.request_out(1, self._config(DONE))
        # Unscripted professors fall back to the default behaviour.
        assert env.request_in(2, cfg_idle)

    def test_essential_discussion_hook_counts(self):
        env = AlwaysRequestingEnvironment()
        env.on_essential_discussion(3)
        env.on_essential_discussion(3)
        assert env.essential_discussions(3) == 2


class TestScenarios:
    def test_paper_scenarios_present(self):
        names = {s.name for s in paper_scenarios()}
        assert {"figure1", "figure2-impossibility", "figure3-cc1-example", "figure4-cc2-locks"} <= names

    def test_scaling_scenarios_are_connected(self):
        for scenario in scaling_scenarios():
            if scenario.name.startswith("disjoint"):
                continue
            assert scenario.hypergraph.is_connected(), scenario.name

    def test_scenario_by_name(self):
        scenario = scenario_by_name("figure1")
        assert scenario.n == 6

    def test_lookup_builds_only_the_requested_scenario(self, monkeypatch):
        expected = {scenario.name: scenario for scenario in all_scenarios()}
        assert len(expected) == 18
        built = []
        original = Hypergraph.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Hypergraph, "__init__", counting)
        for name, scenario in expected.items():
            built.clear()
            assert scenario_by_name(name) == scenario
            assert len(built) == 1, name

    def test_scenario_by_name_unknown(self):
        with pytest.raises(KeyError):
            scenario_by_name("no-such-scenario")

    def test_scenario_properties(self):
        scenario = Scenario(name="x", hypergraph=figure1_hypergraph())
        assert scenario.n == 6 and scenario.m == 5
