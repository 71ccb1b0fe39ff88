"""Tests for fair composition and the transient-fault helpers."""

from __future__ import annotations

import random
from typing import Any, Dict, Sequence, Tuple

import pytest

from repro.kernel.algorithm import Action, ActionContext, DistributedAlgorithm
from repro.kernel.composition import FairComposition, namespaced_action
from repro.kernel.configuration import Configuration
from repro.kernel.daemon import SynchronousDaemon
from repro.kernel.faults import FaultInjector, arbitrary_configuration
from repro.kernel.scheduler import Scheduler


class TinyCounter(DistributedAlgorithm):
    """Single-variable counter bounded by ``limit`` (used as a composition component)."""

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def process_ids(self) -> Tuple[int, ...]:
        return (1, 2)

    def initial_state(self, pid: int) -> Dict[str, Any]:
        return {"c": 0}

    def arbitrary_state(self, pid: int, rng: Any) -> Dict[str, Any]:
        return {"c": rng.randrange(self.limit + 1)}

    def actions(self) -> Sequence[Action]:
        return (
            Action(
                "inc",
                lambda ctx: ctx.own("c") < self.limit,
                lambda ctx: ctx.write("c", ctx.own("c") + 1),
            ),
        )


class TestFairComposition:
    def test_variables_are_namespaced(self):
        composed = FairComposition([("a", TinyCounter(2)), ("b", TinyCounter(4))])
        state = composed.initial_state(1)
        assert state == {"a.c": 0, "b.c": 0}

    def test_both_components_progress(self):
        composed = FairComposition([("a", TinyCounter(2)), ("b", TinyCounter(4))])
        scheduler = Scheduler(composed, daemon=SynchronousDaemon())
        result = scheduler.run(max_steps=50)
        assert result.terminated
        assert result.final.get(1, "a.c") == 2
        assert result.final.get(1, "b.c") == 4

    def test_action_labels_are_prefixed(self):
        composed = FairComposition([("a", TinyCounter(1)), ("b", TinyCounter(1))])
        labels = [action.label for action in composed.actions()]
        assert labels == ["a.inc", "b.inc"]

    def test_component_lookup(self):
        counter = TinyCounter(2)
        composed = FairComposition([("a", counter)])
        assert composed.component("a") is counter
        with pytest.raises(KeyError):
            composed.component("zzz")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FairComposition([("a", TinyCounter(1)), ("a", TinyCounter(2))])

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            FairComposition([])

    def test_mismatched_process_sets_rejected(self):
        class OtherIds(TinyCounter):
            def process_ids(self):
                return (1, 2, 3)

        with pytest.raises(ValueError):
            FairComposition([("a", TinyCounter(1)), ("b", OtherIds(1))])

    def test_namespaced_action_reads_prefixed_variables(self):
        base = Action(
            "probe",
            lambda ctx: ctx.own("c") == 7,
            lambda ctx: ctx.write("c", 0),
        )
        wrapped = namespaced_action(base, "x.")
        cfg = Configuration({1: {"x.c": 7}})
        ctx = ActionContext(1, cfg, None)  # type: ignore[arg-type]
        assert wrapped.enabled(ctx)
        wrapped.execute(ctx)
        assert ctx.writes == {"x.c": 0}


class TestFaults:
    def test_arbitrary_configuration_respects_domains(self):
        algo = TinyCounter(3)
        cfg = arbitrary_configuration(algo, seed=1)
        for pid in algo.process_ids():
            assert 0 <= cfg.get(pid, "c") <= 3

    def test_arbitrary_configuration_is_reproducible(self):
        algo = TinyCounter(5)
        assert arbitrary_configuration(algo, seed=7) == arbitrary_configuration(algo, seed=7)

    def test_fault_injector_corrupts_some_processes(self):
        algo = TinyCounter(100)
        clean = algo.initial_configuration()
        injector = FaultInjector(algo, fraction=1.0, seed=5)
        corrupted = injector.corrupt(clean)
        assert corrupted != clean

    def test_fault_injector_targeted_victims(self):
        algo = TinyCounter(100)
        clean = algo.initial_configuration()
        injector = FaultInjector(algo, fraction=0.0, seed=5)
        corrupted = injector.corrupt(clean, victims=[2])
        assert corrupted.get(1, "c") == 0  # untouched

    def test_fault_injector_variable_override(self):
        algo = TinyCounter(10)
        clean = algo.initial_configuration()
        injector = FaultInjector(algo, seed=5)
        corrupted = injector.corrupt_variables(clean, 1, {"c": 9})
        assert corrupted.get(1, "c") == 9
        assert corrupted.get(2, "c") == 0

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(TinyCounter(1), fraction=1.5)
