"""Tests for the incremental execution engine and the bugfixes shipped with it.

Covers

* dense-vs-incremental equivalence: same seed ⇒ identical step records and
  final configuration for cc1/cc2/cc3 × tree/ring/oracle (clean and
  arbitrary starts), and identical summary metrics on sparse runs;
* guard purity: first-enabled exit over the priority table picks what a
  code-order sweep picks, and neither touches any request model's state;
* shared predicates: a macro's value is the same however many guards have
  already run on the context, calls for other processes bypass the memo,
  no macro consults the environment, and namespaced contexts start with a
  memo of their own;
* the environment delta: every request-answer flip is reported, and the
  refresh it drives is invisible next to the ``None`` fallback;
* a finished run being freed by reference counting alone;
* copy-on-write ``Configuration.updated``;
* ``Scheduler.run`` evaluating ``stop_predicate`` on idle ticks;
* ``waiting_spells`` rejecting sparse traces and counting the spell that
  opens at the last configuration;
* the scheduler reporting the *executed* selection to
  ``Daemon.notify_enabled`` so ``WeaklyFairDaemon`` bookkeeping stays truthful
  when the empty-selection fallback kicks in;
* ``AdversarialDaemon``'s fallback behaviour after the hot-loop cleanup.
"""

from __future__ import annotations

import copy
import gc
import random
import types
import weakref
from typing import Any, Dict, Sequence, Tuple

import pytest

from repro.core.runner import CommitteeCoordinator
from repro.hypergraph.generators import figure1_hypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.kernel.algorithm import Action, ActionContext, DistributedAlgorithm, Environment
from repro.kernel.composition import FairComposition, _NamespacedContext
from repro.kernel.configuration import Configuration
from repro.kernel.daemon import (
    AdversarialDaemon,
    Daemon,
    SynchronousDaemon,
    WeaklyFairDaemon,
    default_daemon,
)
from repro.kernel.faults import FaultInjector
from repro.kernel.scheduler import Scheduler
from repro.kernel.trace import Trace, StepRecord
from repro.metrics.waiting_time import WaitingSpellTracker, waiting_spells
from repro.workloads.request_models import (
    AlwaysRequestingEnvironment,
    BurstyRequestEnvironment,
    InfiniteMeetingEnvironment,
    ProbabilisticRequestEnvironment,
    ScriptedEnvironment,
    SelectiveInfiniteMeetingEnvironment,
)


ALGORITHMS = ("cc1", "cc2", "cc3")
TOKENS = ("tree", "ring", "oracle")


# --------------------------------------------------------------------------- #
# guard purity, shared predicates, the environment delta, and run lifetime
# --------------------------------------------------------------------------- #
def _algorithm(name: str):
    return CommitteeCoordinator(figure1_hypergraph(), algorithm=name, seed=5).algorithm


def _request_models():
    """One instance of every request model, keyed by a test id."""
    hypergraph = figure1_hypergraph()
    return {
        "always": AlwaysRequestingEnvironment(2),
        "always-0": AlwaysRequestingEnvironment(0),
        "always-mapping": AlwaysRequestingEnvironment({pid: 1 + pid % 3 for pid in range(1, 7)}),
        "always-callable": AlwaysRequestingEnvironment(lambda pid: 1 + pid % 2),
        "probabilistic": ProbabilisticRequestEnvironment(0.5, discussion_steps=2, seed=3),
        "bursty": BurstyRequestEnvironment(active_steps=3, quiet_steps=2),
        "bursty-quiet-0": BurstyRequestEnvironment(active_steps=4, quiet_steps=0),
        "infinite": InfiniteMeetingEnvironment(hypergraph),
        "selective": SelectiveInfiniteMeetingEnvironment({1, 4}, 2, hypergraph),
        "scripted": ScriptedEnvironment(
            {2: lambda cfg, step: step % 4 != 0},
            {3: lambda cfg, step: cfg.get(3, "S") == "done" and step % 3 == 0},
        ),
    }


class _Blind(Environment):
    """A request model that never reports its delta (``observe`` returns ``None``)."""

    def __init__(self, inner: Environment) -> None:
        self._inner = inner

    def request_in(self, pid, configuration):
        return self._inner.request_in(pid, configuration)

    def request_out(self, pid, configuration):
        return self._inner.request_out(pid, configuration)

    def observe(self, configuration, step_index):
        self._inner.observe(configuration, step_index)
        return None

    def on_essential_discussion(self, pid):
        self._inner.on_essential_discussion(pid)

    def reset(self):
        self._inner.reset()


def _snapshot(environment: Environment) -> Dict[str, Any]:
    """The environment's state, its RNG's included, as comparable values."""
    state: Dict[str, Any] = {}
    for key, value in vars(environment).items():
        if isinstance(value, random.Random):
            value = value.getstate()
        elif isinstance(value, (dict, set, list)):
            value = copy.copy(value)
        state[key] = value
    return state


class TestGuardPurity:
    """Guards are pure, so first-enabled exit picks what code order picks."""

    @staticmethod
    def _code_order_sweep(algorithm, configuration, environment):
        """Every guard in code order, keeping the last enabled one (the reference)."""
        enabled = {}
        for pid in algorithm.process_ids():
            ctx = ActionContext(pid, configuration, environment)
            chosen = None
            for action in algorithm.actions(pid):
                if action.enabled(ctx):
                    chosen = action
            if chosen is not None:
                enabled[pid] = chosen.label
        return enabled

    @pytest.mark.parametrize("algorithm", ("cc1", "cc2"))
    @pytest.mark.parametrize("model", sorted(_request_models()))
    def test_code_order_and_reverse_order_sweeps_agree(self, algorithm, model):
        environment = _request_models()[model]
        algo = _algorithm(algorithm)
        scheduler = Scheduler(
            algo,
            environment=environment,
            daemon=default_daemon(seed=2),
            initial_configuration=algo.arbitrary_configuration(random.Random(8)),
        )
        for _ in range(60):
            configuration = scheduler.configuration
            before = _snapshot(environment)
            reference = self._code_order_sweep(algo, configuration, environment)
            assert _snapshot(environment) == before
            fast = algo.enabled_processes(configuration, environment)
            assert _snapshot(environment) == before
            assert {pid: action.label for pid, action in fast.items()} == reference
            if scheduler.step() is None:
                break

    def test_default_engine_is_incremental(self):
        assert Scheduler(_CountUp(2, 2)).engine == "incremental"
        assert Scheduler(_CountUp(2, 2), engine="auto").engine == "incremental"


#: The ``shared`` predicates of each algorithm; every binding adds ``token``.
SHARED_PREDICATES = {
    "cc1": (
        "ready", "meeting", "free_edges", "free_nodes", "candidates",
        "local_max", "leave_meeting", "correct",
    ),
    "cc2": (
        "ready", "meeting", "free_edges", "free_nodes", "t_pointing_edges",
        "t_pointing_nodes", "locked", "local_max", "leave_meeting", "correct",
    ),
}
SHARED_PREDICATES["cc3"] = SHARED_PREDICATES["cc2"]


class _Raising(Environment):
    """A request model that fails whenever it is consulted."""

    def request_in(self, pid, configuration):
        raise AssertionError(f"RequestIn({pid}) consulted")

    def request_out(self, pid, configuration):
        raise AssertionError(f"RequestOut({pid}) consulted")

    def on_essential_discussion(self, pid):
        raise AssertionError(f"essential discussion of {pid} reported")


class TestSharedPredicates:
    """``shared`` macros are evaluated once per context, and nothing shows it."""

    @staticmethod
    def _algorithm(algorithm, token):
        return CommitteeCoordinator(
            figure1_hypergraph(), algorithm=algorithm, token=token, seed=5
        ).algorithm

    @staticmethod
    def _call(algo, name, ctx, pid):
        owner = algo.token if name == "token" else algo
        return getattr(owner, name)(ctx, pid)

    @staticmethod
    def _shared_members(algo):
        """``(class, name, function)`` of every shared predicate ``algo`` runs."""
        found = []
        for owner in (algo, algo.token):
            for cls in type(owner).__mro__:
                for name, value in vars(cls).items():
                    if isinstance(value, types.FunctionType) and hasattr(value, "__wrapped__"):
                        found.append((cls, name, value))
        return found

    @staticmethod
    def _configurations(algo, environment, steps=20):
        """Seeded arbitrary configurations and the runs they start."""
        for seed in (3, 11):
            scheduler = Scheduler(
                algo,
                environment=environment,
                daemon=default_daemon(seed=seed),
                initial_configuration=algo.arbitrary_configuration(random.Random(seed)),
            )
            for _ in range(steps):
                yield scheduler.configuration
                if scheduler.step() is None:
                    break

    def _reference(self, monkeypatch, algorithm, algo, configuration, environment, tables):
        """Every predicate's value and the winning action of every process,
        with each shared predicate replaced by its plain code (no memo at all)
        and a fresh context per guard."""
        names = SHARED_PREDICATES[algorithm] + ("token",)
        values, winners = {}, {}
        with monkeypatch.context() as plain:
            for cls, name, function in self._shared_members(algo):
                plain.setattr(cls, name, function.__wrapped__)
            for pid in algo.process_ids():
                values[pid] = {
                    name: self._call(algo, name, ActionContext(pid, configuration, environment), pid)
                    for name in names
                }
                winners[pid] = next(
                    (
                        action.label
                        for action in tables[pid]
                        if action.guard(ActionContext(pid, configuration, environment))
                    ),
                    None,
                )
        return values, winners

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("token", TOKENS)
    def test_walked_context_agrees_with_plain_evaluation(self, monkeypatch, algorithm, token):
        algo = self._algorithm(algorithm, token)
        assert {name for _, name, _ in self._shared_members(algo)} == set(
            SHARED_PREDICATES[algorithm]
        ) | {"token"}
        environment = AlwaysRequestingEnvironment(1)
        tables = {pid: algo.action_table(pid) for pid in algo.process_ids()}
        winners_seen = set()
        for configuration in self._configurations(algo, environment):
            values, winners = self._reference(
                monkeypatch, algorithm, algo, configuration, environment, tables
            )
            for pid in algo.process_ids():
                for walk in (tables[pid], tables[pid][::-1]):
                    walked = ActionContext(pid, configuration, environment)
                    for action in walk:
                        action.guard(walked)
                    fresh = ActionContext(pid, configuration, environment)
                    for name, expected in values[pid].items():
                        assert self._call(algo, name, walked, pid) == expected, (pid, name)
                        assert self._call(algo, name, fresh, pid) == expected, (pid, name)
                action = algo.enabled_action(pid, configuration, environment, tables[pid])
                assert (action and action.label) == winners[pid], pid
                winners_seen.add(winners[pid])
        assert len(winners_seen) > 3  # the runs exercise several guards

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("token", TOKENS)
    def test_other_pids_bypass_the_memo(self, monkeypatch, algorithm, token):
        algo = self._algorithm(algorithm, token)
        environment = AlwaysRequestingEnvironment(1)
        tables = {pid: algo.action_table(pid) for pid in algo.process_ids()}
        pids = algo.process_ids()
        differing = 0
        for configuration in self._configurations(algo, environment, steps=8):
            values, _ = self._reference(
                monkeypatch, algorithm, algo, configuration, environment, tables
            )
            for pid in pids:
                for other in pids:
                    if other == pid:
                        continue
                    for name in values[pid]:
                        ctx = ActionContext(pid, configuration, environment)
                        assert self._call(algo, name, ctx, other) == values[other][name]
                        assert ctx.memo == {}
                        assert self._call(algo, name, ctx, pid) == values[pid][name]
                        cached = dict(ctx.memo)
                        assert self._call(algo, name, ctx, other) == values[other][name]
                        assert ctx.memo == cached
                        assert self._call(algo, name, ctx, pid) == values[pid][name]
                        differing += values[pid][name] != values[other][name]
        assert differing > 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("token", TOKENS)
    def test_predicates_never_consult_the_environment(self, algorithm, token):
        algo = self._algorithm(algorithm, token)
        raising = _Raising()
        names = SHARED_PREDICATES[algorithm] + ("token",)
        for configuration in self._configurations(algo, AlwaysRequestingEnvironment(1)):
            for pid in algo.process_ids():
                for name in names:
                    ctx = ActionContext(pid, configuration, raising)
                    self._call(algo, name, ctx, pid)
                    for other in algo.process_ids():
                        self._call(algo, name, ctx, other)

    def test_namespaced_context_starts_with_its_own_memo(self):
        algo = self._algorithm("cc2", "tree")
        configuration = algo.arbitrary_configuration(random.Random(4))
        inner = ActionContext(1, configuration, AlwaysRequestingEnvironment(1))
        algo.ready(inner, 1)
        algo.token.token(inner, 1)
        assert inner.memo
        namespaced = _NamespacedContext(inner, "cc.")
        assert namespaced.memo == {}
        assert namespaced.memo is not inner.memo
        assert namespaced._writes is inner._writes

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_composed_components_do_not_share_values(self, seed):
        # Both components run the base class's Ready/Meeting and the binding's
        # Token(p) on their own variables; a memo shared across their
        # namespaced contexts would hand one component the other's values.
        composed = FairComposition(
            [("a", self._algorithm("cc1", "tree")), ("b", self._algorithm("cc2", "ring"))]
        )
        environment = AlwaysRequestingEnvironment(1)
        configuration = composed.arbitrary_configuration(random.Random(seed))
        for pid in composed.process_ids():
            table = composed.action_table(pid)
            for walk in (table, table[::-1]):
                walked = ActionContext(pid, configuration, environment)
                for action in walk:
                    fresh = ActionContext(pid, configuration, environment)
                    assert bool(action.guard(walked)) == bool(action.guard(fresh)), action.label


class TestEnvironmentDelta:
    """``Environment.observe`` reports every request-answer flip, and the
    refresh it drives is invisible next to the ``None`` fallback."""

    @staticmethod
    def _answers(environment, configuration):
        return {
            pid: (environment.request_in(pid, configuration), environment.request_out(pid, configuration))
            for pid in configuration.processes()
        }

    @pytest.mark.parametrize("algorithm", ("cc1", "cc2"))
    @pytest.mark.parametrize(
        "model",
        sorted(name for name in _request_models() if name != "scripted"),
    )
    def test_delta_contains_every_flip(self, algorithm, model):
        environment = _request_models()[model]
        checked = {"observes": 0, "flips": 0}
        original = environment.observe

        def observe(configuration, step_index):
            before = self._answers(environment, configuration)
            delta = original(configuration, step_index)
            after = self._answers(environment, configuration)
            flipped = {pid for pid in before if before[pid] != after[pid]}
            assert delta is not None
            assert flipped <= set(delta), (step_index, flipped - set(delta))
            checked["observes"] += 1
            checked["flips"] += len(flipped)
            return delta

        environment.observe = observe
        algo = _algorithm(algorithm)
        scheduler = Scheduler(
            algo,
            environment=environment,
            daemon=default_daemon(seed=4),
            initial_configuration=algo.arbitrary_configuration(random.Random(6)),
        )
        injector = FaultInjector(algo, fraction=0.5, seed=7)
        for _ in range(8):
            scheduler.run(max_steps=scheduler.step_index + 37, allow_idle_steps=True)
            injector.corrupt_scheduler(scheduler)
        assert checked["observes"] > 8 * 37
        if model not in ("always-0", "infinite"):
            assert checked["flips"] > 0

    @staticmethod
    def _run(algorithm, environment, corrupt_every=0, idle=False, steps=250, engine=None):
        algo = _algorithm(algorithm)
        scheduler = Scheduler(
            algo,
            environment=environment,
            daemon=WeaklyFairDaemon(SynchronousDaemon()),
            initial_configuration=algo.arbitrary_configuration(random.Random(9)),
            engine=engine,
        )
        if idle:
            return scheduler, scheduler.run(max_steps=steps, allow_idle_steps=True)
        injector = FaultInjector(algo, fraction=0.5, seed=7) if corrupt_every else None
        while scheduler.step_index < steps:
            if injector is not None and scheduler.step_index and scheduler.step_index % corrupt_every == 0:
                injector.corrupt_scheduler(scheduler)
            if scheduler.step() is None:
                break
        return scheduler, None

    @pytest.mark.parametrize("algorithm", ("cc1", "cc2", "cc3"))
    @pytest.mark.parametrize("model", ("always", "probabilistic", "bursty"))
    @pytest.mark.parametrize("corrupt_every", (0, 23))
    def test_invisible_next_to_none_fallback(self, algorithm, model, corrupt_every):
        delta, _ = self._run(algorithm, _request_models()[model], corrupt_every)
        blind, _ = self._run(algorithm, _Blind(_request_models()[model]), corrupt_every)
        assert tuple(delta.trace.steps) == tuple(blind.trace.steps)
        assert delta.configuration == blind.configuration

    @pytest.mark.parametrize("algorithm", ("cc1", "cc2", "cc3"))
    @pytest.mark.parametrize("model", ("always", "probabilistic", "bursty"))
    def test_invisible_across_idle_ticks(self, algorithm, model):
        delta, delta_result = self._run(algorithm, _request_models()[model], idle=True)
        blind, blind_result = self._run(algorithm, _Blind(_request_models()[model]), idle=True)
        assert tuple(delta.trace.steps) == tuple(blind.trace.steps)
        assert delta.configuration == blind.configuration
        assert delta_result.steps == blind_result.steps

    @pytest.mark.parametrize("algorithm", ("cc1", "cc2", "cc3"))
    def test_flips_from_idle_ticks_reenable_the_system(self, algorithm):
        # Under the synchronous daemon every meeting sits out its voluntary
        # discussion with nobody enabled; only the RequestOut flips of those
        # idle ticks' observations can re-enable the system, so they must
        # reach the next refresh (the dense engine sweeps every guard).
        delta, delta_result = self._run(algorithm, AlwaysRequestingEnvironment(5), idle=True)
        assert len(delta.trace.steps) < delta_result.steps  # idle ticks happened
        for reference in (
            self._run(algorithm, _Blind(AlwaysRequestingEnvironment(5)), idle=True)[0],
            self._run(algorithm, AlwaysRequestingEnvironment(5), idle=True, engine="dense")[0],
        ):
            assert tuple(delta.trace.steps) == tuple(reference.trace.steps)
            assert delta.configuration == reference.configuration


def test_finished_run_is_freed_by_reference_counting():
    """A run's action tables must not tie its algorithm into a reference cycle."""
    gc.collect()
    gc.disable()
    try:
        algorithm = _algorithm("cc2")
        alive = weakref.ref(algorithm)
        scheduler = Scheduler(
            algorithm, environment=AlwaysRequestingEnvironment(1), daemon=default_daemon(seed=3)
        )
        scheduler.run(max_steps=50)
        del scheduler, algorithm
        assert alive() is None
    finally:
        gc.enable()


# --------------------------------------------------------------------------- #
# dense vs incremental equivalence
# --------------------------------------------------------------------------- #
def _run(algorithm: str, token: str, engine: str, **kwargs):
    coordinator = CommitteeCoordinator(
        figure1_hypergraph(), algorithm=algorithm, token=token, seed=13, engine=engine
    )
    return coordinator.run(max_steps=200, **kwargs)


class TestEngineEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("token", TOKENS)
    def test_identical_traces_and_final_configuration(self, algorithm, token):
        dense = _run(algorithm, token, "dense")
        incremental = _run(algorithm, token, "incremental")
        assert tuple(dense.trace.steps) == tuple(incremental.trace.steps)
        assert dense.final == incremental.final

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_identical_from_arbitrary_start(self, algorithm):
        dense = _run(algorithm, "ring", "dense", from_arbitrary=True)
        incremental = _run(algorithm, "ring", "incremental", from_arbitrary=True)
        assert tuple(dense.trace.steps) == tuple(incremental.trace.steps)
        assert dense.final == incremental.final

    def test_sparse_run_metrics_match_dense(self):
        dense = _run("cc2", "tree", "dense")
        sparse = _run("cc2", "tree", "incremental", record_configurations=False)
        assert dense.metrics == sparse.metrics
        assert dense.fairness.per_professor == sparse.fairness.per_professor
        assert dense.fairness.per_committee == sparse.fairness.per_committee
        # The sparse contract: the per-event list is not retained.
        assert sparse.events == []

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            CommitteeCoordinator(figure1_hypergraph(), engine="bogus")
        with pytest.raises(ValueError):
            Scheduler(_CountUp(2, 2), engine="turbo")

    def test_probabilistic_environment_memoises_outside_guards(self):
        # The memoised ProbabilisticRequestEnvironment draws in observe(),
        # outside guard evaluation, so it produces identical traces on both
        # engines for a fixed seed.
        def run(engine: str):
            coordinator = CommitteeCoordinator(
                figure1_hypergraph(), algorithm="cc1", seed=5, engine=engine
            )
            return coordinator.run(
                max_steps=300,
                environment=ProbabilisticRequestEnvironment(
                    request_probability=0.4, discussion_steps=2, seed=17
                ),
            )

        dense = run("dense")
        incremental = run("incremental")
        assert tuple(dense.trace.steps) == tuple(incremental.trace.steps)
        assert dense.final == incremental.final
        assert dense.metrics == incremental.metrics


# --------------------------------------------------------------------------- #
# copy-on-write configurations
# --------------------------------------------------------------------------- #
class TestCopyOnWriteConfiguration:
    def test_unwritten_process_state_is_shared(self):
        base = Configuration({1: {"x": 0}, 2: {"x": 0}, 3: {"x": 0}})
        derived = base.updated({2: {"x": 5}})
        assert derived._states[1] is base._states[1]
        assert derived._states[3] is base._states[3]
        assert derived._states[2] is not base._states[2]

    def test_written_values_and_parent_isolation(self):
        base = Configuration({1: {"x": 0, "y": "a"}, 2: {"x": 0}})
        derived = base.updated({1: {"x": 7}})
        assert derived[(1, "x")] == 7 and derived[(1, "y")] == "a"
        assert base[(1, "x")] == 0

    def test_empty_writes_share_everything(self):
        base = Configuration({1: {"x": 0}})
        derived = base.updated({1: {}})
        assert derived._states[1] is base._states[1]
        assert derived == base

    def test_new_process_in_writes(self):
        base = Configuration({1: {"x": 0}})
        derived = base.updated({9: {"x": 1}})
        assert derived[(9, "x")] == 1 and 9 not in base

    def test_accessors_still_return_copies(self):
        base = Configuration({1: {"x": 0}})
        derived = base.updated({})
        derived.state_of(1)["x"] = 99
        derived.to_dict()[1]["x"] = 99
        assert base[(1, "x")] == 0 and derived[(1, "x")] == 0


# --------------------------------------------------------------------------- #
# scheduler bugfix regressions
# --------------------------------------------------------------------------- #
class _CountUp(DistributedAlgorithm):
    def __init__(self, n: int = 2, limit: int = 3) -> None:
        self.n, self.limit = n, limit

    def process_ids(self) -> Tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def initial_state(self, pid: int) -> Dict[str, Any]:
        return {"c": 0}

    def arbitrary_state(self, pid: int, rng: Any) -> Dict[str, Any]:
        return {"c": rng.randrange(self.limit + 1)}

    def actions(self, pid: int) -> Sequence[Action]:
        return (
            Action(
                "inc",
                lambda ctx: ctx.own("c") < self.limit,
                lambda ctx: ctx.write("c", ctx.own("c") + 1),
            ),
        )


class TestIdleTickStopPredicate:
    def test_predicate_fires_while_quiescent(self):
        # The system is terminal immediately (limit 0); with idle steps allowed
        # the predicate must still be able to stop the run.
        scheduler = Scheduler(_CountUp(2, 0), daemon=SynchronousDaemon())
        result = scheduler.run(
            max_steps=1000,
            allow_idle_steps=True,
            stop_predicate=lambda cfg, step: step >= 3,
        )
        assert result.stop_reason == "predicate"
        assert result.steps == 3

    def test_terminal_still_wins_without_idle_steps(self):
        scheduler = Scheduler(_CountUp(2, 0), daemon=SynchronousDaemon())
        result = scheduler.run(max_steps=10, stop_predicate=lambda cfg, step: step >= 3)
        assert result.stop_reason == "terminal"


class TestWaitingSpells:
    def _hypergraph(self) -> Hypergraph:
        return Hypergraph([1, 2], [(1, 2)])

    def _cfg(self, meeting: bool) -> Configuration:
        edge = self._hypergraph().hyperedges[0]
        status = "waiting" if meeting else "looking"
        pointer = edge if meeting else None
        return Configuration(
            {p: {"S": status, "P": pointer} for p in (1, 2)}
        )

    def test_sparse_trace_rejected_with_clear_error(self):
        scheduler = Scheduler(
            _CountUp(2, 3), daemon=SynchronousDaemon(), record_configurations=False
        )
        result = scheduler.run(max_steps=10)
        assert result.trace.is_sparse
        with pytest.raises(ValueError, match="record_configurations"):
            waiting_spells(result.trace, self._hypergraph())

    def test_spell_opening_at_last_configuration_is_counted(self):
        hypergraph = self._hypergraph()
        trace = Trace(self._cfg(meeting=True))
        record = StepRecord(0, frozenset({1}), {1: "a"}, frozenset({1}), frozenset(), 0)
        # Meeting dissolves in the last configuration: both professors open a
        # waiting spell right there, which must be reported (length 0).
        trace.append(self._cfg(meeting=False), record)
        spells = waiting_spells(trace, hypergraph)
        assert spells == {1: [0], 2: [0]}

    def test_tracker_matches_batch_function(self):
        hypergraph = self._hypergraph()
        sequence = [self._cfg(False), self._cfg(True), self._cfg(False), self._cfg(False)]
        trace = Trace(sequence[0])
        tracker = WaitingSpellTracker(hypergraph)
        tracker.observe(sequence[0])
        for index, cfg in enumerate(sequence[1:]):
            trace.append(
                cfg, StepRecord(index, frozenset({1}), {1: "a"}, frozenset({1}), frozenset(), 0)
            )
            tracker.observe(cfg)
        assert tracker.spells() == waiting_spells(trace, hypergraph)


class _PicksDisabled(Daemon):
    """A broken daemon that always selects a process that is never enabled."""

    def select(self, enabled, configuration, step_index):
        return frozenset({999})


class TestNotifyEnabled:
    def test_scheduler_reports_executed_selection_to_wrapper(self):
        daemon = WeaklyFairDaemon(_PicksDisabled(), patience=100)
        scheduler = Scheduler(_CountUp(3, 5), daemon=daemon)
        scheduler.step()
        # The scheduler's fallback executed the lowest enabled id (1); the
        # wrapper's starvation counters must reflect that actual selection:
        # 1 moved (counter reset), 2 and 3 were passed over (aged by one).
        assert daemon._starvation == {1: 0, 2: 1, 3: 1}

    def test_standalone_select_still_enforces_fairness(self):
        # Driven without notify_enabled (no scheduler), the wrapper must keep
        # aging starved processes on its own provisional bookkeeping.
        daemon = WeaklyFairDaemon(_PicksDisabled(), patience=3)
        cfg = Configuration({p: {"x": 0} for p in (1, 2)})
        forced = set()
        for step in range(4):
            forced |= daemon.select((1, 2), cfg, step)
        assert {1, 2} <= forced


class TestAdversarialDaemonFallback:
    def test_fallback_is_lowest_enabled_id(self):
        daemon = AdversarialDaemon(lambda enabled, cfg, step: [999])
        cfg = Configuration({p: {"x": 0} for p in (3, 5, 9)})
        assert daemon.select((9, 3, 5), cfg, 0) == frozenset({3})

    def test_strategy_intersection_preserved(self):
        daemon = AdversarialDaemon(lambda enabled, cfg, step: [5, 999])
        cfg = Configuration({p: {"x": 0} for p in (3, 5, 9)})
        assert daemon.select((9, 3, 5), cfg, 0) == frozenset({5})
