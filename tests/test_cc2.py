"""Tests for Algorithm ``CC2 ∘ TC`` (Section 5): Professor Fairness + 2-Phase Discussion."""

from __future__ import annotations

import random

import pytest

from repro.core.cc2 import CC2Algorithm
from repro.core.states import DONE, IDLE, LOCK_FLAG, LOOKING, POINTER, STATUS, TOKEN_FLAG, WAITING
from repro.hypergraph.hypergraph import Hyperedge
from repro.kernel.algorithm import ActionContext
from repro.kernel.configuration import Configuration
from repro.kernel.daemon import default_daemon
from repro.kernel.scheduler import Scheduler
from repro.metrics.concurrency import degree_of_fair_concurrency
from repro.spec.concurrency import measure_fair_concurrency
from repro.spec.discussion import check_essential_discussion, check_voluntary_discussion
from repro.spec.events import convened_meetings
from repro.spec.fairness import professor_fairness_counts
from repro.spec.properties import check_exclusion, check_progress, check_synchronization
from repro.spec.stabilization import snap_stabilization_sweep
from repro.workloads.request_models import AlwaysRequestingEnvironment, InfiniteMeetingEnvironment

from tests.conftest import make_cc2


def run_cc2(hypergraph, steps=800, seed=1, env=None, arbitrary=False, token="oracle"):
    algo = make_cc2(hypergraph, token=token)
    env = env if env is not None else AlwaysRequestingEnvironment(discussion_steps=1)
    initial = None
    if arbitrary:
        initial = algo.arbitrary_configuration(random.Random(seed))
    scheduler = Scheduler(
        algo, environment=env, daemon=default_daemon(seed=seed), initial_configuration=initial
    )
    return algo, scheduler.run(max_steps=steps)


class TestVariableLayout:
    def test_no_idle_status(self, fig1):
        algo = make_cc2(fig1)
        assert IDLE not in algo.statuses
        assert algo.initial_state(1)[STATUS] == LOOKING

    def test_lock_flag_present(self, fig1):
        algo = make_cc2(fig1)
        state = algo.initial_state(1)
        assert state[LOCK_FLAG] is False

    def test_arbitrary_state_never_idle(self, fig1, rng):
        algo = make_cc2(fig1)
        for pid in fig1.vertices:
            for _ in range(5):
                assert algo.arbitrary_state(pid, rng)[STATUS] in (LOOKING, WAITING, DONE)


class TestSafetyProperties:
    @pytest.mark.parametrize("fixture", ["fig1", "fig2", "fig4", "triangle", "two_disjoint"])
    def test_safety_on_clean_start(self, fixture, request):
        hypergraph = request.getfixturevalue(fixture)
        algo, result = run_cc2(hypergraph, steps=700, seed=3)
        assert check_exclusion(result.trace, hypergraph).holds
        assert check_synchronization(result.trace, hypergraph).holds
        assert check_essential_discussion(result.trace, hypergraph).holds
        assert check_voluntary_discussion(result.trace, hypergraph).holds

    def test_progress(self, fig1):
        algo, result = run_cc2(fig1, steps=900, seed=4)
        assert check_progress(result.trace, fig1).holds


class TestProfessorFairness:
    @pytest.mark.parametrize("fixture", ["fig1", "fig2", "fig3"])
    def test_every_professor_participates(self, fixture, request):
        """The finite rendering of Definition 3 over a long run."""
        hypergraph = request.getfixturevalue(fixture)
        algo, result = run_cc2(hypergraph, steps=1800, seed=7)
        summary = professor_fairness_counts(result.trace, hypergraph)
        assert summary.starved_professors == (), summary.per_professor

    def test_every_professor_participates_repeatedly(self, fig1):
        algo, result = run_cc2(fig1, steps=2000, seed=8)
        summary = professor_fairness_counts(result.trace, fig1)
        assert summary.min_professor_participations >= 3

    def test_fairness_with_tree_token(self, fig2):
        algo, result = run_cc2(fig2, steps=1800, seed=9, token="tree")
        summary = professor_fairness_counts(result.trace, fig2)
        assert summary.starved_professors == ()


class TestLockMechanism:
    def _figure4_configuration(self, algo) -> Configuration:
        """Rebuild (the essence of) Figure 4's configuration.

        Committee {3,4,5} is meeting; professor 1 holds the token, points at
        {1,2,5,8} and is looking; everyone else is looking.
        """
        from repro.tokenring.dijkstra_ring import COUNTER

        states = algo.initial_configuration().to_dict()
        locked_committee = Hyperedge([1, 2, 5, 8])
        meeting = Hyperedge([3, 4, 5])
        for pid in (3, 4, 5):
            states[pid][STATUS] = WAITING
            states[pid][POINTER] = meeting
        states[1][STATUS] = LOOKING
        states[1][POINTER] = locked_committee
        states[1][TOKEN_FLAG] = True
        # Make professor 1 the actual token holder of the (ring) token module:
        # on the id-descending ring its predecessor is professor 2, so a
        # differing counter gives Token(1) and only Token(1).
        states[1][algo.token.prefix + COUNTER] = 1
        cfg = Configuration(states)
        assert algo.token.token_in(cfg, 1)
        assert algo.token.token_holders(cfg) == (1,)
        return cfg

    def test_locked_predicate_on_figure4(self, fig4):
        algo = make_cc2(fig4)
        cfg = self._figure4_configuration(algo)
        env = AlwaysRequestingEnvironment()
        # Professors 2, 5 and 8 are members of the committee pointed at by the
        # token holder 1, so they are locked.
        for pid in (2, 5, 8):
            ctx = ActionContext(pid, cfg, env)
            assert algo.locked(ctx, pid), f"professor {pid} should be locked"
        # Professor 9 is not a member of {1,2,5,8}: not locked.
        ctx9 = ActionContext(9, cfg, env)
        assert not algo.locked(ctx9, 9)

    def test_free_edges_exclude_locked_processes(self, fig4):
        """Professor 9's committee {8,9} is not free (8 is locked); {6,7,9} is free."""
        algo = make_cc2(fig4)
        cfg = self._figure4_configuration(algo)
        # First let the Lock action publish L on the locked professors.
        env = AlwaysRequestingEnvironment()
        writes = {}
        for pid in (2, 5, 8):
            ctx = ActionContext(pid, cfg, env)
            assert algo.locked(ctx, pid)
            writes[pid] = {LOCK_FLAG: True}
        cfg = cfg.updated(writes)
        ctx9 = ActionContext(9, cfg, env)
        free = {tuple(e.members) for e in algo.free_edges(ctx9, 9)}
        assert (8, 9) not in free
        assert (6, 7, 9) in free

    def test_figure4_committee_679_can_convene(self, fig4):
        """Running from the Figure 4 configuration, {6,7,9} convenes even though
        {8,9} has higher id-priority, thanks to the lock mechanism."""
        algo = make_cc2(fig4)
        cfg = self._figure4_configuration(algo)
        env = InfiniteMeetingEnvironment()
        scheduler = Scheduler(
            algo, environment=env, daemon=default_daemon(seed=5), initial_configuration=cfg
        )
        result = scheduler.run(max_steps=800)
        convened = {tuple(e.committee.members) for e in convened_meetings(result.trace, fig4)}
        assert (6, 7, 9) in convened


class TestDegreeOfFairConcurrency:
    @pytest.mark.parametrize("fixture", ["fig1", "fig2", "two_disjoint"])
    def test_measured_degree_respects_theorem4(self, fixture, request):
        hypergraph = request.getfixturevalue(fixture)
        algo = make_cc2(hypergraph)
        result = degree_of_fair_concurrency(algo, trials=2, max_steps=2500, seed=3)
        assert result.respects_theorem4, result.as_row()

    def test_disjoint_committees_all_meet(self, two_disjoint):
        algo = make_cc2(two_disjoint)
        measurement = measure_fair_concurrency(algo, max_steps=1200, seed=1)
        assert measurement.degree == 2

    def test_cc2_is_not_maximally_concurrent_on_figure2(self, fig2):
        """The trade-off of Section 3: some run of CC2 blocks a fully-waiting committee."""
        algo = make_cc2(fig2)
        observed_blocked = False
        for seed in range(6):
            measurement = measure_fair_concurrency(algo, max_steps=1500, seed=seed)
            if not measurement.held_is_maximal_matching:
                observed_blocked = True
                break
        assert observed_blocked


class TestSnapStabilization:
    def test_arbitrary_start_is_safe(self, fig1):
        algo = make_cc2(fig1)
        report = snap_stabilization_sweep(
            algo,
            lambda: AlwaysRequestingEnvironment(discussion_steps=1),
            trials=4,
            max_steps=500,
            seed=31,
        )
        assert report.all_hold, report.violations()
        assert report.total_convened_meetings > 0

    def test_arbitrary_start_with_tree_token(self, fig4):
        algo = make_cc2(fig4, token="tree")
        report = snap_stabilization_sweep(
            algo,
            lambda: AlwaysRequestingEnvironment(discussion_steps=1),
            trials=3,
            max_steps=500,
            seed=37,
        )
        assert report.all_hold, report.violations()

    def test_correct_predicate_closed_under_steps(self, fig2):
        """Lemma 8 analogue of the CC1 test."""
        algo = make_cc2(fig2)
        env = AlwaysRequestingEnvironment(discussion_steps=1)
        scheduler = Scheduler(
            algo,
            environment=env,
            daemon=default_daemon(seed=2),
            initial_configuration=algo.arbitrary_configuration(random.Random(5)),
        )
        became_correct_at = {}
        for step in range(250):
            cfg = scheduler.configuration
            for pid in fig2.vertices:
                ctx = ActionContext(pid, cfg, env)
                if algo.correct(ctx, pid):
                    became_correct_at.setdefault(pid, step)
                else:
                    assert pid not in became_correct_at
            if scheduler.step() is None:
                break


class TestTokenRetention:
    def test_token_holder_keeps_token_until_it_meets(self, fig2):
        """Unlike CC1 there is no Token2 action: CC2 never releases a token
        from a looking process."""
        algo = make_cc2(fig2)
        labels = {action.label for action in algo.actions()}
        assert "Token2" not in labels
        assert "Step11" in labels and "Step12" in labels
