"""Tests for Algorithm ``CC3 ∘ TC`` (Section 5.4): Committee Fairness."""

from __future__ import annotations

import random

import pytest

from repro.core.cc3 import CURSOR, CC3Algorithm
from repro.core.states import LOOKING, POINTER, STATUS
from repro.kernel.daemon import default_daemon
from repro.kernel.scheduler import Scheduler
from repro.metrics.concurrency import degree_of_fair_concurrency
from repro.spec.discussion import check_essential_discussion, check_voluntary_discussion
from repro.spec.fairness import professor_fairness_counts
from repro.spec.properties import check_exclusion, check_synchronization
from repro.spec.stabilization import snap_stabilization_sweep
from repro.workloads.request_models import AlwaysRequestingEnvironment

from tests.conftest import make_cc3


def run_cc3(hypergraph, steps=1500, seed=1, arbitrary=False):
    algo = make_cc3(hypergraph)
    initial = None
    if arbitrary:
        initial = algo.arbitrary_configuration(random.Random(seed))
    scheduler = Scheduler(
        algo,
        environment=AlwaysRequestingEnvironment(discussion_steps=1),
        daemon=default_daemon(seed=seed),
        initial_configuration=initial,
    )
    return algo, scheduler.run(max_steps=steps)


class TestVariables:
    def test_cursor_variable_exists(self, fig1):
        algo = make_cc3(fig1)
        assert algo.initial_state(1)[CURSOR] == 0

    def test_arbitrary_cursor_is_integer(self, fig1, rng):
        algo = make_cc3(fig1)
        for pid in fig1.vertices:
            assert isinstance(algo.arbitrary_state(pid, rng)[CURSOR], int)

    def test_inherits_cc2_actions(self, fig1):
        algo = make_cc3(fig1)
        labels = [a.label for a in algo.actions()]
        assert "Step11" in labels and "Stab" in labels


class TestTargetSelection:
    def test_token_target_follows_cursor(self, fig1):
        from repro.kernel.algorithm import ActionContext

        algo = make_cc3(fig1)
        env = AlwaysRequestingEnvironment()
        cfg = algo.initial_configuration()
        edges = algo.incident(2)
        for cursor in range(len(edges) + 2):
            cfg2 = cfg.updated({2: {CURSOR: cursor}})
            ctx = ActionContext(2, cfg2, env)
            target = algo.token_target_edges(ctx, 2)
            assert target == (edges[cursor % len(edges)],)

    def test_corrupted_cursor_is_tolerated(self, fig1):
        from repro.kernel.algorithm import ActionContext

        algo = make_cc3(fig1)
        env = AlwaysRequestingEnvironment()
        cfg = algo.initial_configuration().updated({2: {CURSOR: "garbage"}})
        ctx = ActionContext(2, cfg, env)
        target = algo.token_target_edges(ctx, 2)
        assert target == (algo.incident(2)[0],)


class TestSafetyAndFairness:
    @pytest.mark.parametrize("fixture", ["fig1", "fig2", "triangle"])
    def test_safety(self, fixture, request):
        hypergraph = request.getfixturevalue(fixture)
        algo, result = run_cc3(hypergraph, steps=800, seed=3)
        assert check_exclusion(result.trace, hypergraph).holds
        assert check_synchronization(result.trace, hypergraph).holds
        assert check_essential_discussion(result.trace, hypergraph).holds
        assert check_voluntary_discussion(result.trace, hypergraph).holds

    def test_professor_fairness(self, fig1):
        algo, result = run_cc3(fig1, steps=2000, seed=5)
        summary = professor_fairness_counts(result.trace, fig1)
        assert summary.starved_professors == ()

    def test_committee_fairness_on_triangle(self, triangle):
        """On the triangle every committee convenes: the CC3 cursor cycles
        the token holder through all of its incident committees."""
        algo, result = run_cc3(triangle, steps=2500, seed=7)
        summary = professor_fairness_counts(result.trace, triangle)
        assert summary.starved_committees == (), summary.per_committee

    def test_committee_fairness_on_figure2(self, fig2):
        algo, result = run_cc3(fig2, steps=3000, seed=9)
        summary = professor_fairness_counts(result.trace, fig2)
        assert summary.starved_committees == (), summary.per_committee

    def test_snap_stabilization(self, fig2):
        algo = make_cc3(fig2)
        report = snap_stabilization_sweep(
            algo,
            lambda: AlwaysRequestingEnvironment(discussion_steps=1),
            trials=3,
            max_steps=500,
            seed=41,
        )
        assert report.all_hold, report.violations()


class TestDegreeOfFairConcurrency:
    def test_respects_theorem7_bound(self, fig2):
        algo = make_cc3(fig2)
        result = degree_of_fair_concurrency(algo, trials=2, max_steps=2500, seed=3)
        assert result.observed_min >= result.theorem7_bound, result.as_row()

    def test_disjoint_committees_all_meet(self, two_disjoint):
        algo = make_cc3(two_disjoint)
        result = degree_of_fair_concurrency(
            algo, trials=2, max_steps=1500, seed=1, include_arbitrary_starts=False
        )
        assert result.observed_min == 2
