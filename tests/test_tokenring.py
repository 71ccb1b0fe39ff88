"""Tests for the token-circulation substrate (Property 1)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hypergraph.generators import figure1_hypergraph, path_of_committees
from repro.kernel.algorithm import ActionContext, Environment
from repro.kernel.configuration import Configuration
from repro.kernel.daemon import CentralDaemon, SynchronousDaemon, default_daemon
from repro.kernel.scheduler import Scheduler
from repro.tokenring.composed import ComposedTokenCirculation
from repro.tokenring.dijkstra_ring import COUNTER, DijkstraRingAlgorithm, DijkstraRingToken
from repro.tokenring.leader_election import SelfStabilizingLeaderElection
from repro.tokenring.oracle import OracleTokenModule
from repro.tokenring.tree_circulation import TreeTokenCirculation, dfs_preorder_of_spanning_tree


def read_of(states, prefix):
    """The reader callable ``Token(p)`` used to receive: ``ActionContext.read``
    of the prefixed name, so a missing variable reads as ``None``."""
    return lambda pid, var: states[pid].get(prefix + var)


class TestDijkstraRingStructure:
    def test_ring_order_defaults_to_descending_ids(self):
        module = DijkstraRingToken([3, 1, 2])
        assert module.ring == (3, 2, 1)
        assert module.root == 3

    def test_explicit_ring_order(self):
        module = DijkstraRingToken([1, 2, 3], ring_order=[2, 3, 1])
        assert module.root == 2
        assert module.successor(2) == 3
        assert module.predecessor(2) == 1

    def test_invalid_ring_order_rejected(self):
        with pytest.raises(ValueError):
            DijkstraRingToken([1, 2, 3], ring_order=[1, 2])

    def test_k_must_exceed_ring_length(self):
        with pytest.raises(ValueError):
            DijkstraRingToken([1, 2, 3], k=3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DijkstraRingToken([])


class TestDijkstraRingSemantics:
    def test_legitimate_initial_configuration_has_one_token_at_root(self):
        module = DijkstraRingToken([1, 2, 3, 4])
        algo = DijkstraRingAlgorithm(module)
        cfg = algo.initial_configuration()
        assert algo.token_holders_in(cfg) == (module.root,)

    def test_at_least_one_token_in_any_configuration(self):
        """The classic invariant: a K-state ring always has >= 1 token."""
        module = DijkstraRingToken([1, 2, 3, 4, 5])
        algo = DijkstraRingAlgorithm(module)
        rng = random.Random(0)
        for _ in range(30):
            cfg = algo.arbitrary_configuration(rng)
            assert len(algo.token_holders_in(cfg)) >= 1

    def test_stabilizes_to_single_token_from_arbitrary(self):
        module = DijkstraRingToken([1, 2, 3, 4, 5])
        algo = DijkstraRingAlgorithm(module)
        rng = random.Random(3)
        scheduler = Scheduler(
            algo,
            daemon=default_daemon(seed=1),
            initial_configuration=algo.arbitrary_configuration(rng),
        )
        scheduler.run(max_steps=400)
        assert len(algo.token_holders_in(scheduler.configuration)) == 1

    def test_token_visits_every_process(self):
        module = DijkstraRingToken([1, 2, 3, 4])
        algo = DijkstraRingAlgorithm(module)
        scheduler = Scheduler(algo, daemon=CentralDaemon())
        visited = set(algo.token_holders_in(scheduler.configuration))
        for _ in range(60):
            if scheduler.step() is None:
                break
            visited |= set(algo.token_holders_in(scheduler.configuration))
        assert visited == {1, 2, 3, 4}

    def test_release_token_moves_it_to_successor(self):
        module = DijkstraRingToken([1, 2, 3])
        algo = DijkstraRingAlgorithm(module)
        scheduler = Scheduler(algo, daemon=SynchronousDaemon())
        holder_before = algo.token_holders_in(scheduler.configuration)[0]
        scheduler.step()
        holder_after = algo.token_holders_in(scheduler.configuration)[0]
        assert holder_after == module.successor(holder_before)

    def test_token_keeps_circulating(self):
        module = DijkstraRingToken([1, 2, 3])
        algo = DijkstraRingAlgorithm(module)
        scheduler = Scheduler(algo, daemon=SynchronousDaemon())
        result = scheduler.run(max_steps=50)
        # The ring never terminates: every step passes the token.
        assert result.steps == 50


class TestOracleModule:
    def test_arbitrary_configuration_is_already_stabilized(self):
        module = OracleTokenModule([1, 2, 3, 4, 5])
        algo = DijkstraRingAlgorithm(module)
        for seed in range(10):
            cfg = algo.arbitrary_configuration(random.Random(seed))
            assert len(algo.token_holders_in(cfg)) == 1

    def test_arbitrary_token_position_varies(self):
        module = OracleTokenModule([1, 2, 3, 4, 5])
        algo = DijkstraRingAlgorithm(module)
        holders = set()
        for seed in range(20):
            cfg = algo.arbitrary_configuration(random.Random(seed))
            holders.add(algo.token_holders_in(cfg)[0])
        assert len(holders) > 1


class TestTreeCirculation:
    def test_preorder_is_a_permutation(self):
        h = figure1_hypergraph()
        order = dfs_preorder_of_spanning_tree(h)
        assert sorted(order) == list(h.vertices)

    def test_preorder_root_is_max_id(self):
        h = figure1_hypergraph()
        assert dfs_preorder_of_spanning_tree(h)[0] == max(h.vertices)

    def test_explicit_root(self):
        h = figure1_hypergraph()
        assert dfs_preorder_of_spanning_tree(h, root=2)[0] == 2

    def test_tree_circulation_single_token_initially(self):
        h = path_of_committees(5)
        module = TreeTokenCirculation(h)
        algo = DijkstraRingAlgorithm(module)
        assert len(algo.token_holders_in(algo.initial_configuration())) == 1

    def test_disconnected_hypergraph_still_covered(self):
        from repro.hypergraph.hypergraph import Hypergraph

        h = Hypergraph([1, 2, 3, 4], [[1, 2], [3, 4]])
        order = dfs_preorder_of_spanning_tree(h)
        assert sorted(order) == [1, 2, 3, 4]


class TestLeaderElection:
    def test_legitimate_initialisation(self):
        h = figure1_hypergraph()
        algo = SelfStabilizingLeaderElection(h)
        assert algo.is_legitimate(algo.initial_configuration())

    def test_converges_from_arbitrary(self):
        h = figure1_hypergraph()
        algo = SelfStabilizingLeaderElection(h)
        rng = random.Random(9)
        scheduler = Scheduler(
            algo,
            daemon=default_daemon(seed=2),
            initial_configuration=algo.arbitrary_configuration(rng),
        )
        result = scheduler.run(max_steps=500)
        assert result.terminated
        assert algo.is_legitimate(scheduler.configuration)
        assert algo.elected(scheduler.configuration) == (algo.true_leader,)

    def test_true_leader_is_max_id(self):
        h = figure1_hypergraph()
        assert SelfStabilizingLeaderElection(h).true_leader == 6

    def test_ghost_leader_eventually_dies(self):
        h = path_of_committees(4)
        algo = SelfStabilizingLeaderElection(h)
        cfg = algo.initial_configuration().to_dict()
        # Plant a ghost id larger than every real id at one process.
        some = min(h.vertices)
        cfg[some]["lid"] = max(h.vertices) + 3
        cfg[some]["d"] = 0
        from repro.kernel.configuration import Configuration

        scheduler = Scheduler(
            algo, daemon=default_daemon(seed=4), initial_configuration=Configuration(cfg)
        )
        scheduler.run(max_steps=800)
        assert algo.is_legitimate(scheduler.configuration)


class TestComposedTokenCirculation:
    def test_initial_configuration_stabilized(self):
        h = figure1_hypergraph()
        algo = ComposedTokenCirculation(h)
        assert algo.is_stabilized(algo.initial_configuration())

    def test_stabilizes_from_arbitrary_configuration(self):
        h = path_of_committees(4)
        algo = ComposedTokenCirculation(h)
        rng = random.Random(17)
        scheduler = Scheduler(
            algo,
            daemon=default_daemon(seed=5),
            initial_configuration=algo.arbitrary_configuration(rng),
        )
        # Run long enough for the election (O(n) rounds) and the ring to merge tokens.
        scheduler.run(max_steps=2500)
        assert len(algo.token_holders(scheduler.configuration)) == 1
        assert algo.election.is_legitimate(scheduler.configuration)

    def test_token_circulates_after_stabilization(self):
        h = path_of_committees(3)
        algo = ComposedTokenCirculation(h)
        scheduler = Scheduler(algo, daemon=default_daemon(seed=6))
        holders = set()
        for _ in range(200):
            if scheduler.step() is None:
                break
            holders |= set(algo.token_holders(scheduler.configuration))
        assert holders == set(h.vertices)


class TestTokenModuleDiagnostics:
    def test_token_holders_and_is_stabilized(self):
        module = DijkstraRingToken([1, 2, 3])
        algo = DijkstraRingAlgorithm(module)
        cfg = algo.initial_configuration()
        assert module.token_holders(cfg.states_view(), "") == (module.root,)
        assert module.is_stabilized(cfg.states_view(), "")


#: A row without the counter at all.
_MISSING = object()


def _rows(pids, values, prefix, extra=None):
    """One row per process: ``prefix + c`` set to its value (absent for
    ``_MISSING``), plus one unrelated variable."""
    rows = {}
    for pid, value in zip(pids, values):
        row = {"S": "looking"} if extra is None else dict(extra(pid))
        if value is not _MISSING:
            row[prefix + COUNTER] = value
        rows[pid] = row
    return rows


class TestTokenRows:
    """``Token(p)`` and ``ReleaseToken_p`` over rows give what the reader
    callables gave, a missing or ``None`` counter reading as 0."""

    MODULES = {
        "ring": lambda: DijkstraRingToken([1, 2, 3, 4]),
        "oracle": lambda: OracleTokenModule([1, 2, 3, 4]),
        "tree": lambda: TreeTokenCirculation(path_of_committees(3)),
    }

    @staticmethod
    def _reader_token(module, read, pid):
        own, pred = read(pid, COUNTER), read(module.predecessor(pid), COUNTER)
        own = 0 if own is None else own
        pred = 0 if pred is None else pred
        return own == pred if pid == module.root else own != pred

    @staticmethod
    def _reader_release(module, read, pid):
        if pid == module.root:
            own = read(pid, COUNTER)
            return ((0 if own is None else own) + 1) % module.k
        pred = read(module.predecessor(pid), COUNTER)
        return 0 if pred is None else pred

    @pytest.mark.parametrize("prefix", ("", "tc_"))
    @pytest.mark.parametrize("name", sorted(MODULES))
    def test_rows_agree_with_reader_semantics(self, name, prefix):
        module = self.MODULES[name]()
        pids = module.process_ids()
        held = set()
        for values in itertools.product((_MISSING, None, 0, 1, 3), repeat=len(pids)):
            states = _rows(pids, values, prefix)
            read = read_of(states, prefix)
            expected = tuple(p for p in pids if self._reader_token(module, read, p))
            assert module.token_holders(states, prefix) == expected
            assert module.is_stabilized(states, prefix) == (len(expected) == 1)
            for pid in pids:
                assert module.holds_token(states, prefix, pid) == (pid in expected)
                ctx = ActionContext(pid, Configuration(states), Environment())
                module.release_token(ctx, prefix)
                assert ctx.writes == {prefix + COUNTER: self._reader_release(module, read, pid)}
            held.add(len(expected))
        assert {1, 2, 3} <= held  # a K-state ring never has 0 tokens

    def test_composed_circulation_agrees_with_reader_semantics(self):
        algo = ComposedTokenCirculation(path_of_committees(2))
        pids = algo.process_ids()
        for leaders in itertools.product((1, 3), repeat=len(pids)):
            for values in itertools.product((_MISSING, None, 0, 2), repeat=len(pids)):
                states = _rows(pids, values, "", extra=lambda pid: {"lid": leaders[pid - 1]})
                read = read_of(states, "")
                for pid in pids:
                    own = read(pid, COUNTER) or 0
                    pred = read(algo._pred[pid], COUNTER) or 0
                    expected = own == pred if read(pid, "lid") == pid else own != pred
                    assert algo.holds_token(states, pid) == expected


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=500))
def test_property_dijkstra_ring_never_has_zero_tokens(n, seed):
    module = DijkstraRingToken(list(range(1, n + 1)))
    algo = DijkstraRingAlgorithm(module)
    cfg = algo.arbitrary_configuration(random.Random(seed))
    assert len(algo.token_holders_in(cfg)) >= 1


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=2, max_value=6), seed=st.integers(min_value=0, max_value=200))
def test_property_dijkstra_ring_stabilizes(n, seed):
    module = DijkstraRingToken(list(range(1, n + 1)))
    algo = DijkstraRingAlgorithm(module)
    scheduler = Scheduler(
        algo,
        daemon=default_daemon(seed=seed),
        initial_configuration=algo.arbitrary_configuration(random.Random(seed)),
    )
    scheduler.run(max_steps=60 * n * n)
    assert len(algo.token_holders_in(scheduler.configuration)) == 1
