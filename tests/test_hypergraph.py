"""Unit tests for the hypergraph model (Section 2.1)."""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from repro.core.runner import CommitteeCoordinator
from repro.core.states import POINTER
from repro.hypergraph.generators import figure1_communication_edges, figure1_hypergraph
from repro.hypergraph.hypergraph import Hyperedge, Hypergraph
from repro.kernel.batched import numpy_available
from repro.kernel.faults import FaultInjector
from repro.workloads.request_models import AlwaysRequestingEnvironment


class TestHyperedge:
    def test_members_are_sorted_and_deduplicated(self):
        edge = Hyperedge([3, 1, 2, 1])
        assert edge.members == (1, 2, 3)

    def test_size(self):
        assert Hyperedge([4, 7]).size == 2

    def test_contains(self):
        edge = Hyperedge([1, 2, 3])
        assert 2 in edge
        assert 9 not in edge

    def test_iteration_order(self):
        assert list(Hyperedge([5, 2, 9])) == [2, 5, 9]

    def test_equality_and_hash(self):
        assert Hyperedge([1, 2]) == Hyperedge([2, 1])
        assert hash(Hyperedge([1, 2])) == hash(Hyperedge([2, 1]))
        # An edge is the tuple of its members.
        assert isinstance(Hyperedge([2, 1]), tuple)
        assert Hyperedge([2, 1]) == (1, 2)
        assert hash(Hyperedge([2, 1])) == hash((1, 2))

    def test_ordering_is_deterministic(self):
        assert sorted([Hyperedge([2, 3]), Hyperedge([1, 5])])[0] == Hyperedge([1, 5])

    def test_intersects(self):
        assert Hyperedge([1, 2]).intersects(Hyperedge([2, 3]))
        assert not Hyperedge([1, 2]).intersects(Hyperedge([3, 4]))

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            Hyperedge([])

    def test_as_set(self):
        assert Hyperedge([1, 2]).as_set() == frozenset({1, 2})

    def test_comparisons_and_hash_are_the_tuple_slots(self):
        # A Python-level comparison would cost one frame per pointer test in
        # every guard; the edge must keep the tuple's own slots.
        for name in ("__eq__", "__ne__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(Hyperedge, name) is getattr(tuple, name), name
        assert Hyperedge.__slots__ == ()

    def test_pickle_and_copy_round_trip(self):
        edge = Hyperedge([4, 2, 9])
        for clone in (pickle.loads(pickle.dumps(edge)), copy.copy(edge), copy.deepcopy(edge)):
            assert type(clone) is Hyperedge
            assert clone == edge
            assert clone.members == (2, 4, 9)

    def test_members_is_a_plain_tuple_and_repr_is_unchanged(self):
        edge = Hyperedge([2, 1])
        assert type(edge.members) is tuple
        assert edge.members == (1, 2)
        assert repr(edge) == "Hyperedge({1, 2})"

    def test_every_pointer_producer_hands_out_the_hypergraph_edges(self):
        algo = CommitteeCoordinator(figure1_hypergraph(), algorithm="cc2", token="ring", seed=3).algorithm
        hypergraph = algo.hypergraph
        pids = algo.process_ids()
        produced = {"incident_edges": [], "arbitrary_state": [], "corrupt": []}
        for pid in pids:
            produced["incident_edges"].extend((pid, edge) for edge in hypergraph.incident_edges(pid))
        rng = random.Random(7)
        for _ in range(20):
            for pid in pids:
                produced["arbitrary_state"].append((pid, algo.arbitrary_state(pid, rng)[POINTER]))
        injector = FaultInjector(algo, fraction=1.0, seed=7)
        configurations = [injector.corrupt(algo.initial_configuration()) for _ in range(8)]
        for configuration in configurations:
            produced["corrupt"].extend((pid, configuration.get(pid, POINTER)) for pid in pids)
        if numpy_available():  # lane rows need the repro-cc[batched] extra
            from repro.core.batched_program import compile_program

            program = compile_program(algo, AlwaysRequestingEnvironment(1))
            state = program.encode(configurations)
            for lane, configuration in enumerate(configurations):
                rows = program.lane_view(state, lane).states_view()
                for pid in pids:
                    assert rows[pid][POINTER] == configuration.get(pid, POINTER)
                    produced.setdefault("lane row", []).append((pid, rows[pid][POINTER]))
        for producer, values in produced.items():
            edges = [(pid, value) for pid, value in values if value is not None]
            assert edges, producer
            for pid, value in edges:
                assert type(value) is Hyperedge, (producer, value)
                assert value in hypergraph.hyperedges, (producer, value)
                assert value in hypergraph.incident_edges(pid), (producer, pid, value)


class TestHypergraphBasics:
    def test_vertices_sorted(self):
        h = Hypergraph([3, 1, 2], [[1, 2]])
        assert h.vertices == (1, 2, 3)

    def test_n_and_m(self):
        h = figure1_hypergraph()
        assert h.n == 6
        assert h.m == 5

    def test_duplicate_edges_collapsed(self):
        h = Hypergraph([1, 2, 3], [[1, 2], [2, 1], [2, 3]])
        assert h.m == 2

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph([1, 2], [[1, 3]])

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph([], [])

    def test_contains_vertex_and_edge(self):
        h = Hypergraph([1, 2, 3], [[1, 2]])
        assert 1 in h
        assert Hyperedge([1, 2]) in h
        assert Hyperedge([2, 3]) not in h

    def test_equality_and_hash(self):
        a = Hypergraph([1, 2], [[1, 2]])
        b = Hypergraph([2, 1], [[2, 1]])
        assert a == b
        assert hash(a) == hash(b)

    def test_to_from_dict_roundtrip(self):
        h = figure1_hypergraph()
        assert Hypergraph.from_dict(h.to_dict()) == h


class TestIncidenceAndNeighbours:
    def test_incident_edges_of_figure1(self):
        h = figure1_hypergraph()
        incident = {tuple(e.members) for e in h.incident_edges(2)}
        assert incident == {(1, 2), (1, 2, 3, 4), (2, 4, 5)}

    def test_neighbors_of_figure1_vertex4(self):
        h = figure1_hypergraph()
        assert h.neighbors(4) == (1, 2, 3, 5, 6)

    def test_degree(self):
        h = figure1_hypergraph()
        assert h.degree(6) == 2
        assert h.degree(5) == 1

    def test_min_incident_size(self):
        h = figure1_hypergraph()
        assert h.min_incident_size(1) == 2   # {1,2}
        assert h.min_incident_size(5) == 3   # only {2,4,5}

    def test_min_incident_edges(self):
        h = figure1_hypergraph()
        assert {tuple(e.members) for e in h.min_incident_edges(4)} == {(4, 6)}

    def test_min_incident_size_of_isolated_vertex_raises(self):
        h = Hypergraph([1, 2, 3], [[1, 2]])
        with pytest.raises(ValueError):
            h.min_incident_size(3)

    def test_conflicting(self):
        h = figure1_hypergraph()
        a = Hyperedge([1, 2])
        b = Hyperedge([2, 4, 5])
        c = Hyperedge([3, 6])
        assert h.conflicting(a, b)
        assert not h.conflicting(a, c)


class TestCommunicationNetwork:
    def test_figure1_underlying_network_matches_paper(self):
        """The paper lists the exact edge set of G_H in Figure 1(b)."""
        h = figure1_hypergraph()
        assert h.communication_edges() == tuple(sorted(figure1_communication_edges()))

    def test_adjacency_is_symmetric(self):
        h = figure1_hypergraph()
        adjacency = h.communication_adjacency()
        for v, neighbours in adjacency.items():
            for u in neighbours:
                assert v in adjacency[u]

    def test_connectedness_of_paper_topologies(self):
        assert figure1_hypergraph().is_connected()

    def test_disconnected_hypergraph(self):
        h = Hypergraph([1, 2, 3, 4], [[1, 2], [3, 4]])
        assert not h.is_connected()
        assert h.connected_components() == [(1, 2), (3, 4)]

    def test_single_vertex_is_connected(self):
        assert Hypergraph([1], [[1]]).is_connected()


class TestDerivedStructure:
    def test_induced_subhypergraph_drops_touched_edges(self):
        h = figure1_hypergraph()
        sub = h.induced_subhypergraph([2])
        assert 2 not in sub.vertices
        # Every committee containing professor 2 is gone.
        assert {tuple(e.members) for e in sub.hyperedges} == {(3, 6), (4, 6)}

    def test_induced_subhypergraph_empty_rejected(self):
        h = Hypergraph([1, 2], [[1, 2]])
        with pytest.raises(ValueError):
            h.induced_subhypergraph([1, 2])

    def test_bfs_spanning_tree_covers_component(self):
        h = figure1_hypergraph()
        parent = h.bfs_spanning_tree(6)
        assert set(parent) == set(h.vertices)
        assert parent[6] == 6
        # Every non-root's parent is a communication neighbour.
        for child, par in parent.items():
            if child != par:
                assert par in h.neighbors(child)

    def test_bfs_spanning_tree_unknown_root(self):
        h = figure1_hypergraph()
        with pytest.raises(ValueError):
            h.bfs_spanning_tree(99)
