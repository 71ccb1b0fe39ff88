"""Tests for topology generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hypergraph.generators import (
    complete_hypergraph,
    cycle_of_committees,
    disjoint_committees,
    figure1_hypergraph,
    figure2_hypergraph,
    figure3_hypergraph,
    figure4_hypergraph,
    grid_of_committees,
    path_of_committees,
    random_k_uniform_hypergraph,
    star_hypergraph,
)


class TestPaperFigures:
    def test_figure1_shape(self):
        h = figure1_hypergraph()
        assert h.n == 6 and h.m == 5
        assert h.is_connected()

    def test_figure2_shape(self):
        h = figure2_hypergraph()
        assert h.n == 5 and h.m == 3
        assert {tuple(e.members) for e in h.hyperedges} == {(1, 2), (1, 3, 5), (3, 4)}

    def test_figure3_shape(self):
        h = figure3_hypergraph()
        assert h.n == 10
        assert h.is_connected()
        # The committees the worked example revolves around are present.
        members = {tuple(e.members) for e in h.hyperedges}
        for committee in [(1, 2, 3), (9, 10), (5, 6), (7, 8), (6, 7), (6, 9), (8, 9)]:
            assert committee in members

    def test_figure4_shape(self):
        h = figure4_hypergraph()
        assert h.n == 9
        members = {tuple(e.members) for e in h.hyperedges}
        assert (1, 2, 5, 8) in members
        assert (3, 4, 5) in members
        assert (6, 7, 9) in members
        assert (8, 9) in members
        assert h.is_connected()


class TestFamilies:
    def test_path_of_committees_chain_structure(self):
        h = path_of_committees(4)
        assert h.m == 4
        assert h.is_connected()
        # Consecutive committees share exactly one professor.
        edges = sorted(h.hyperedges, key=lambda e: e.members)
        for a, b in zip(edges, edges[1:]):
            assert len(set(a.members) & set(b.members)) <= 1

    def test_path_committee_size(self):
        h = path_of_committees(3, committee_size=3)
        assert all(e.size == 3 for e in h.hyperedges)

    def test_path_invalid_args(self):
        with pytest.raises(ValueError):
            path_of_committees(0)
        with pytest.raises(ValueError):
            path_of_committees(3, committee_size=1)

    def test_cycle_of_committees(self):
        h = cycle_of_committees(4)
        assert h.m == 4
        assert h.is_connected()
        # In a cycle every professor belongs to at most two committees and at
        # least one.
        assert all(1 <= h.degree(p) <= 2 for p in h.vertices)

    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            cycle_of_committees(2)

    def test_star_all_committees_share_center(self):
        h = star_hypergraph(4, 3)
        assert h.m == 4
        assert all(1 in e for e in h.hyperedges)

    def test_complete_hypergraph_pairs(self):
        h = complete_hypergraph(4, 2)
        assert h.m == 6

    def test_complete_invalid(self):
        with pytest.raises(ValueError):
            complete_hypergraph(3, 5)

    def test_disjoint_committees(self):
        h = disjoint_committees(3, 2)
        assert h.m == 3
        for a in h.hyperedges:
            for b in h.hyperedges:
                if a != b:
                    assert not a.intersects(b)

    def test_grid_of_committees(self):
        h = grid_of_committees(2, 3)
        assert h.n == 6
        # 2x3 grid has 2*2 + 1*3 = 7 dominoes.
        assert h.m == 7
        assert h.is_connected()

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            grid_of_committees(1, 1)


class TestRandomHypergraphs:
    def test_random_is_reproducible(self):
        a = random_k_uniform_hypergraph(8, 6, 3, seed=5)
        b = random_k_uniform_hypergraph(8, 6, 3, seed=5)
        assert a == b

    def test_random_counts(self):
        h = random_k_uniform_hypergraph(8, 6, 3, seed=5)
        assert h.n == 8
        assert h.m >= 6
        assert all(e.size == 3 for e in h.hyperedges[:6])

    def test_random_connected(self):
        h = random_k_uniform_hypergraph(10, 7, 2, seed=11)
        assert h.is_connected()

    def test_every_professor_in_a_committee(self):
        h = random_k_uniform_hypergraph(9, 6, 3, seed=3)
        for p in h.vertices:
            assert h.degree(p) >= 1

    def test_too_many_committees_rejected(self):
        with pytest.raises(ValueError):
            random_k_uniform_hypergraph(4, 100, 2, seed=1)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            random_k_uniform_hypergraph(4, 2, 1, seed=1)

    #: ``(n, m, k, seed) -> committees`` of ``random_k_uniform_hypergraph``,
    #: captured while every rejected candidate was still built as a full
    #: ``Hypergraph`` for its connectivity test.  Accepted candidates and the
    #: bridging fallback (more than ``m`` committees) both appear.
    PINNED = {
        (6, 4, 2, 0): ((1, 2), (1, 3), (1, 6), (3, 5), (4, 6)),
        (6, 4, 2, 1): ((1, 2), (1, 6), (2, 4), (3, 5), (4, 5)),
        (9, 5, 2, 1): ((1, 2), (1, 3), (1, 6), (1, 8), (2, 5), (3, 4), (3, 7), (8, 9)),
        (10, 8, 3, 7): (
            (1, 3, 4), (1, 5, 8), (1, 7, 10), (2, 4, 9), (2, 5, 9), (3, 5, 7), (3, 6, 9),
            (3, 7, 10),
        ),
        (12, 4, 3, 3): (
            (1, 2, 12), (1, 3, 6), (1, 4, 7), (1, 5, 12), (2, 6, 7), (3, 10, 11), (4, 8, 9),
        ),
        (12, 12, 3, 5): (
            (1, 4, 12), (1, 5, 6), (1, 7, 9), (2, 4, 8), (3, 4, 7), (3, 4, 11), (3, 8, 11),
            (3, 10, 11), (3, 11, 12), (4, 5, 6), (4, 9, 11), (5, 6, 10),
        ),
        (7, 7, 2, 11): ((1, 2), (1, 6), (2, 4), (3, 6), (4, 5), (5, 6), (5, 7)),
        (11, 6, 2, 42): (
            (1, 2), (1, 3), (1, 5), (1, 7), (1, 8), (2, 10), (3, 4), (4, 6), (5, 9), (8, 11),
        ),
    }

    @pytest.mark.parametrize("n,m,k,seed", sorted(PINNED))
    def test_random_output_is_pinned(self, n, m, k, seed):
        h = random_k_uniform_hypergraph(n, m, committee_size=k, seed=seed)
        assert tuple(tuple(e) for e in h.hyperedges) == self.PINNED[n, m, k, seed]
        assert h.is_connected()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=10),
    m=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_random_hypergraph_well_formed(n, m, k, seed):
    from hypothesis import assume
    from math import comb

    assume(m <= comb(n, k))          # enough distinct committees exist
    assume(m * k >= n)               # every professor can be covered
    h = random_k_uniform_hypergraph(n, m, k, seed=seed)
    assert h.n == n
    assert h.m >= m
    for p in h.vertices:
        assert h.degree(p) >= 1
    assert h.is_connected()
