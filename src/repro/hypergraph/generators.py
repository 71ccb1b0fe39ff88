"""Topology generators.

Two kinds of generators live here:

* the exact hypergraphs shown in the paper's figures (used by the trace
  benchmarks and by the examples), and
* parametric families (paths, cycles, stars, complete hypergraphs, random
  k-uniform hypergraphs) used by the test suite and the scaling benchmarks.

All generators return :class:`~repro.hypergraph.hypergraph.Hypergraph`
instances with connected underlying communication networks unless stated
otherwise.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hyperedge, Hypergraph


# --------------------------------------------------------------------------- #
# Paper figures
# --------------------------------------------------------------------------- #
def figure1_hypergraph() -> Hypergraph:
    """The example of Figure 1(a).

    ``V = {1..6}`` and
    ``E = {{1,2}, {1,2,3,4}, {2,4,5}, {3,6}, {4,6}}``.
    """
    return Hypergraph(
        range(1, 7),
        [[1, 2], [1, 2, 3, 4], [2, 4, 5], [3, 6], [4, 6]],
    )


def figure1_communication_edges() -> Tuple[Tuple[int, int], ...]:
    """The underlying communication network of Figure 1(b), as stated in the paper."""
    return (
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
        (2, 5), (3, 4), (3, 6), (4, 5), (4, 6),
    )


def figure2_hypergraph() -> Hypergraph:
    """The impossibility witness of Theorem 1 / Figure 2.

    ``V = {1..5}`` and ``E = {{1,2}, {1,3,5}, {3,4}}``.  Professor 5 is the
    one that can be starved when Maximal Concurrency is enforced.
    """
    return Hypergraph(range(1, 6), [[1, 2], [1, 3, 5], [3, 4]])


def figure3_hypergraph() -> Hypergraph:
    """The 10-professor hypergraph used in the worked example of Figure 3.

    The figure shows professors 1..10 arranged in a ring of two-member
    committees plus the three-member committee ``{1, 2, 3}``:
    meetings ``{9,10}`` and ``{1,2,3}`` are in progress initially, professors
    5 and 6 wait on committee ``{5,6}``, 7 and 8 on ``{7,8}``, and committees
    ``{6,9}``, ``{6,7}``, ``{8,9}``, ``{4,5}``, ``{3,4}``, ``{1,10}`` link the
    ring together.
    """
    return Hypergraph(
        range(1, 11),
        [
            [1, 2, 3],
            [1, 10],
            [3, 4],
            [4, 5],
            [5, 6],
            [6, 7],
            [6, 9],
            [7, 8],
            [8, 9],
            [9, 10],
        ],
    )


def figure4_hypergraph() -> Hypergraph:
    """The 9-professor hypergraph of Figure 4 (the `locked` example of CC2).

    Committees: ``{1,2,5,8}`` (the committee the token holder 1 selects --
    it is professor 1's only, hence smallest, incident committee, as in the
    figure), ``{3,4,5}`` (currently meeting), ``{8,9}`` (higher id-priority
    for professor 9 but blocked because professor 8 is locked) and
    ``{6,7,9}`` (the committee that can still convene thanks to the lock
    bit, improving concurrency).
    """
    return Hypergraph(
        range(1, 10),
        [
            [1, 2, 5, 8],
            [3, 4, 5],
            [8, 9],
            [6, 7, 9],
        ],
    )


# --------------------------------------------------------------------------- #
# Parametric families
# --------------------------------------------------------------------------- #
def path_of_committees(num_committees: int, committee_size: int = 2) -> Hypergraph:
    """A path of committees sharing one professor between consecutive committees.

    With ``committee_size = 2`` this is a simple path graph; larger sizes give
    a "caterpillar" of overlapping committees.  ``minMM`` of a path of ``k``
    2-committees is ``ceil(k / 3)`` which makes this family handy for
    exercising the Theorem 5 bound.
    """
    edges = _path_edges(num_committees, committee_size)
    return Hypergraph(range(1, edges[-1][-1] + 1), edges)


def _path_edges(num_committees: int, committee_size: int) -> List[List[int]]:
    """The committees of :func:`path_of_committees`, over ids ``1..n``."""
    if num_committees < 1:
        raise ValueError("need at least one committee")
    if committee_size < 2:
        raise ValueError("committees need at least two members")
    edges: List[List[int]] = []
    next_vertex = 1
    prev_last: Optional[int] = None
    for _ in range(num_committees):
        members: List[int] = []
        if prev_last is not None:
            members.append(prev_last)
        while len(members) < committee_size:
            members.append(next_vertex)
            next_vertex += 1
        prev_last = members[-1]
        edges.append(members)
    return edges


def cycle_of_committees(num_committees: int, committee_size: int = 2) -> Hypergraph:
    """A cycle of committees: like :func:`path_of_committees` but wrapped around."""
    if num_committees < 3:
        raise ValueError("a cycle needs at least three committees")
    edges = _path_edges(num_committees - 1, committee_size)
    first_vertex = 1
    last_vertex = edges[-1][-1]
    vertices = list(range(1, last_vertex + 1))
    closing = [last_vertex, first_vertex]
    while len(closing) < committee_size:
        new_vertex = max(vertices) + 1
        vertices.append(new_vertex)
        closing.append(new_vertex)
    edges.append(closing)
    return Hypergraph(vertices, edges)


def star_hypergraph(num_committees: int, committee_size: int = 2) -> Hypergraph:
    """A star: one central professor belongs to every committee.

    All committees conflict pairwise, so at most one meeting can ever be held
    at a time -- the paper notes this is a topology where Maximal Concurrency
    and Professor Fairness are simultaneously achievable.
    """
    if num_committees < 1:
        raise ValueError("need at least one committee")
    if committee_size < 2:
        raise ValueError("committees need at least two members")
    center = 1
    edges: List[List[int]] = []
    next_vertex = 2
    for _ in range(num_committees):
        members = [center]
        for _ in range(committee_size - 1):
            members.append(next_vertex)
            next_vertex += 1
        edges.append(members)
    return Hypergraph(range(1, next_vertex), edges)


def complete_hypergraph(num_professors: int, committee_size: int = 2) -> Hypergraph:
    """All committees of a fixed size over ``num_professors`` professors."""
    if committee_size < 2 or committee_size > num_professors:
        raise ValueError("invalid committee size")
    vertices = list(range(1, num_professors + 1))
    edges = [list(c) for c in itertools.combinations(vertices, committee_size)]
    return Hypergraph(vertices, edges)


def disjoint_committees(num_committees: int, committee_size: int = 2) -> Hypergraph:
    """Pairwise-disjoint committees (no conflicts at all).

    The underlying communication network is disconnected; useful for testing
    the maximal-concurrency checker (every committee can always meet).
    """
    if num_committees < 1:
        raise ValueError("need at least one committee")
    edges: List[List[int]] = []
    next_vertex = 1
    for _ in range(num_committees):
        members = list(range(next_vertex, next_vertex + committee_size))
        next_vertex += committee_size
        edges.append(members)
    return Hypergraph(range(1, next_vertex), edges)


def random_k_uniform_hypergraph(
    num_professors: int,
    num_committees: int,
    committee_size: int = 2,
    seed: Optional[int] = None,
    ensure_connected: bool = True,
    max_attempts: int = 200,
) -> Hypergraph:
    """A random hypergraph with ``num_committees`` distinct size-``k`` committees.

    Every professor is guaranteed to belong to at least one committee.  With
    ``ensure_connected`` the construction retries (then falls back to chaining
    committees together) until the underlying communication network is
    connected, which the paper assumes throughout.
    """
    if committee_size < 2 or committee_size > num_professors:
        raise ValueError("invalid committee size")
    max_possible = 1
    for i in range(committee_size):
        max_possible = max_possible * (num_professors - i) // (i + 1)
    if num_committees > max_possible:
        raise ValueError("too many committees requested for this size")
    if num_committees * committee_size < num_professors:
        raise ValueError(
            "cannot cover every professor: num_committees * committee_size < num_professors"
        )

    rng = random.Random(seed)
    vertices = list(range(1, num_professors + 1))

    def build_candidate() -> set:
        chosen: set = set()
        # First cover every professor so none is isolated: anchor each new
        # committee at an uncovered professor and prefer uncovered partners.
        uncovered = list(vertices)
        rng.shuffle(uncovered)
        while uncovered and len(chosen) < num_committees:
            anchor = uncovered[0]
            pool = [v for v in uncovered if v != anchor]
            rest = [v for v in vertices if v != anchor and v not in pool]
            rng.shuffle(rest)
            partners = pool[: committee_size - 1]
            partners += rest[: committee_size - 1 - len(partners)]
            committee = tuple(sorted([anchor] + partners))
            chosen.add(committee)
            uncovered = [v for v in uncovered if v not in committee]
        # Fill the remaining committees at random.
        attempts = 0
        while len(chosen) < num_committees and attempts < 50 * num_committees:
            committee = tuple(sorted(rng.sample(vertices, committee_size)))
            chosen.add(committee)
            attempts += 1
        return chosen

    def connects_everyone(committees: set) -> bool:
        """``G_H`` of ``committees`` is connected: union-find over the members."""
        parent = {v: v for v in vertices}

        def root(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        components = len(vertices)
        for committee in committees:
            first = root(committee[0])
            for member in committee[1:]:
                other = root(member)
                if other != first:
                    parent[other] = first
                    components -= 1
        return components == 1

    # Only the accepted candidate becomes a Hypergraph; a rejected one costs
    # one union-find pass.
    chosen: set = set()
    for _ in range(max_attempts):
        chosen = build_candidate()
        if len(chosen) != num_committees:
            continue
        if not ensure_connected or connects_everyone(chosen):
            return Hypergraph(vertices, [list(c) for c in chosen])

    # Fallback: bridge the connected components with extra committees so the
    # underlying communication network becomes connected.
    if not chosen:
        chosen = build_candidate()
    hypergraph = Hypergraph(vertices, [list(c) for c in chosen])
    extra: List[List[int]] = [list(c) for c in chosen]
    while ensure_connected:
        components = hypergraph.connected_components()
        if len(components) <= 1:
            break
        first, second = components[0], components[1]
        pool = list(first) + list(second)
        bridge = sorted({first[0], second[0]} | set(rng.sample(pool, min(len(pool), committee_size))))
        bridge = bridge[: max(committee_size, 2)]
        if first[0] not in bridge:
            bridge[0] = first[0]
        if second[0] not in bridge:
            bridge[-1] = second[0]
        extra.append(sorted(set(bridge)))
        hypergraph = Hypergraph(vertices, extra)
    return hypergraph


def grid_of_committees(rows: int, cols: int) -> Hypergraph:
    """Professors on a grid; committees are the horizontal and vertical dominoes.

    A structured mid-size family with plenty of non-conflicting committees,
    used by the concurrency-comparison benchmark.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")

    def vid(r: int, c: int) -> int:
        return r * cols + c + 1

    vertices = [vid(r, c) for r in range(rows) for c in range(cols)]
    edges: List[List[int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append([vid(r, c), vid(r, c + 1)])
            if r + 1 < rows:
                edges.append([vid(r, c), vid(r + 1, c)])
    if not edges:
        raise ValueError("grid too small to contain a committee")
    return Hypergraph(vertices, edges)
