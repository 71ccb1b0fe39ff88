"""The hypergraph model of Section 2.1.

A distributed system is a simple self-loopless hypergraph ``H = (V, E)``
where vertices are processes (professors) and hyperedges are synchronization
events (committees).  Two processes can communicate directly if and only if
they share a hyperedge; this induces the *underlying communication network*
``G_H`` (an undirected simple graph).

The classes here are deliberately immutable: a :class:`Hypergraph` is the
static topology input to every algorithm in the library, and sharing one
instance across the simulator, the spec checkers and the analysis code must
be safe.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

ProcessId = int


class Hyperedge(tuple):
    """A committee: the sorted tuple of its distinct professor ids.

    An edge *is* its canonical member tuple, so equality, ordering, hashing,
    ``len``, iteration and ``in`` are the tuple's own C implementations: the
    test of an edge pointer ``P_q = ε`` in a guard costs no Python frame.
    Edges are the values of the edge pointer variable ``P_p`` in the
    algorithms and dictionary keys in the spec checkers.  An edge equals the
    plain tuple of its members and hashes like it.
    """

    __slots__ = ()

    def __new__(cls, members: Iterable[ProcessId]) -> "Hyperedge":
        ordered = sorted(set(int(m) for m in members))
        if not ordered:
            raise ValueError("a committee must have at least one member")
        return super().__new__(cls, ordered)

    @property
    def members(self) -> Tuple[ProcessId, ...]:
        """The member ids in increasing order, as a plain tuple."""
        return tuple(self)

    @property
    def size(self) -> int:
        """Number of professors in the committee (``|ε|`` in the paper)."""
        return len(self)

    def as_set(self) -> FrozenSet[ProcessId]:
        return frozenset(self)

    def intersects(self, other: "Hyperedge") -> bool:
        """``True`` iff the two committees are *conflicting* (share a member)."""
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        return not set(large).isdisjoint(small)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Hyperedge({%s})" % ", ".join(str(m) for m in self)


class Hypergraph:
    """A simple, self-loopless hypergraph ``H = (V, E)``.

    Parameters
    ----------
    vertices:
        Iterable of process identifiers.  Identifiers must be distinct
        integers; they double as the unique, totally-ordered process ids the
        algorithms rely on.
    hyperedges:
        Iterable of committees.  Each committee is an iterable of vertex ids
        (or a :class:`Hyperedge`).  Duplicate committees are collapsed.

    Notes
    -----
    The paper assumes every committee has at least two members (footnote 1);
    singleton committees are accepted here (they are trivially conflict-free)
    but generators never produce them by default.
    """

    def __init__(
        self,
        vertices: Iterable[ProcessId],
        hyperedges: Iterable[Iterable[ProcessId]],
    ) -> None:
        self._vertices: Tuple[ProcessId, ...] = tuple(sorted(set(int(v) for v in vertices)))
        if len(self._vertices) == 0:
            raise ValueError("a hypergraph needs at least one vertex")
        vertex_set = set(self._vertices)

        edges: List[Hyperedge] = []
        seen: Set[Hyperedge] = set()
        for raw in hyperedges:
            edge = raw if isinstance(raw, Hyperedge) else Hyperedge(raw)
            missing = [m for m in edge if m not in vertex_set]
            if missing:
                raise ValueError(
                    f"hyperedge {edge!r} references unknown vertices {missing}"
                )
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
        self._edges: Tuple[Hyperedge, ...] = tuple(sorted(edges))

        incident: Dict[ProcessId, List[Hyperedge]] = {v: [] for v in self._vertices}
        for edge in self._edges:
            for member in edge:
                incident[member].append(edge)
        self._incident: Dict[ProcessId, Tuple[Hyperedge, ...]] = {
            v: tuple(es) for v, es in incident.items()
        }

        neighbors: Dict[ProcessId, Set[ProcessId]] = {v: set() for v in self._vertices}
        for edge in self._edges:
            for member in edge:
                for other in edge:
                    if other != member:
                        neighbors[member].add(other)
        self._neighbors: Dict[ProcessId, Tuple[ProcessId, ...]] = {
            v: tuple(sorted(ns)) for v, ns in neighbors.items()
        }

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def vertices(self) -> Tuple[ProcessId, ...]:
        """All process identifiers, in increasing order."""
        return self._vertices

    @property
    def hyperedges(self) -> Tuple[Hyperedge, ...]:
        """All committees, canonically ordered."""
        return self._edges

    @property
    def n(self) -> int:
        """Number of processes (``n`` in the paper)."""
        return len(self._vertices)

    @property
    def m(self) -> int:
        """Number of committees."""
        return len(self._edges)

    def incident_edges(self, process: ProcessId) -> Tuple[Hyperedge, ...]:
        """``E_p``: committees that professor ``process`` is a member of."""
        return self._incident[process]

    def neighbors(self, process: ProcessId) -> Tuple[ProcessId, ...]:
        """``N(p)``: processes sharing at least one committee with ``process``."""
        return self._neighbors[process]

    def degree(self, process: ProcessId) -> int:
        """Number of committees incident to ``process``."""
        return len(self._incident[process])

    def min_incident_size(self, process: ProcessId) -> int:
        """``minE_p``: minimum size of a committee incident to ``process``."""
        edges = self._incident[process]
        if not edges:
            raise ValueError(f"process {process} belongs to no committee")
        return min(e.size for e in edges)

    def min_incident_edges(self, process: ProcessId) -> Tuple[Hyperedge, ...]:
        """``E^min_p``: committees incident to ``process`` of minimum size."""
        edges = self._incident[process]
        if not edges:
            return ()
        best = min(e.size for e in edges)
        return tuple(e for e in edges if e.size == best)

    def conflicting(self, a: Hyperedge, b: Hyperedge) -> bool:
        """``True`` iff committees ``a`` and ``b`` share a member."""
        return a.intersects(b)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Hyperedge):
            return item in self._edges
        return item in set(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Hypergraph(n={self.n}, m={self.m})"

    # ------------------------------------------------------------------ #
    # derived structure
    # ------------------------------------------------------------------ #
    def communication_edges(self) -> Tuple[Tuple[ProcessId, ProcessId], ...]:
        """Edges of the underlying communication network ``G_H`` (Section 2.1).

        Two processes are linked iff they are neighbours, i.e. incident to a
        common hyperedge.  Each undirected edge ``{u, v}`` is reported once as
        a pair ``(u, v)`` with ``u < v``.
        """
        edges: Set[Tuple[ProcessId, ProcessId]] = set()
        for v in self._vertices:
            for u in self._neighbors[v]:
                edges.add((min(u, v), max(u, v)))
        return tuple(sorted(edges))

    def communication_adjacency(self) -> Dict[ProcessId, Tuple[ProcessId, ...]]:
        """Adjacency map of ``G_H`` (same as :meth:`neighbors`, full map)."""
        return dict(self._neighbors)

    def is_connected(self) -> bool:
        """``True`` iff the underlying communication network ``G_H`` is connected."""
        if self.n <= 1:
            return True
        seen: Set[ProcessId] = set()
        stack = [self._vertices[0]]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(u for u in self._neighbors[v] if u not in seen)
        return len(seen) == self.n

    def connected_components(self) -> List[Tuple[ProcessId, ...]]:
        """Connected components of ``G_H`` as sorted vertex tuples."""
        remaining = set(self._vertices)
        components: List[Tuple[ProcessId, ...]] = []
        while remaining:
            start = min(remaining)
            seen: Set[ProcessId] = set()
            stack = [start]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(u for u in self._neighbors[v] if u not in seen)
            components.append(tuple(sorted(seen)))
            remaining -= seen
        return components

    def induced_subhypergraph(self, removed: Iterable[ProcessId]) -> "Hypergraph":
        """``H_Y``: the subhypergraph induced by ``V \\ removed`` (Section 5.3).

        Hyperedges that lose at least one member are dropped entirely (a
        committee cannot meet without all of its members), matching the
        paper's use of ``H_X`` inside ``Almost(ε, X)``.
        """
        removed_set = set(removed)
        kept_vertices = [v for v in self._vertices if v not in removed_set]
        if not kept_vertices:
            raise ValueError("induced subhypergraph would be empty")
        kept_edges = [
            e for e in self._edges if all(m not in removed_set for m in e)
        ]
        return Hypergraph(kept_vertices, kept_edges)

    def bfs_spanning_tree(self, root: ProcessId) -> Dict[ProcessId, ProcessId]:
        """Breadth-first spanning tree of ``G_H`` rooted at ``root``.

        Returns a parent map (the root maps to itself).  Used by the
        tree-based token circulation substrate.
        """
        if root not in self._neighbors:
            raise ValueError(f"unknown root {root}")
        parent: Dict[ProcessId, ProcessId] = {root: root}
        frontier = [root]
        while frontier:
            next_frontier: List[ProcessId] = []
            for v in frontier:
                for u in self._neighbors[v]:
                    if u not in parent:
                        parent[u] = v
                        next_frontier.append(u)
            frontier = next_frontier
        return parent

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (used by the CLI and reports)."""
        return {
            "vertices": list(self._vertices),
            "hyperedges": [list(e.members) for e in self._edges],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Hypergraph":
        """Inverse of :meth:`to_dict`."""
        return cls(data["vertices"], data["hyperedges"])  # type: ignore[arg-type]
