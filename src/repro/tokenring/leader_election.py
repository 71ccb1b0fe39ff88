"""Self-stabilizing leader election (max-id with bounded distances).

The paper suggests obtaining ``TC`` by composing a self-stabilizing leader
election (e.g. Datta-Larmore-Vemula [23]) with a token circulation rooted at
the elected leader.  This module provides a compact self-stabilizing leader
election in the same spirit:

* every process ``p`` maintains a believed leader id ``lid_p`` and a distance
  ``d_p`` to it;
* the legitimate configurations have ``lid_p = max(V)`` for all ``p`` and
  ``d_p`` equal to the hop distance from ``p`` to the maximum-id process in
  the underlying communication network;
* the single rule makes ``(lid_p, d_p)`` equal to the best claim available
  locally: ``(p, 0)`` or ``(lid_q, d_q + 1)`` for a neighbour ``q``, where
  claims are ordered by larger id first and smaller distance second;
* distances are bounded by ``n``: claims whose distance would exceed ``n``
  are discarded, which kills "ghost" leader ids surviving from an arbitrary
  initial configuration (they can only persist by growing their distance
  around a cycle).

Convergence takes ``O(n)`` rounds, after which the process with the maximum
identifier is the unique process satisfying ``IsLeader``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernel.algorithm import Action, ActionContext, DistributedAlgorithm
from repro.kernel.configuration import Configuration, ProcessId

LEADER = "lid"
DISTANCE = "d"


class SelfStabilizingLeaderElection(DistributedAlgorithm):
    """Max-id leader election on the underlying communication network ``G_H``."""

    def __init__(self, hypergraph: Hypergraph) -> None:
        self.hypergraph = hypergraph
        self._pids = hypergraph.vertices
        self._neighbors = hypergraph.communication_adjacency()
        self._n = hypergraph.n
        self._max_id = max(self._pids)
        # Hop distances from the true leader, for legitimate initialisation
        # and for the convergence checks in the tests.
        self._true_distance = self._bfs_distances(self._max_id)

    def _bfs_distances(self, source: ProcessId) -> Dict[ProcessId, int]:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for u in self._neighbors[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return dist

    # ------------------------------------------------------------------ #
    # DistributedAlgorithm interface
    # ------------------------------------------------------------------ #
    def process_ids(self) -> Tuple[ProcessId, ...]:
        return self._pids

    def initial_state(self, pid: ProcessId) -> Dict[str, Any]:
        return {LEADER: self._max_id, DISTANCE: self._true_distance.get(pid, 0)}

    def arbitrary_state(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        # Possibly a ghost id larger than every real id, and any distance.
        return {
            LEADER: rng.randrange(0, self._max_id + 4),
            DISTANCE: rng.randrange(0, self._n + 2),
        }

    def _best_claim(self, ctx: ActionContext) -> Tuple[ProcessId, int]:
        pid = ctx.pid
        best = (pid, 0)
        for q in self._neighbors[pid]:
            lid_q = ctx.read(q, LEADER)
            d_q = ctx.read(q, DISTANCE)
            if lid_q is None or d_q is None:
                continue
            candidate = (lid_q, d_q + 1)
            if candidate[1] > self._n:
                continue  # distance bound: discard ghost claims
            if candidate[0] > best[0] or (candidate[0] == best[0] and candidate[1] < best[1]):
                best = candidate
        return best

    def actions(self) -> Sequence[Action]:
        def guard(ctx: ActionContext) -> bool:
            best = self._best_claim(ctx)
            return (ctx.own(LEADER), ctx.own(DISTANCE)) != best

        def statement(ctx: ActionContext) -> None:
            lid, dist = self._best_claim(ctx)
            ctx.write(LEADER, lid)
            ctx.write(DISTANCE, dist)

        return (Action(label="Elect", guard=guard, statement=statement),)

    # -- dirty-set protocol (incremental scheduler engine) ---------------- #
    def read_dependency_variables(
        self, pid: ProcessId
    ) -> Dict[ProcessId, Optional[Tuple[str, ...]]]:
        """The ``Elect`` guard reads the claims ``(lid, d)`` of the ``G_H`` neighbours."""
        spec: Dict[ProcessId, Optional[Tuple[str, ...]]] = {pid: None}
        for q in self._neighbors[pid]:
            spec[q] = (LEADER, DISTANCE)
        return spec

    # ------------------------------------------------------------------ #
    # queries used by tests, the composition, and the benchmarks
    # ------------------------------------------------------------------ #
    @property
    def true_leader(self) -> ProcessId:
        return self._max_id

    def believes_leader(self, configuration: Configuration, pid: ProcessId) -> bool:
        """``True`` iff ``pid`` currently believes it is the leader."""
        return configuration.get(pid, LEADER) == pid

    def elected(self, configuration: Configuration) -> Tuple[ProcessId, ...]:
        """Processes believing they are the leader (exactly one once stabilized)."""
        return tuple(p for p in self._pids if self.believes_leader(configuration, p))

    def is_legitimate(self, configuration: Configuration) -> bool:
        """``True`` iff every process agrees on the true leader with exact distances."""
        for pid in self._pids:
            if configuration.get(pid, LEADER) != self._max_id:
                return False
            if configuration.get(pid, DISTANCE) != self._true_distance.get(pid):
                return False
        return True
