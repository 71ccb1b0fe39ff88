"""Shared machinery of the committee coordination algorithms.

``CC1``, ``CC2`` and ``CC3`` share

* their variable layout (status ``S``, edge pointer ``P``, token flag ``T``,
  plus the bound token module's variables),
* their action-table key: the status ``S``, at which every action declares
  when its guard can hold,
* the predicates ``Ready``, ``Meeting`` and ``LeaveMeeting`` (syntactically
  identical in Algorithms 1 and 2 up to the statuses that exist); these and
  the algorithms' other guard macros are
  :func:`~repro.kernel.algorithm.shared`, so one guard context evaluates
  each of them at most once for its own process,
* deterministic tie-breaking when the pseudo-code says "``P := ε`` such that
  ``ε ∈ ...``" (any choice satisfies the proofs; we fix one so runs are
  reproducible and document it),
* configuration-level helpers used by the spec checkers and the runner.

The concrete algorithms only add their macros, guards and action lists.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hyperedge, Hypergraph, ProcessId
from repro.kernel.algorithm import (
    ActionContext,
    DistributedAlgorithm,
    merge_read_dependency_variables,
    shared,
)
from repro.kernel.configuration import Configuration
from repro.core.composition import TokenBinding
from repro.core.states import DONE, IDLE, LOOKING, POINTER, STATUS, TOKEN_FLAG, WAITING


class CommitteeAlgorithmBase(DistributedAlgorithm):
    """Base class for ``CC1``, ``CC2`` and ``CC3`` composed with a token module."""

    #: Statuses a process of this algorithm may take (overridden per algorithm).
    statuses: Tuple[str, ...] = (IDLE, LOOKING, WAITING, DONE)

    #: Every guard of Algorithms 1 and 2 fixes the acting process's own
    #: status, so each action declares the statuses at which its guard can
    #: hold (:attr:`~repro.kernel.algorithm.Action.when`) and a walk tries
    #: only the actions its status admits.
    action_key = STATUS

    def __init__(self, hypergraph: Hypergraph, token: TokenBinding) -> None:
        if not hypergraph.hyperedges:
            raise ValueError("the hypergraph must contain at least one committee")
        self.hypergraph = hypergraph
        self.token = token
        self._pids = hypergraph.vertices
        #: ``pid -> E_p``, looked up once per macro call.
        self._incident: Dict[ProcessId, Tuple[Hyperedge, ...]] = {
            pid: hypergraph.incident_edges(pid) for pid in self._pids
        }

    # ------------------------------------------------------------------ #
    # DistributedAlgorithm plumbing
    # ------------------------------------------------------------------ #
    def process_ids(self) -> Tuple[ProcessId, ...]:
        return self._pids

    def incident(self, pid: ProcessId) -> Tuple[Hyperedge, ...]:
        """``E_p``."""
        return self._incident[pid]

    # ------------------------------------------------------------------ #
    # dirty-set protocol (incremental scheduler engine)
    # ------------------------------------------------------------------ #
    #: CC-layer variables the guards of a process read *of its neighbours*.
    #: ``CC1`` guards scan statuses, pointers and token flags of committee
    #: members; ``CC2``/``CC3`` additionally read the lock flag ``L`` and
    #: override accordingly.  Everything else a guard reads of a neighbour
    #: goes through the token module, which declares its own (prefixed)
    #: variables via ``TokenBinding.read_dependency_variables``.
    neighbour_guard_variables: Tuple[str, ...] = (STATUS, POINTER, TOKEN_FLAG)

    def read_dependency_variables(
        self, pid: ProcessId
    ) -> Dict[ProcessId, Optional[Tuple[str, ...]]]:
        """Guards of ``pid`` read its ``G_H`` neighbourhood plus its token link.

        Every CC-layer predicate (``Ready``, ``Meeting``, ``FreeEdges``,
        ``TPointingEdges``, ...) scans members of committees incident to
        ``pid``, all of which lie in ``N(pid) ∪ {pid}``, and of a ``G_H``
        neighbour it reads only :attr:`neighbour_guard_variables`.  The
        composed ``Token(p)`` predicate additionally reads the token
        module's prefixed variables of the module-declared link processes
        (e.g. ``tc_c`` of the virtual-ring predecessor for the Dijkstra
        substrates).  A neighbour updating its token-module counter
        therefore does not dirty the whole ``G_H`` neighbourhood, only the
        counter's declared readers.  ``pid`` itself is a full dependency
        (own-variable reads are ubiquitous).
        """
        return merge_read_dependency_variables(
            {pid: None},
            {q: self.neighbour_guard_variables for q in self.hypergraph.neighbors(pid)},
            self.token.read_dependency_variables(pid),
        )

    @abc.abstractmethod
    def own_initial_state(self, pid: ProcessId) -> Dict[str, Any]:
        """Legitimate initial values of the CC-layer variables."""

    @abc.abstractmethod
    def own_arbitrary_state(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        """Arbitrary values of the CC-layer variables."""

    def initial_state(self, pid: ProcessId) -> Dict[str, Any]:
        state = self.own_initial_state(pid)
        state.update(self.token.initial_variables(pid))
        return state

    def arbitrary_state(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        state = self.own_arbitrary_state(pid, rng)
        state.update(self.token.arbitrary_variables(pid, rng))
        return state

    def _arbitrary_pointer(self, pid: ProcessId, rng: Any) -> Optional[Hyperedge]:
        """A random value of ``P_p`` from its domain ``E_p ∪ {⊥}``."""
        options: List[Optional[Hyperedge]] = [None] + list(self.incident(pid))
        return options[rng.randrange(len(options))]

    # ------------------------------------------------------------------ #
    # shared predicates (Algorithms 1 and 2)
    # ------------------------------------------------------------------ #
    # The macros below index the snapshot's rows (``ctx.states``) directly
    # and test members with ``for``/``else`` in place of ``all``/``any``: no
    # Python frame per member read or pointer test.  Each keeps the order of
    # its formula's conjuncts, so every short-circuit stays where it is.
    @shared
    def ready(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``Ready(p) ≡ ∃ε ∈ E_p : ∀q ∈ ε : (P_q = ε ∧ S_q ∈ {looking, waiting})``."""
        states = ctx.states
        for edge in self._incident[pid]:
            for q in edge:
                state = states[q]
                if state[POINTER] != edge or state[STATUS] not in (LOOKING, WAITING):
                    break
            else:
                return True
        return False

    @shared
    def meeting(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``Meeting(p) ≡ ∃ε ∈ E_p : ∀q ∈ ε : (P_q = ε ∧ S_q ∈ {waiting, done})``."""
        states = ctx.states
        for edge in self._incident[pid]:
            for q in edge:
                state = states[q]
                if state[POINTER] != edge or state[STATUS] not in (WAITING, DONE):
                    break
            else:
                return True
        return False

    # ------------------------------------------------------------------ #
    # deterministic committee selection
    # ------------------------------------------------------------------ #
    @staticmethod
    def _edge_sort_key(edge: Hyperedge) -> Tuple[int, Tuple[ProcessId, ...]]:
        return (edge.size, edge.members)

    def choose_edge(
        self,
        ctx: ActionContext,
        candidates: Sequence[Hyperedge],
        prefer_token_holder: bool = True,
    ) -> Hyperedge:
        """Pick one committee out of ``candidates``.

        The pseudo-code leaves this choice free; we prefer (in order)
        committees containing a process with its token flag raised (they are
        the highest-priority committees in the algorithm's own terms), then
        smaller committees, then the lexicographically smallest member tuple.
        """
        if not candidates:
            raise ValueError("no candidate committee to choose from")

        def key(edge: Hyperedge) -> Tuple[int, int, Tuple[ProcessId, ...]]:
            has_token_flag = any(bool(ctx.read(q, TOKEN_FLAG)) for q in edge)
            return (0 if (prefer_token_holder and has_token_flag) else 1, edge.size, edge.members)

        return min(candidates, key=key)

    # ------------------------------------------------------------------ #
    # configuration-level helpers (used by spec checkers, metrics, runner)
    # ------------------------------------------------------------------ #
    def meetings_in(self, configuration: Configuration) -> Tuple[Hyperedge, ...]:
        """Committees that *meet* in ``configuration``.

        A committee meets iff every member points to it with status
        ``waiting`` or ``done`` (Section 4.2 terminology).
        """
        held: List[Hyperedge] = []
        for edge in self.hypergraph.hyperedges:
            if all(
                configuration.get(q, POINTER) == edge
                and configuration.get(q, STATUS) in (WAITING, DONE)
                for q in edge
            ):
                held.append(edge)
        return tuple(held)

    def participants_in(self, configuration: Configuration) -> Tuple[ProcessId, ...]:
        """Processes participating in some meeting in ``configuration``."""
        participants: List[ProcessId] = []
        for edge in self.meetings_in(configuration):
            participants.extend(edge.members)
        return tuple(sorted(set(participants)))

    def status_of(self, configuration: Configuration, pid: ProcessId) -> str:
        return configuration.get(pid, STATUS)

    def pointer_of(self, configuration: Configuration, pid: ProcessId) -> Optional[Hyperedge]:
        return configuration.get(pid, POINTER)

    def token_holders(self, configuration: Configuration) -> Tuple[ProcessId, ...]:
        """Processes currently satisfying the ``Token(p)`` input predicate."""
        return tuple(self.token.token_holders(configuration))
