"""Algorithm ``CC2`` -- snap-stabilizing committee coordination with
Professor Fairness and 2-Phase Discussion (Section 5, Algorithm 2).

``CC2`` assumes professors request meetings infinitely often, so the ``idle``
status (and the ``RequestIn`` predicate) do not exist: a professor that is
not in a meeting is ``looking``.

The key differences with ``CC1``:

* a token is released **only** when its holder leaves a meeting (``Step4``);
  there is no ``Token2`` / ``Useless`` rule -- this is what buys fairness and
  what forfeits Maximal Concurrency;
* the token holder selects one of its *smallest* incident committees
  (``MinEdges_p``) and sticks with it until the meeting convenes, even if
  some members are still in other meetings;
* the Boolean ``L_p`` ("locked") advertises that ``p`` belongs to a committee
  selected by a looking token holder; other processes exclude locked
  processes from their ``FreeEdges`` so that they do not wait on them
  (Figure 4), preserving as much concurrency as fairness allows.

Per-process variables: ``S_p ∈ {looking, waiting, done}``, ``P_p ∈ E_p ∪ {⊥}``,
``T_p``, ``L_p`` (Booleans) plus the bound token module's variables.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hyperedge, Hypergraph, ProcessId
from repro.kernel.algorithm import Action, ActionContext, shared
from repro.core.base import CommitteeAlgorithmBase
from repro.core.composition import TokenBinding
from repro.core.states import DONE, LOCK_FLAG, LOOKING, POINTER, STATUS, TOKEN_FLAG, WAITING


class CC2Algorithm(CommitteeAlgorithmBase):
    """The composition ``CC2 ∘ TC`` as a :class:`DistributedAlgorithm`."""

    statuses: Tuple[str, ...] = (LOOKING, WAITING, DONE)

    #: ``CC2`` guards additionally read the lock flag ``L`` of neighbours
    #: (``FreeEdges`` excludes locked processes), refining the per-variable
    #: dirty protocol accordingly.  ``CC3`` inherits this: its round-robin
    #: cursor ``R`` is read only by its owner's guards.
    neighbour_guard_variables: Tuple[str, ...] = (STATUS, POINTER, TOKEN_FLAG, LOCK_FLAG)

    def __init__(self, hypergraph: Hypergraph, token: TokenBinding) -> None:
        super().__init__(hypergraph, token)

    # ------------------------------------------------------------------ #
    # variable layout
    # ------------------------------------------------------------------ #
    def own_initial_state(self, pid: ProcessId) -> Dict[str, Any]:
        return {STATUS: LOOKING, POINTER: None, TOKEN_FLAG: False, LOCK_FLAG: False}

    def own_arbitrary_state(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        return {
            STATUS: self.statuses[rng.randrange(len(self.statuses))],
            POINTER: self._arbitrary_pointer(pid, rng),
            TOKEN_FLAG: bool(rng.randrange(2)),
            LOCK_FLAG: bool(rng.randrange(2)),
        }

    # ------------------------------------------------------------------ #
    # macros (Algorithm 2)
    # ------------------------------------------------------------------ #
    @shared
    def free_edges(self, ctx: ActionContext, pid: ProcessId) -> Tuple[Hyperedge, ...]:
        """``FreeEdges_p = {ε ∈ E_p | ∀q ∈ ε : (S_q = looking ∧ ¬L_q ∧ ¬T_q)}``."""
        states = ctx.states
        free = []
        for edge in self._incident[pid]:
            for q in edge:
                state = states[q]
                if state[STATUS] != LOOKING or state[LOCK_FLAG] or state[TOKEN_FLAG]:
                    break
            else:
                free.append(edge)
        return tuple(free)

    @shared
    def free_nodes(self, ctx: ActionContext, pid: ProcessId) -> Tuple[ProcessId, ...]:
        nodes: set = set()
        for edge in self.free_edges(ctx, pid):
            nodes.update(edge)
        return tuple(sorted(nodes))

    @shared
    def t_pointing_edges(self, ctx: ActionContext, pid: ProcessId) -> Tuple[Hyperedge, ...]:
        """``TPointingEdges_p = {ε ∈ E_p | ∃q ∈ ε : (P_q = ε ∧ T_q ∧ S_q = looking)}``:
        incident committees selected by a looking token holder."""
        states = ctx.states
        pointing = []
        for edge in self._incident[pid]:
            for q in edge:
                state = states[q]
                if state[POINTER] == edge and state[TOKEN_FLAG] and state[STATUS] == LOOKING:
                    pointing.append(edge)
                    break
        return tuple(pointing)

    @shared
    def t_pointing_nodes(self, ctx: ActionContext, pid: ProcessId) -> Tuple[ProcessId, ...]:
        nodes: set = set()
        for edge in self.t_pointing_edges(ctx, pid):
            nodes.update(edge)
        return tuple(sorted(nodes))

    def min_edges(self, pid: ProcessId) -> Tuple[Hyperedge, ...]:
        """``MinEdges_p``: smallest incident committees of ``p``."""
        return self.hypergraph.min_incident_edges(pid)

    def token_target_edges(self, ctx: ActionContext, pid: ProcessId) -> Tuple[Hyperedge, ...]:
        """Committees the token holder may select (``MinEdges_p`` for ``CC2``).

        ``CC3`` overrides this with a round-robin choice to obtain Committee
        Fairness.
        """
        return self.min_edges(pid)

    # ------------------------------------------------------------------ #
    # predicates (Algorithm 2)
    # ------------------------------------------------------------------ #
    @shared
    def locked(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``Locked(p) ≡ TPointingEdges_p ≠ ∅``."""
        return bool(self.t_pointing_edges(ctx, pid))

    @shared
    def leave_meeting(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``LeaveMeeting(p) ≡ S_p = done ∧ ∃ε ∈ E_p : (P_p = ε ∧ ∀q ∈ ε : (P_q = ε ⇒ S_q ≠ waiting))``:
        done, pointing at ``ε`` and no member of ``ε`` still waiting."""
        states = ctx.states
        own = states[pid]
        if own[STATUS] != DONE:
            return False
        pointer = own[POINTER]
        for edge in self._incident[pid]:
            if pointer != edge:
                continue
            for q in edge:
                state = states[q]
                if state[POINTER] == edge and state[STATUS] == WAITING:
                    break
            else:
                return True
        return False

    @shared
    def local_max(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``LocalMax(p) ≡ p = max(FreeNodes_p)``."""
        nodes = self.free_nodes(ctx, pid)
        return bool(nodes) and pid == max(nodes)

    def max_to_free_edge(self, ctx: ActionContext, pid: ProcessId) -> bool:
        if self.token.token(ctx, pid) or self.locked(ctx, pid):
            return False
        free = self.free_edges(ctx, pid)
        if not free:
            return False
        return (
            self.local_max(ctx, pid)
            and not self.ready(ctx, pid)
            and ctx.read(pid, POINTER) not in free
        )

    def join_local_max(self, ctx: ActionContext, pid: ProcessId) -> bool:
        if self.token.token(ctx, pid) or self.locked(ctx, pid):
            return False
        free = self.free_edges(ctx, pid)
        if not free:
            return False
        if self.local_max(ctx, pid) or self.ready(ctx, pid):
            return False
        nodes = self.free_nodes(ctx, pid)
        if not nodes:
            return False
        leader_pointer = ctx.read(max(nodes), POINTER)
        return any(edge == leader_pointer and ctx.read(pid, POINTER) != edge for edge in free)

    def token_holder_to_edge(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``TokenHolderToEdge(p)``: the looking token holder must point at a target committee."""
        return (
            self.token.token(ctx, pid)
            and ctx.read(pid, STATUS) == LOOKING
            and not self.ready(ctx, pid)
            and ctx.read(pid, POINTER) not in self.token_target_edges(ctx, pid)
        )

    def join_token_holder(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``JoinTokenHolder(p)``: a locked looking process adopts the token holder's committee."""
        return (
            not self.token.token(ctx, pid)
            and ctx.read(pid, STATUS) == LOOKING
            and not self.ready(ctx, pid)
            and self.locked(ctx, pid)
            and ctx.read(pid, POINTER) not in self.t_pointing_edges(ctx, pid)
        )

    def correct(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """The ``Correct(p)`` predicate of Algorithm 2.

        Only ``Stab`` tests it, so a walk evaluates it at most once and it
        needs no memo.
        """
        status = ctx.read(pid, STATUS)
        if status == WAITING and not (self.ready(ctx, pid) or self.meeting(ctx, pid)):
            return False
        if status == DONE and not (self.meeting(ctx, pid) or self.leave_meeting(ctx, pid)):
            return False
        return True

    # ------------------------------------------------------------------ #
    # committee choices
    # ------------------------------------------------------------------ #
    def _choose_token_edge(self, ctx: ActionContext, pid: ProcessId) -> Hyperedge:
        """Pick the committee a token holder commits to.

        Among the target committees, prefer the one with the most members
        already ``looking`` (it can convene soonest), then the smallest, then
        the lexicographically smallest -- a deterministic refinement of the
        pseudo-code's free choice.
        """
        targets = self.token_target_edges(ctx, pid)

        def key(edge: Hyperedge) -> Tuple[int, int, Tuple[ProcessId, ...]]:
            not_looking = sum(1 for q in edge if ctx.read(q, STATUS) != LOOKING)
            return (not_looking, edge.size, edge.members)

        return min(targets, key=key)

    def _choose_t_pointing_edge(self, ctx: ActionContext, pid: ProcessId) -> Optional[Hyperedge]:
        """The committee ``P_{max(TPointingNodes_p)}`` if usable, else any T-pointing edge."""
        t_edges = self.t_pointing_edges(ctx, pid)
        if not t_edges:
            return None
        nodes = self.t_pointing_nodes(ctx, pid)
        leader_pointer = ctx.read(max(nodes), POINTER) if nodes else None
        if leader_pointer is not None and leader_pointer in t_edges:
            return leader_pointer
        return min(t_edges, key=self._edge_sort_key)

    # ------------------------------------------------------------------ #
    # actions
    # ------------------------------------------------------------------ #
    def actions(self, pid: ProcessId) -> Sequence[Action]:
        token = self.token

        # -- Lock : maintain the L flag ------------------------------------ #
        def lock_guard(ctx: ActionContext) -> bool:
            return self.locked(ctx, pid) != bool(ctx.read(pid, LOCK_FLAG))

        def lock_stmt(ctx: ActionContext) -> None:
            ctx.write(LOCK_FLAG, self.locked(ctx, pid))

        # -- Step11 : token holder commits to a target committee ------------ #
        def step11_guard(ctx: ActionContext) -> bool:
            return self.token_holder_to_edge(ctx, pid)

        def step11_stmt(ctx: ActionContext) -> None:
            ctx.write(POINTER, self._choose_token_edge(ctx, pid))

        # -- Step12 : locked processes adopt the token holder's committee --- #
        def step12_guard(ctx: ActionContext) -> bool:
            return self.join_token_holder(ctx, pid)

        def step12_stmt(ctx: ActionContext) -> None:
            choice = self._choose_t_pointing_edge(ctx, pid)
            if choice is not None:
                ctx.write(POINTER, choice)

        # -- Step13 : local maximum points at a free committee -------------- #
        def step13_guard(ctx: ActionContext) -> bool:
            return self.max_to_free_edge(ctx, pid)

        def step13_stmt(ctx: ActionContext) -> None:
            free = self.free_edges(ctx, pid)
            ctx.write(POINTER, self.choose_edge(ctx, free, prefer_token_holder=False))

        # -- Step14 : adopt the local maximum's committee -------------------- #
        def step14_guard(ctx: ActionContext) -> bool:
            return self.join_local_max(ctx, pid)

        def step14_stmt(ctx: ActionContext) -> None:
            nodes = self.free_nodes(ctx, pid)
            leader_pointer = ctx.read(max(nodes), POINTER) if nodes else None
            if leader_pointer is not None and leader_pointer in self.incident(pid):
                ctx.write(POINTER, leader_pointer)

        # -- Token : publish token ownership --------------------------------- #
        def token_guard(ctx: ActionContext) -> bool:
            return token.token(ctx, pid) != bool(ctx.read(pid, TOKEN_FLAG))

        def token_stmt(ctx: ActionContext) -> None:
            ctx.write(TOKEN_FLAG, token.token(ctx, pid))

        # -- Step2 : committee agreed, wait for the meeting ------------------- #
        def step2_guard(ctx: ActionContext) -> bool:
            return ctx.read(pid, STATUS) == LOOKING and self.ready(ctx, pid)

        def step2_stmt(ctx: ActionContext) -> None:
            ctx.write(STATUS, WAITING)

        # -- Step3 : meeting convened, essential discussion ------------------- #
        def step3_guard(ctx: ActionContext) -> bool:
            return ctx.read(pid, STATUS) == WAITING and self.meeting(ctx, pid)

        def step3_stmt(ctx: ActionContext) -> None:
            ctx.environment.on_essential_discussion(pid)
            ctx.write(STATUS, DONE)

        # -- Step4 : voluntarily leave the meeting, release the token ---------- #
        def step4_guard(ctx: ActionContext) -> bool:
            return self.leave_meeting(ctx, pid) and ctx.request_out()

        def step4_stmt(ctx: ActionContext) -> None:
            self.on_leave_meeting(ctx, pid)
            ctx.write(STATUS, LOOKING)
            ctx.write(POINTER, None)
            ctx.write(TOKEN_FLAG, False)
            if token.token(ctx, pid):
                token.release(ctx)

        # -- Stab : snap-stabilization correction ------------------------------ #
        def stab_guard(ctx: ActionContext) -> bool:
            return not self.correct(ctx, pid)

        def stab_stmt(ctx: ActionContext) -> None:
            ctx.write(STATUS, LOOKING)
            ctx.write(POINTER, None)

        # ``when``: the statuses at which each guard can hold, read off the
        # guard.  ``FreeEdges_p ≠ ∅`` needs ``S_p = looking`` (p is in every
        # edge of ``E_p``), ``LeaveMeeting(p)`` states ``S_p = done``, and
        # ``¬Correct(p)`` needs ``S_p`` in {waiting, done}.
        actions: List[Action] = [
            Action("Lock", lock_guard, lock_stmt),
            Action("Step11", step11_guard, step11_stmt, when=frozenset({LOOKING})),
            Action("Step12", step12_guard, step12_stmt, when=frozenset({LOOKING})),
            Action("Step13", step13_guard, step13_stmt, when=frozenset({LOOKING})),
            Action("Step14", step14_guard, step14_stmt, when=frozenset({LOOKING})),
            Action("Token", token_guard, token_stmt),
            Action("Step2", step2_guard, step2_stmt, when=frozenset({LOOKING})),
            Action("Step3", step3_guard, step3_stmt, when=frozenset({WAITING})),
            Action("Step4", step4_guard, step4_stmt, when=frozenset({DONE})),
            Action("Stab", stab_guard, stab_stmt, when=frozenset({WAITING, DONE})),
        ]
        return tuple(self.token.maintenance_actions(pid) + actions)

    # ------------------------------------------------------------------ #
    # hook used by CC3
    # ------------------------------------------------------------------ #
    def on_leave_meeting(self, ctx: ActionContext, pid: ProcessId) -> None:
        """Extra statement executed at the start of ``Step4`` (no-op in ``CC2``)."""
