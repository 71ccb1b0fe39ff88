"""Algorithm ``CC1`` -- snap-stabilizing committee coordination with
Maximal Concurrency and 2-Phase Discussion (Section 4, Algorithm 1).

The class below is the *composition* ``CC1 ∘ TC``: the token-passing action
``T`` of the token module is emulated by the CC layer through the input
predicate ``Token(p)`` and the statement ``ReleaseToken_p`` supplied by the
bound :class:`~repro.core.composition.TokenBinding`.

Per-process variables
---------------------
``S_p ∈ {idle, looking, waiting, done}``
    status,
``P_p ∈ E_p ∪ {⊥}``
    edge (committee) pointer,
``T_p`` (Boolean)
    locally published copy of the ``Token(p)`` predicate, so that neighbours
    can see who holds a token,
plus the token module's variables under the ``tc_`` prefix.

Actions (in code order; later in the list = **higher** priority)
---------------------------------------------------------------
``Step1``    request to participate: ``idle -> looking``
``Step21``   the locally highest-priority looking process points at a free committee
``Step22``   lower-priority looking processes adopt that committee
``Token1``   publish the value of ``Token(p)`` in ``T_p``
``Token2``   a useless token holder releases the token (this is what gives
             Maximal Concurrency and what forfeits fairness)
``Step31``   committee agreed: ``looking -> waiting``
``Step32``   meeting convened: perform essential discussion, ``waiting -> done``
``Step4``    leave a terminated-or-done meeting: back to ``idle``
``Stab1``/``Stab2``  correct a locally inconsistent state (snap-stabilization)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import Hyperedge, Hypergraph, ProcessId
from repro.kernel.algorithm import Action, ActionContext, shared
from repro.core.base import CommitteeAlgorithmBase
from repro.core.composition import TokenBinding
from repro.core.states import DONE, IDLE, LOOKING, POINTER, STATUS, TOKEN_FLAG, WAITING


class CC1Algorithm(CommitteeAlgorithmBase):
    """The composition ``CC1 ∘ TC`` as a :class:`DistributedAlgorithm`."""

    statuses: Tuple[str, ...] = (IDLE, LOOKING, WAITING, DONE)

    def __init__(self, hypergraph: Hypergraph, token: TokenBinding) -> None:
        super().__init__(hypergraph, token)

    # ------------------------------------------------------------------ #
    # variable layout
    # ------------------------------------------------------------------ #
    def own_initial_state(self, pid: ProcessId) -> Dict[str, Any]:
        return {STATUS: IDLE, POINTER: None, TOKEN_FLAG: False}

    def own_arbitrary_state(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        return {
            STATUS: self.statuses[rng.randrange(len(self.statuses))],
            POINTER: self._arbitrary_pointer(pid, rng),
            TOKEN_FLAG: bool(rng.randrange(2)),
        }

    # ------------------------------------------------------------------ #
    # macros (Algorithm 1)
    # ------------------------------------------------------------------ #
    @shared
    def free_edges(self, ctx: ActionContext, pid: ProcessId) -> Tuple[Hyperedge, ...]:
        """``FreeEdges_p = {ε ∈ E_p | ∀q ∈ ε : S_q = looking}``."""
        states = ctx.states
        free = []
        for edge in self._incident[pid]:
            for q in edge:
                if states[q][STATUS] != LOOKING:
                    break
            else:
                free.append(edge)
        return tuple(free)

    def free_nodes(self, ctx: ActionContext, pid: ProcessId) -> Tuple[ProcessId, ...]:
        """``FreeNodes_p``: processes incident to some free edge of ``p``.

        Only the memoized ``Cands_p`` calls it, so it needs no memo.
        """
        nodes: set = set()
        for edge in self.free_edges(ctx, pid):
            nodes.update(edge)
        return tuple(sorted(nodes))

    @shared
    def candidates(self, ctx: ActionContext, pid: ProcessId) -> Tuple[ProcessId, ...]:
        """``Cands_p``: token-flagged free nodes if any, otherwise all free nodes."""
        states = ctx.states
        free_nodes = self.free_nodes(ctx, pid)
        token_flagged = [q for q in free_nodes if states[q][TOKEN_FLAG]]
        return tuple(token_flagged) if token_flagged else free_nodes

    # ------------------------------------------------------------------ #
    # predicates (Algorithm 1)
    # ------------------------------------------------------------------ #
    @shared
    def local_max(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``LocalMax(p) ≡ p = max(Cands_p)``."""
        cands = self.candidates(ctx, pid)
        return bool(cands) and pid == max(cands)

    def max_to_free_edge(self, ctx: ActionContext, pid: ProcessId) -> bool:
        free = self.free_edges(ctx, pid)
        if not free:
            return False
        return (
            self.local_max(ctx, pid)
            and not self.ready(ctx, pid)
            and ctx.states[pid][POINTER] not in free
        )

    def join_local_max(self, ctx: ActionContext, pid: ProcessId) -> bool:
        free = self.free_edges(ctx, pid)
        if not free:
            return False
        if self.local_max(ctx, pid) or self.ready(ctx, pid):
            return False
        cands = self.candidates(ctx, pid)
        if not cands:
            return False
        states = ctx.states
        leader_pointer = states[max(cands)][POINTER]
        return leader_pointer in free and states[pid][POINTER] != leader_pointer

    def leave_meeting(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``LeaveMeeting(p) ≡ ∃ε ∈ E_p : (P_p = ε ∧ ∀q ∈ ε : (P_q = ε ⇒ S_q = done))``.

        Most calls are its only one in a walk, so it is not memoized.
        """
        states = ctx.states
        pointer = states[pid][POINTER]
        for edge in self._incident[pid]:
            if pointer != edge:
                continue
            for q in edge:
                state = states[q]
                if state[POINTER] == edge and state[STATUS] != DONE:
                    break
            else:
                return True
        return False

    def useless(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``Useless(p) ≡ Token(p) ∧ [S_p = idle ∨ (S_p = looking ∧ FreeEdges_p = ∅)]``."""
        if not self.token.token(ctx, pid):
            return False
        status = ctx.states[pid][STATUS]
        if status == IDLE:
            return True
        return status == LOOKING and not self.free_edges(ctx, pid)

    def correct(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """The ``Correct(p)`` predicate of Algorithm 1.

        Only ``Stab1`` (at ``idle``) and ``Stab2`` (at ``waiting``/``done``)
        test it, and no status admits both, so a walk evaluates it at most
        once and it needs no memo.
        """
        own = ctx.states[pid]
        status = own[STATUS]
        if status == IDLE and own[POINTER] is not None:
            return False
        if status == WAITING and not (self.ready(ctx, pid) or self.meeting(ctx, pid)):
            return False
        if status == DONE and not (self.meeting(ctx, pid) or self.leave_meeting(ctx, pid)):
            return False
        return True

    # ------------------------------------------------------------------ #
    # actions
    # ------------------------------------------------------------------ #
    def actions(self) -> Sequence[Action]:
        token = self.token

        # Every guard and statement reads the acting process from ``ctx.pid``.
        # -- Step1 : idle professor requests participation ---------------- #
        def step1_guard(ctx: ActionContext) -> bool:
            return ctx.states[ctx.pid][STATUS] == IDLE and ctx.request_in()

        def step1_stmt(ctx: ActionContext) -> None:
            ctx.write(STATUS, LOOKING)
            ctx.write(POINTER, None)

        # -- Step21 : local maximum points at a free committee ------------ #
        def step21_guard(ctx: ActionContext) -> bool:
            return self.max_to_free_edge(ctx, ctx.pid)

        def step21_stmt(ctx: ActionContext) -> None:
            free = self.free_edges(ctx, ctx.pid)
            ctx.write(POINTER, self.choose_edge(ctx, free))

        # -- Step22 : adopt the local maximum's committee ------------------ #
        def step22_guard(ctx: ActionContext) -> bool:
            return self.join_local_max(ctx, ctx.pid)

        def step22_stmt(ctx: ActionContext) -> None:
            pid = ctx.pid
            cands = self.candidates(ctx, pid)
            leader_pointer = ctx.read(max(cands), POINTER) if cands else None
            if leader_pointer is not None and leader_pointer in self.incident(pid):
                ctx.write(POINTER, leader_pointer)

        # -- Token1 : publish token ownership ------------------------------ #
        def token1_guard(ctx: ActionContext) -> bool:
            pid = ctx.pid
            return token.token(ctx, pid) != bool(ctx.states[pid][TOKEN_FLAG])

        def token1_stmt(ctx: ActionContext) -> None:
            ctx.write(TOKEN_FLAG, token.token(ctx, ctx.pid))

        # -- Token2 : useless token holder releases the token -------------- #
        def token2_guard(ctx: ActionContext) -> bool:
            return self.useless(ctx, ctx.pid)

        def token2_stmt(ctx: ActionContext) -> None:
            token.release(ctx)
            ctx.write(TOKEN_FLAG, False)

        # -- Step31 : committee agreed, wait for the meeting ---------------- #
        def step31_guard(ctx: ActionContext) -> bool:
            pid = ctx.pid
            return ctx.states[pid][STATUS] == LOOKING and self.ready(ctx, pid)

        def step31_stmt(ctx: ActionContext) -> None:
            ctx.write(STATUS, WAITING)

        # -- Step32 : meeting convened, essential discussion ---------------- #
        def step32_guard(ctx: ActionContext) -> bool:
            pid = ctx.pid
            return ctx.states[pid][STATUS] == WAITING and self.meeting(ctx, pid)

        def step32_stmt(ctx: ActionContext) -> None:
            ctx.environment.on_essential_discussion(ctx.pid)
            ctx.write(STATUS, DONE)

        # -- Step4 : voluntarily leave the meeting --------------------------- #
        def step4_guard(ctx: ActionContext) -> bool:
            return self.leave_meeting(ctx, ctx.pid) and ctx.request_out()

        def step4_stmt(ctx: ActionContext) -> None:
            ctx.write(STATUS, IDLE)
            ctx.write(POINTER, None)
            if token.token(ctx, ctx.pid):
                token.release(ctx)
            ctx.write(TOKEN_FLAG, False)

        # -- Stab1 / Stab2 : snap-stabilization correction ------------------- #
        def stab1_guard(ctx: ActionContext) -> bool:
            pid = ctx.pid
            return ctx.states[pid][STATUS] == IDLE and not self.correct(ctx, pid)

        def stab1_stmt(ctx: ActionContext) -> None:
            ctx.write(POINTER, None)

        def stab2_guard(ctx: ActionContext) -> bool:
            pid = ctx.pid
            return ctx.states[pid][STATUS] != IDLE and not self.correct(ctx, pid)

        def stab2_stmt(ctx: ActionContext) -> None:
            ctx.write(STATUS, LOOKING)
            ctx.write(POINTER, None)

        # ``when``: the statuses at which each guard can hold, read off the
        # guard.  ``FreeEdges_p ≠ ∅`` needs ``S_p = looking`` (p is in every
        # edge of ``E_p``), ``LeaveMeeting(p)`` needs ``S_p = done`` (p
        # points at its own edge), and ``¬Correct(p)`` needs ``S_p`` in
        # {idle, waiting, done}.
        actions: List[Action] = [
            Action("Step1", step1_guard, step1_stmt, when=frozenset({IDLE})),
            Action("Step21", step21_guard, step21_stmt, when=frozenset({LOOKING})),
            Action("Step22", step22_guard, step22_stmt, when=frozenset({LOOKING})),
            Action("Token1", token1_guard, token1_stmt),
            Action("Token2", token2_guard, token2_stmt, when=frozenset({IDLE, LOOKING})),
            Action("Step31", step31_guard, step31_stmt, when=frozenset({LOOKING})),
            Action("Step32", step32_guard, step32_stmt, when=frozenset({WAITING})),
            Action("Step4", step4_guard, step4_stmt, when=frozenset({DONE})),
            Action("Stab1", stab1_guard, stab1_stmt, when=frozenset({IDLE})),
            Action("Stab2", stab2_guard, stab2_stmt, when=frozenset({WAITING, DONE})),
        ]
        # Fair composition with the token module's maintenance actions (if
        # any).  They are appended *before* the CC actions' stabilization
        # rules would not be meaningful, so they go first (lowest priority).
        return tuple(self.token.maintenance_actions() + actions)
