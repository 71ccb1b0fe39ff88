"""Binding a token module into a committee coordination algorithm.

The paper's composition ``CC ∘ TC`` is *emulating*: the composed algorithm
does not contain the token-passing action ``T`` explicitly -- the predicate
``Token(p)`` and the statement ``ReleaseToken_p`` are inputs to the CC layer,
which invokes ``ReleaseToken_p`` from its own actions (``Token2`` / ``Step4``
in ``CC1``, ``Step4`` in ``CC2``).

:class:`TokenBinding` packages a
:class:`~repro.tokenring.interfaces.TokenModule` for that purpose: it stores
the module's variables under a prefix inside the composed per-process state,
exposes ``Token(p)`` / ``ReleaseToken_p`` against an
:class:`~repro.kernel.algorithm.ActionContext` (the module reads the
context's rows and writes its variables under the prefix), and namespaces
the module's maintenance actions so they can be appended to the CC layer's
action list (fair composition).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.kernel.algorithm import Action, ActionContext, shared
from repro.kernel.composition import namespaced_action
from repro.kernel.configuration import Configuration, ProcessId
from repro.tokenring.interfaces import TokenModule

#: Default prefix under which token-module variables live in the composed state.
TOKEN_PREFIX = "tc_"


class TokenBinding:
    """A :class:`TokenModule` bound under a variable prefix."""

    def __init__(self, module: TokenModule, prefix: str = TOKEN_PREFIX) -> None:
        self.module = module
        self.prefix = prefix

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    def initial_variables(self, pid: ProcessId) -> Dict[str, Any]:
        return {
            self.prefix + name: value
            for name, value in self.module.initial_variables(pid).items()
        }

    def arbitrary_variables(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        return {
            self.prefix + name: value
            for name, value in self.module.arbitrary_variables(pid, rng).items()
        }

    # ------------------------------------------------------------------ #
    # the Token(p) predicate and ReleaseToken_p statement
    # ------------------------------------------------------------------ #
    @shared
    def token(self, ctx: ActionContext, pid: ProcessId) -> bool:
        """``Token(p)`` evaluated against the pre-step snapshot in ``ctx``."""
        return self.module.holds_token(ctx.states, self.prefix, pid)

    def token_in(self, configuration: Configuration, pid: ProcessId) -> bool:
        """``Token(p)`` evaluated against a full configuration (spec checkers)."""
        return self.module.holds_token(configuration.states_view(), self.prefix, pid)

    def token_holders(self, configuration: Configuration) -> Sequence[ProcessId]:
        return self.module.token_holders(configuration.states_view(), self.prefix)

    def release(self, ctx: ActionContext) -> None:
        """``ReleaseToken_p``: the module writes its prefixed variables."""
        self.module.release_token(ctx, self.prefix)

    # ------------------------------------------------------------------ #
    # dirty-set protocol (incremental scheduler engine)
    # ------------------------------------------------------------------ #
    def read_dependency_variables(
        self, pid: ProcessId
    ) -> Dict[ProcessId, "Sequence[str] | None"]:
        """The (prefixed) variables ``Token(pid)`` may read, per process.

        The module declares its dependencies in its own (un-prefixed)
        variable names; the binding maps them into the composed state's
        namespace (``c`` becomes ``tc_c``) so the scheduler's reader map
        matches the names that actually appear in step deltas.
        """
        return {
            source: (
                None
                if variables is None
                else tuple(self.prefix + name for name in variables)
            )
            for source, variables in self.module.read_dependency_variables(pid).items()
        }

    # ------------------------------------------------------------------ #
    # maintenance actions (fair composition)
    # ------------------------------------------------------------------ #
    def maintenance_actions(self) -> List[Action]:
        return [
            namespaced_action(action, self.prefix)
            for action in self.module.maintenance_actions()
        ]
