"""The ``TokenModule`` interface consumed by the CC ∘ TC compositions.

A token module contributes

* a set of per-process variables (namespaced by the composition),
* the predicate ``Token(p)`` -- does ``p`` currently hold a token? -- which a
  guard may evaluate by reading ``p``'s and its ring-predecessor's variables,
* the statement ``ReleaseToken_p`` -- pass the token on -- which writes only
  ``p``'s own variables,
* optional *maintenance actions* that run in fair composition with the CC
  layer and realize the "stabilizes independently of the activations of
  action ``T``" part of Property 1 (empty for the ring modules, whose
  stabilization happens through token passing itself -- a documented
  substitution, see "Substitutions" in docs/ARCHITECTURE.md).

``Token(p)`` and ``ReleaseToken_p`` work over the snapshot's rows
(``pid -> {variable: value}``, as in
:attr:`~repro.kernel.algorithm.ActionContext.states`), where the module's
variables are named with the composition's prefix (``c`` lives under
``tc_c``); a standalone module passes the prefix ``""``.  The module reads
the rows directly, with no accessor call per variable, and a variable
missing from a row reads as its default.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.kernel.algorithm import Action, ActionContext
from repro.kernel.configuration import ProcessId

#: The snapshot's rows, ``pid -> {variable: value}``.
Rows = Mapping[ProcessId, Mapping[str, Any]]


class PrefixedNames(dict):
    """``prefix -> prefix + name`` for one variable ``name``, each built on first use.

    A module that keeps ``TABLE = PrefixedNames(VAR)`` looks ``TABLE[prefix]``
    up instead of building ``prefix + VAR`` on every ``Token(p)`` call.
    repro-lint reads ``TABLE[prefix]`` as naming ``VAR``, as it reads
    ``prefix + VAR``.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def __missing__(self, prefix: str) -> str:
        value = self[prefix] = prefix + self.name
        return value


class TokenModule(abc.ABC):
    """Abstract self-stabilizing token circulation (Property 1)."""

    @abc.abstractmethod
    def process_ids(self) -> Tuple[ProcessId, ...]:
        """Processes the module circulates the token among."""

    @abc.abstractmethod
    def initial_variables(self, pid: ProcessId) -> Dict[str, Any]:
        """Legitimate (stabilized, single-token) starting values for ``pid``."""

    @abc.abstractmethod
    def arbitrary_variables(self, pid: ProcessId, rng: Any) -> Dict[str, Any]:
        """Arbitrary values for ``pid`` (transient-fault starting points)."""

    @abc.abstractmethod
    def holds_token(self, states: Rows, prefix: str, pid: ProcessId) -> bool:
        """The ``Token(p)`` predicate over the rows ``states``.

        The module's variables are named ``prefix + name`` in the rows.
        """

    @abc.abstractmethod
    def release_token(self, ctx: ActionContext, prefix: str) -> None:
        """The ``ReleaseToken_p`` statement of ``ctx.pid``.

        Reads the rows ``ctx.states`` and writes only ``ctx.pid``'s own
        variables, each named ``prefix + name``.
        """

    def maintenance_actions(self) -> Sequence[Action]:
        """Stabilization actions other than ``T`` (default: none).

        Like :meth:`~repro.kernel.algorithm.DistributedAlgorithm.actions`,
        one list serves every process: the acting process is ``ctx.pid``.
        """
        return ()

    def read_dependency_variables(
        self, pid: ProcessId
    ) -> Dict[ProcessId, Optional[Tuple[str, ...]]]:
        """The module variables ``Token(pid)`` (and the guards of any
        maintenance actions of ``pid``) may read, in *un-prefixed* names.

        ``source -> variable names`` with ``None`` meaning "any module
        variable of that source"; the composition prefixes the names before
        handing them to the scheduler.  The default is conservative (every
        variable of every process); the ring modules override this to
        declare exactly the counter of the ring predecessor.
        """
        return {q: None for q in self.process_ids()}

    # ------------------------------------------------------------------ #
    # diagnostics shared by implementations
    # ------------------------------------------------------------------ #
    def token_holders(self, states: Rows, prefix: str) -> Tuple[ProcessId, ...]:
        """All processes satisfying ``Token(p)`` in ``states`` (≥1 for ring modules)."""
        return tuple(p for p in self.process_ids() if self.holds_token(states, prefix, p))

    def is_stabilized(self, states: Rows, prefix: str) -> bool:
        """``True`` iff exactly one process holds a token in ``states``."""
        return len(self.token_holders(states, prefix)) == 1
