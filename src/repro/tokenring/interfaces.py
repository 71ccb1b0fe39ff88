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
  substitution, see DESIGN.md §3).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.kernel.algorithm import Action, ActionContext
from repro.kernel.configuration import ProcessId

#: ``read(pid, variable)`` accessor over the token module's (un-prefixed)
#: variable names; the composition supplies one that maps to the prefixed
#: names of the composed state.
Reader = Callable[[ProcessId, str], Any]


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
    def holds_token(self, read: Reader, pid: ProcessId) -> bool:
        """The ``Token(p)`` predicate evaluated against a snapshot reader."""

    @abc.abstractmethod
    def release_token(self, ctx: ActionContext, read: Reader) -> None:
        """The ``ReleaseToken_p`` statement.

        ``ctx.write`` must only touch ``pid``'s own (un-prefixed) variable
        names; the composition wraps the context so writes land in the
        namespaced state.
        """

    def maintenance_actions(self, pid: ProcessId) -> Sequence[Action]:
        """Stabilization actions other than ``T`` (default: none)."""
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
    def token_holders(self, read: Reader) -> Tuple[ProcessId, ...]:
        """All processes currently satisfying ``Token(p)`` (≥1 for ring modules)."""
        return tuple(p for p in self.process_ids() if self.holds_token(read, p))

    def is_stabilized(self, read: Reader) -> bool:
        """``True`` iff exactly one process holds a token."""
        return len(self.token_holders(read)) == 1
