"""Configurations: instantaneous snapshots of every process's variables.

A configuration ``γ`` assigns a value to every variable of every process
(Section 2.2).  Configurations are immutable; the scheduler produces a new
configuration per step, and traces, spec checkers and fault injectors all
operate on these snapshots.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Tuple

ProcessId = int
ProcessState = Mapping[str, Any]


class Configuration:
    """An immutable snapshot ``γ`` of the state of all processes.

    The constructor deep-copies one level: the per-process mapping is copied
    so that later mutation of the source dictionaries cannot alter the
    snapshot.  Variable *values* are expected to be immutable (statuses,
    integers, booleans, :class:`~repro.hypergraph.hypergraph.Hyperedge`,
    ``None``), which every algorithm in this library respects.

    Derivation through :meth:`updated` is copy-on-write: the per-process
    dictionaries of processes that did not move are *shared* between the
    parent and the derived configuration (never mutated afterwards — nothing
    in this class writes into ``_states`` after construction, and every
    accessor that hands state out returns a copy).  A step therefore copies
    the row of each writing process plus the top-level ``pid -> row`` map:
    ``O(n)`` pointer copies (one C-level ``dict`` copy) and ``O(row)`` per
    writer, never a deep copy of the ``n`` rows.
    """

    __slots__ = ("_states",)

    def __init__(
        self,
        states: Mapping[ProcessId, ProcessState],
        *,
        _shared: bool = False,
    ) -> None:
        # ``_shared`` is an internal fast path used by :meth:`updated`: the
        # caller guarantees that ``states`` is a fresh top-level dict whose
        # per-process dicts are private to Configuration instances, so the
        # defensive re-copy can be skipped.
        if _shared:
            self._states: Dict[ProcessId, Dict[str, Any]] = states  # type: ignore[assignment]
        else:
            self._states = {pid: dict(variables) for pid, variables in states.items()}

    # ------------------------------------------------------------------ #
    # read access
    # ------------------------------------------------------------------ #
    def processes(self) -> Tuple[ProcessId, ...]:
        return tuple(sorted(self._states))

    def state_of(self, pid: ProcessId) -> Dict[str, Any]:
        """A copy of the full variable map of ``pid``."""
        return dict(self._states[pid])

    def get(self, pid: ProcessId, variable: str, default: Any = None) -> Any:
        return self._states[pid].get(variable, default)

    def states_view(self) -> Mapping[ProcessId, ProcessState]:
        """Zero-copy read access to the underlying per-process mappings.

        The returned mapping (and the per-process mappings inside it) MUST
        NOT be mutated — they are the configuration's internal state, shared
        copy-on-write with derived configurations.  This accessor exists for
        hot loops that would otherwise pay one :meth:`get` call per variable
        read: per-step observers (streaming metrics/spec monitors) and every
        guard and statement, whose ``ActionContext.states`` it is.
        """
        return self._states

    def __getitem__(self, key: Tuple[ProcessId, str]) -> Any:
        pid, variable = key
        return self._states[pid][variable]

    def __contains__(self, pid: object) -> bool:
        return pid in self._states

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(sorted(self._states))

    def __len__(self) -> int:
        return len(self._states)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._states == other._states

    def __hash__(self) -> int:
        return hash(
            tuple(
                (pid, tuple(sorted(vars_.items(), key=lambda kv: kv[0])))
                for pid, vars_ in sorted(self._states.items())
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Configuration({len(self._states)} processes)"

    # ------------------------------------------------------------------ #
    # derivation
    # ------------------------------------------------------------------ #
    def updated(self, writes: Mapping[ProcessId, Mapping[str, Any]]) -> "Configuration":
        """A new configuration with ``writes`` applied on top of this one.

        ``writes`` maps each moving process to the variables it wrote; all
        other variables (and all other processes) are carried over untouched.
        Copy-on-write: only the per-process dicts of writing processes are
        copied — everyone else's state dict is shared with ``self``.
        """
        merged: Dict[ProcessId, Dict[str, Any]] = dict(self._states)
        for pid, new_vars in writes.items():
            if pid in merged:
                if not new_vars:
                    continue  # executed but wrote nothing: keep sharing
                fresh = dict(merged[pid])
                fresh.update(new_vars)
            else:
                fresh = dict(new_vars)
            merged[pid] = fresh
        return Configuration(merged, _shared=True)

    def restrict(self, variables: Tuple[str, ...]) -> "Configuration":
        """Project the configuration onto a subset of variable names."""
        return Configuration(
            {
                pid: {k: v for k, v in vars_.items() if k in variables}
                for pid, vars_ in self._states.items()
            }
        )

    def to_dict(self) -> Dict[ProcessId, Dict[str, Any]]:
        """A mutable copy of the underlying mapping (for fault injection)."""
        return {pid: dict(vars_) for pid, vars_ in self._states.items()}
