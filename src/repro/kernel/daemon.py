"""Daemons (schedulers) of the atomic-state model.

A daemon is the adversary that, at every step, selects which enabled
processes move.  The paper assumes a *distributed weakly fair* daemon:

* **distributed** -- at each step at least one (possibly more) enabled
  process is selected;
* **weakly fair** -- every continuously enabled process is eventually
  selected.

The implementations below cover the daemons used by the test-suite and the
benchmarks.  Weak fairness is enforced constructively: the
:class:`WeaklyFairDaemon` wrapper (used internally by the randomized and
adversarial daemons) tracks for how many consecutive steps each process has
been enabled without moving and force-selects processes that exceed a bound.
This turns the liveness assumption into an operational guarantee, which is
what a finite simulation needs.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.kernel.configuration import Configuration, ProcessId


class Daemon(abc.ABC):
    """Strategy that picks the set of processes allowed to move in a step."""

    @abc.abstractmethod
    def select(
        self,
        enabled: Sequence[ProcessId],
        configuration: Configuration,
        step_index: int,
    ) -> FrozenSet[ProcessId]:
        """Return a non-empty subset of ``enabled`` (``enabled`` is non-empty)."""

    def reset(self) -> None:
        """Clear internal bookkeeping (called when a scheduler is rebuilt)."""

    def notify_enabled(self, enabled: Sequence[ProcessId], selected: FrozenSet[ProcessId]) -> None:
        """Hook invoked by the scheduler with the selection actually executed.

        ``selected`` may differ from what :meth:`select` returned: the
        scheduler intersects the daemon's answer with the enabled set and
        falls back to the lowest enabled id when the intersection is empty.
        Stateful daemons should base their fairness bookkeeping on this
        callback rather than on their own ``select`` answer.
        """


class SynchronousDaemon(Daemon):
    """Selects *every* enabled process each step.

    The synchronous daemon is a special case of the distributed weakly fair
    daemon (every enabled process moves, so nobody is neglected); it is the
    fastest schedule and the default for throughput-style benchmarks.
    """

    def select(
        self,
        enabled: Sequence[ProcessId],
        configuration: Configuration,
        step_index: int,
    ) -> FrozenSet[ProcessId]:
        return frozenset(enabled)


class CentralDaemon(Daemon):
    """Selects exactly one enabled process per step.

    With ``policy='round_robin'`` (default) the daemon cycles through process
    ids, which is weakly fair.  ``policy='random'`` draws uniformly; wrapped
    in :class:`WeaklyFairDaemon` by the scheduler when fairness is required.
    """

    def __init__(self, policy: str = "round_robin", seed: Optional[int] = None) -> None:
        if policy not in ("round_robin", "random"):
            raise ValueError(f"unknown central daemon policy {policy!r}")
        self._policy = policy
        self._rng = random.Random(seed)
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def select(
        self,
        enabled: Sequence[ProcessId],
        configuration: Configuration,
        step_index: int,
    ) -> FrozenSet[ProcessId]:
        ordered = sorted(enabled)
        if self._policy == "random":
            return frozenset({self._rng.choice(ordered)})
        # Round-robin over the id space: pick the first enabled id >= cursor.
        candidates = [p for p in ordered if p >= self._cursor] or ordered
        choice = candidates[0]
        self._cursor = choice + 1
        return frozenset({choice})


class LocallyCentralDaemon(Daemon):
    """Selects a maximal set of enabled processes that are pairwise non-neighbours.

    Useful to exercise schedules where no two neighbouring processes move in
    the same step (a common intermediate daemon in the self-stabilization
    literature).  Requires the neighbourhood map of the underlying
    communication network.
    """

    def __init__(
        self,
        neighbors: Dict[ProcessId, Tuple[ProcessId, ...]],
        seed: Optional[int] = None,
    ) -> None:
        self._neighbors = {pid: frozenset(ns) for pid, ns in neighbors.items()}
        self._rng = random.Random(seed)

    def select(
        self,
        enabled: Sequence[ProcessId],
        configuration: Configuration,
        step_index: int,
    ) -> FrozenSet[ProcessId]:
        ordered = list(enabled)
        self._rng.shuffle(ordered)
        chosen: Set[ProcessId] = set()
        blocked: Set[ProcessId] = set()
        for pid in ordered:
            if pid in blocked:
                continue
            chosen.add(pid)
            blocked |= self._neighbors.get(pid, frozenset())
            blocked.add(pid)
        if not chosen:  # pragma: no cover - defensive; enabled is non-empty
            chosen.add(ordered[0])
        return frozenset(chosen)


class DistributedRandomDaemon(Daemon):
    """Each enabled process is selected independently with probability ``p``.

    At least one process is always selected (re-drawing if the random subset
    came out empty), so the daemon is *distributed*.  Weak fairness is
    guaranteed probabilistically and, when wrapped by
    :class:`WeaklyFairDaemon` (the scheduler does this by default),
    deterministically.
    """

    def __init__(self, probability: float = 0.5, seed: Optional[int] = None) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError("selection probability must be in (0, 1]")
        self._p = probability
        self._rng = random.Random(seed)

    def select(
        self,
        enabled: Sequence[ProcessId],
        configuration: Configuration,
        step_index: int,
    ) -> FrozenSet[ProcessId]:
        ordered = sorted(enabled)
        chosen = [pid for pid in ordered if self._rng.random() < self._p]
        if not chosen:
            chosen = [self._rng.choice(ordered)]
        return frozenset(chosen)


class AdversarialDaemon(Daemon):
    """Daemon driven by a user strategy function.

    The strategy receives ``(enabled, configuration, step_index)`` and returns
    an iterable of process ids; the daemon intersects it with the enabled set
    and falls back to the lowest-id enabled process if the result is empty,
    so the *distributed* requirement is always met.  Used by the Theorem 1
    impossibility benchmark to steer the execution into the starvation cycle.
    """

    def __init__(
        self,
        strategy: Callable[[Sequence[ProcessId], Configuration, int], Iterable[ProcessId]],
    ) -> None:
        self._strategy = strategy

    def select(
        self,
        enabled: Sequence[ProcessId],
        configuration: Configuration,
        step_index: int,
    ) -> FrozenSet[ProcessId]:
        enabled_set = set(enabled)
        wanted = set(self._strategy(enabled, configuration, step_index))
        chosen = frozenset(w for w in wanted if w in enabled_set)
        if not chosen:
            chosen = frozenset({min(enabled_set)})
        return chosen


class WeaklyFairDaemon(Daemon):
    """Wrapper enforcing weak fairness on an arbitrary base daemon.

    The wrapper counts, for every process, the number of consecutive steps in
    which the process was enabled but not selected.  Whenever the count
    reaches ``patience`` the process is force-added to the base daemon's
    selection.  A continuously enabled process is therefore selected at least
    every ``patience`` steps, which realizes the weak fairness assumption of
    the paper in any finite execution.
    """

    def __init__(self, base: Daemon, patience: int = 8) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self._base = base
        self._patience = patience
        self._starvation: Dict[ProcessId, int] = {}
        # The counters before ``select``'s provisional bookkeeping, with the
        # ``(enabled, chosen)`` it booked; cleared by ``notify_enabled``.
        self._provisional: Optional[
            Tuple[Dict[ProcessId, int], Sequence[ProcessId], FrozenSet[ProcessId]]
        ] = None

    @property
    def base(self) -> Daemon:
        return self._base

    def reset(self) -> None:
        self._base.reset()
        self._starvation.clear()
        self._provisional = None

    def _bookkeep(self, enabled: Sequence[ProcessId], chosen: FrozenSet[ProcessId]) -> None:
        # Update starvation counters: processes enabled but not chosen age by
        # one; chosen or disabled processes reset.  The counters are a fresh
        # dict each time, so the previous one stays as it was.
        starvation = self._starvation
        self._starvation = {
            pid: 0 if pid in chosen else starvation.get(pid, 0) + 1 for pid in enabled
        }

    def select(
        self,
        enabled: Sequence[ProcessId],
        configuration: Configuration,
        step_index: int,
    ) -> FrozenSet[ProcessId]:
        base_choice = set(self._base.select(enabled, configuration, step_index))
        forced = {
            pid
            for pid in enabled
            if self._starvation.get(pid, 0) + 1 >= self._patience
        }
        chosen = frozenset(base_choice | forced)
        # Bookkeeping is applied provisionally so the daemon stays weakly fair
        # when driven standalone; the counters before it are kept so that
        # notify_enabled can redo it when the selection the scheduler actually
        # executed differs (its empty-selection fallback).  Otherwise the step
        # is booked once.
        self._provisional = (self._starvation, enabled, chosen)
        self._bookkeep(enabled, chosen)
        return chosen

    def notify_enabled(self, enabled: Sequence[ProcessId], selected: FrozenSet[ProcessId]) -> None:
        provisional, self._provisional = self._provisional, None
        if provisional is None:
            self._bookkeep(enabled, selected)
        else:
            before, booked_enabled, booked = provisional
            if selected != booked or enabled != booked_enabled:
                self._starvation = before
                self._bookkeep(enabled, selected)
        self._base.notify_enabled(enabled, selected)


def default_daemon(seed: Optional[int] = None, probability: float = 0.5, patience: int = 8) -> Daemon:
    """The library default: a distributed randomized daemon with enforced weak fairness."""
    return WeaklyFairDaemon(DistributedRandomDaemon(probability=probability, seed=seed), patience=patience)


#: Names accepted by :func:`daemon_from_name` (the CLI/campaign vocabulary).
DAEMON_NAMES = ("weakly_fair", "synchronous")


def daemon_from_name(name: str, seed: Optional[int] = None) -> Daemon:
    """Build a daemon from its CLI/campaign name.

    The single construction path shared by :class:`~repro.core.runner`'s
    coordinator, the campaign jobs and the randomized scenarios, so the
    name vocabulary cannot drift between them.
    """
    if name == "synchronous":
        return SynchronousDaemon()
    if name == "weakly_fair":
        return default_daemon(seed=seed)
    raise ValueError(f"unknown daemon {name!r}; expected one of {DAEMON_NAMES}")
