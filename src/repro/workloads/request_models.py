"""Professor behaviour models (the ``RequestIn`` / ``RequestOut`` inputs).

The committee coordination algorithms are driven by two input predicates per
professor (Section 4.1):

* ``RequestIn(p)`` -- the professor autonomously decides to wait for a
  meeting (only meaningful in ``CC1``; ``CC2``/``CC3`` assume professors are
  always requesting);
* ``RequestOut(p)`` -- the professor wants to voluntarily stop discussing.
  The paper requires that once a professor is involved in a meeting (or a
  meeting it was in has terminated), ``RequestOut(p)`` eventually holds and
  then remains true until the professor leaves.

The environments here realize these predicates operationally:

* :class:`AlwaysRequestingEnvironment` -- always request in; request out
  after a configurable number of steps spent in the ``done`` status
  (``maxDisc`` in the paper's waiting-time analysis is the round-count analog
  of this knob).
* :class:`ProbabilisticRequestEnvironment` -- Bernoulli requests in, finite
  meetings; models sporadically interested professors.
* :class:`BurstyRequestEnvironment` -- alternating active/quiet phases.
* :class:`InfiniteMeetingEnvironment` -- nobody ever leaves (``RequestOut``
  identically false): the formal artefact used by Definition 2 (Maximal
  Concurrency) and Definition 5 (Degree of Fair Concurrency).
* :class:`SelectiveInfiniteMeetingEnvironment` -- a chosen subset ``P1``
  stays in meetings forever while everyone else behaves normally; used by the
  Maximal Concurrency checker.
* :class:`ScriptedEnvironment` -- fully scripted predicates; used to replay
  the paper's figures and the Theorem 1 adversarial execution.

Every model's ``observe`` returns its *environment delta* (see
:meth:`repro.kernel.algorithm.Environment.observe`): the professors whose
``RequestIn``/``RequestOut`` answer it just flipped, so the incremental engine
refreshes only those between steps.  :class:`ScriptedEnvironment` returns
``None``, because a script may read anything.

:func:`environment_from_spec` builds the first three from a compact spec
string (``"always"``, ``"probabilistic[:P]"``, ``"bursty[:ACTIVE:QUIET]"``)
— the vocabulary the campaign engine's jobs and the randomized scenarios
share, so the two construction paths cannot drift.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set

from repro.core.states import DONE, STATUS
from repro.kernel.algorithm import Environment
from repro.kernel.configuration import Configuration, ProcessId


class _DoneCounterMixin:
    """Tracks, per professor, how many observed steps it has spent in ``done``.

    ``RequestOut`` built on this counter satisfies the paper's requirement:
    it becomes true after the professor has had time for its voluntary
    discussion and stays true until the professor actually leaves (leaving is
    the only way its status stops being ``done``).
    """

    def __init__(self) -> None:
        self._done_steps: Dict[ProcessId, int] = {}
        self._essential_discussions: Dict[ProcessId, int] = {}

    def reset(self) -> None:
        self._done_steps.clear()
        self._essential_discussions.clear()

    def observe(self, configuration: Configuration, step_index: int) -> List[ProcessId]:
        """Advance the counters; return the processes whose counter-based
        ``RequestOut`` (``done_steps(pid) >= _limit(pid)``) flipped.

        Only processes that are, or just were, ``done`` get a limit lookup.
        """
        counts = self._done_steps
        limit = self._limit
        flipped: List[ProcessId] = []
        for pid, state in configuration.states_view().items():
            count = counts.get(pid, 0)
            if state.get(STATUS) == DONE:
                counts[pid] = count + 1
                if count < limit(pid) <= count + 1:
                    flipped.append(pid)
            elif count:
                counts[pid] = 0
                if 0 < limit(pid) <= count:
                    flipped.append(pid)
        return flipped

    def _limit(self, pid: ProcessId) -> float:
        """The ``done_steps`` count from which the counter-based ``RequestOut(pid)`` holds."""
        return self._discussion_steps

    def request_out(self, pid: ProcessId, configuration: Configuration) -> bool:
        return self.done_steps(pid) >= self._limit(pid)

    def on_essential_discussion(self, pid: ProcessId) -> None:
        self._essential_discussions[pid] = self._essential_discussions.get(pid, 0) + 1

    def done_steps(self, pid: ProcessId) -> int:
        return self._done_steps.get(pid, 0)

    def essential_discussions(self, pid: ProcessId) -> int:
        return self._essential_discussions.get(pid, 0)


class AlwaysRequestingEnvironment(_DoneCounterMixin, Environment):
    """Professors always want to meet; they leave after ``discussion_steps`` in ``done``.

    ``discussion_steps`` may be an integer (same voluntary discussion length
    for everyone) or a mapping / callable per professor, which lets the
    waiting-time benchmark vary ``maxDisc``.
    """

    def __init__(
        self,
        discussion_steps: int | Mapping[ProcessId, int] | Callable[[ProcessId], int] = 1,
    ) -> None:
        _DoneCounterMixin.__init__(self)
        self._discussion_steps = discussion_steps

    def _limit(self, pid: ProcessId) -> int:
        steps = self._discussion_steps
        if isinstance(steps, int):
            return steps
        if callable(steps):
            return int(steps(pid))
        if isinstance(steps, Mapping):
            return int(steps.get(pid, 1))
        return int(steps)

    def request_in(self, pid: ProcessId, configuration: Configuration) -> bool:
        return True


class ProbabilisticRequestEnvironment(_DoneCounterMixin, Environment):
    """Bernoulli ``RequestIn``; finite meetings.

    An idle professor requests a meeting with probability
    ``request_probability``.  The draw is memoised per (pid, "idle spell") so
    that the predicate does not flap within a spell, which keeps executions
    realistic while remaining weakly fair at the problem level (each
    professor has infinitely many chances to request).

    The draws happen in :meth:`observe` — once per idle spell, in sorted
    process order, *outside* guard evaluation — so evaluating a guard more
    or fewer times cannot touch the RNG stream: ``request_in`` is a pure
    read of the memoised decision, as the guard purity contract of
    :class:`~repro.kernel.algorithm.Environment` requires, and dense and
    incremental runs of the same seed produce identical traces.
    """

    def __init__(
        self,
        request_probability: float = 0.7,
        discussion_steps: int = 1,
        seed: Optional[int] = None,
    ) -> None:
        _DoneCounterMixin.__init__(self)
        if not 0.0 < request_probability <= 1.0:
            raise ValueError("request_probability must be in (0, 1]")
        self._p = request_probability
        self._discussion_steps = discussion_steps
        self._rng = random.Random(seed)
        self._pending: Dict[ProcessId, bool] = {}

    def reset(self) -> None:
        super().reset()
        self._pending.clear()

    def observe(self, configuration: Configuration, step_index: int) -> List[ProcessId]:
        flipped = super().observe(configuration, step_index)
        # Memoise the requests for the *next* guard sweep: professors that
        # left the idle state get a fresh draw next spell; idle professors
        # without a memoised decision draw now, in sorted process order (the
        # scheduler observes the initial configuration at construction, so
        # draws exist before the first guard is ever evaluated).  A dropped
        # or fresh ``True`` flips ``RequestIn``.
        pending = self._pending
        for pid in configuration:
            if configuration.get(pid, STATUS) != "idle":
                if pending.pop(pid, False):
                    flipped.append(pid)
            elif pid not in pending:
                wants = pending[pid] = self._rng.random() < self._p
                if wants:
                    flipped.append(pid)
        return flipped

    def request_in(self, pid: ProcessId, configuration: Configuration) -> bool:
        return self._pending.get(pid, False)


class BurstyRequestEnvironment(_DoneCounterMixin, Environment):
    """Professors alternate between active and quiet phases.

    During an active phase ``RequestIn`` is true, during a quiet phase it is
    false.  Phase lengths are fixed per environment; professors are staggered
    by their id so the bursts overlap only partially -- a simple model of the
    bursty interaction patterns of component-based systems (BIP, Section 1).
    """

    def __init__(
        self,
        active_steps: int = 20,
        quiet_steps: int = 10,
        discussion_steps: int = 1,
    ) -> None:
        _DoneCounterMixin.__init__(self)
        if active_steps < 1 or quiet_steps < 0:
            raise ValueError("invalid phase lengths")
        self._active = active_steps
        self._quiet = quiet_steps
        self._discussion_steps = discussion_steps
        self._step = 0

    def reset(self) -> None:
        super().reset()
        self._step = 0

    def observe(self, configuration: Configuration, step_index: int) -> List[ProcessId]:
        flipped = super().observe(configuration, step_index)
        before, self._step = self._step, step_index + 1
        if self._quiet and before != self._step:
            flipped.extend(
                pid
                for pid in configuration.states_view()
                if self._active_at(before, pid) != self._active_at(self._step, pid)
            )
        return flipped

    def _active_at(self, step: int, pid: ProcessId) -> bool:
        """Is ``pid`` in an active phase at ``step``?"""
        return (step + pid * 3) % (self._active + self._quiet) < self._active

    def request_in(self, pid: ProcessId, configuration: Configuration) -> bool:
        return self._active_at(self._step, pid)


class InfiniteMeetingEnvironment(_DoneCounterMixin, Environment):
    """Meetings never end (the Definitions 2 / 5 artefact).

    Following the paper's formalization exactly (Section 4.2): for every
    professor ``p``,

    * if ``p`` is involved in a meeting, the meeting never ends, so
      ``RequestOut(p)`` never holds;
    * if ``p`` satisfies ``S_p = done`` but ``¬Meeting(p)`` -- e.g. a stale
      ``done`` status inherited from an arbitrary initial configuration --
      then ``RequestOut(p)`` eventually holds, letting ``p`` re-enter the
      game.

    Distinguishing the two cases requires knowing the hypergraph; pass it at
    construction (the concurrency measurements do).  Without a hypergraph the
    environment degenerates to ``RequestOut ≡ false``.
    """

    def __init__(self, hypergraph: "object" = None) -> None:
        _DoneCounterMixin.__init__(self)
        self._hypergraph = hypergraph

    def _limit(self, pid: ProcessId) -> float:
        return math.inf  # neither predicate reads the counters: none ever flips

    def _participates_in_meeting(self, pid: ProcessId, configuration: Configuration) -> bool:
        if self._hypergraph is None:
            return True  # conservatively treat done as "in a meeting"
        from repro.core.states import DONE as _DONE, POINTER as _P, WAITING as _W

        for edge in self._hypergraph.incident_edges(pid):
            if all(
                configuration.get(q, _P) == edge and configuration.get(q, STATUS) in (_W, _DONE)
                for q in edge
            ):
                return True
        return False

    def request_in(self, pid: ProcessId, configuration: Configuration) -> bool:
        return True

    def request_out(self, pid: ProcessId, configuration: Configuration) -> bool:
        if configuration.get(pid, STATUS) != DONE:
            return False
        # A professor in a real meeting never wants to leave; a professor with
        # a stale done status (no meeting behind it) eventually does.
        return not self._participates_in_meeting(pid, configuration)


class SelectiveInfiniteMeetingEnvironment(AlwaysRequestingEnvironment):
    """A chosen set of professors never leaves; the rest behave normally.

    Realizes the ``P1`` / ``P2`` split of Definition 2 (Maximal Concurrency):
    the professors in ``frozen`` stay in their meetings forever, everybody
    else requests and leaves as in :class:`AlwaysRequestingEnvironment`.
    """

    def __init__(
        self,
        frozen: Iterable[ProcessId],
        discussion_steps: int | Mapping[ProcessId, int] | Callable[[ProcessId], int] = 1,
        hypergraph: "object" = None,
    ) -> None:
        super().__init__(discussion_steps)
        self._frozen: Set[ProcessId] = set(frozen)
        self._hypergraph = hypergraph

    def _frozen_in_meeting(self, pid: ProcessId, configuration: Configuration) -> bool:
        if self._hypergraph is None:
            return True
        from repro.core.states import DONE as _DONE, POINTER as _P, WAITING as _W

        for edge in self._hypergraph.incident_edges(pid):
            if all(
                configuration.get(q, _P) == edge and configuration.get(q, STATUS) in (_W, _DONE)
                for q in edge
            ):
                return True
        return False

    def request_out(self, pid: ProcessId, configuration: Configuration) -> bool:
        if pid in self._frozen:
            # A frozen professor never leaves a *real* meeting; a stale done
            # status (arbitrary initial configuration) is abandoned as usual.
            if configuration.get(pid, STATUS) != DONE:
                return False
            return not self._frozen_in_meeting(pid, configuration)
        return super().request_out(pid, configuration)


class ScriptedEnvironment(_DoneCounterMixin, Environment):
    """Fully scripted request predicates.

    ``request_in_script`` / ``request_out_script`` map a professor id to a
    predicate over ``(configuration, step_count)``.  Unscripted professors
    fall back to always-requesting with a one-step voluntary discussion.
    Used to replay the executions of Figures 3 and 4 and the adversarial
    schedule of the Theorem 1 benchmark.
    """

    def __init__(
        self,
        request_in_script: Optional[Mapping[ProcessId, Callable[[Configuration, int], bool]]] = None,
        request_out_script: Optional[Mapping[ProcessId, Callable[[Configuration, int], bool]]] = None,
        default_discussion_steps: int = 1,
    ) -> None:
        _DoneCounterMixin.__init__(self)
        self._in_script = dict(request_in_script or {})
        self._out_script = dict(request_out_script or {})
        self._discussion_steps = default_discussion_steps
        self._step = 0

    def reset(self) -> None:
        super().reset()
        self._step = 0

    def observe(self, configuration: Configuration, step_index: int) -> None:
        super().observe(configuration, step_index)
        self._step = step_index + 1
        return None  # a script may read anything: flips cannot be told

    def request_in(self, pid: ProcessId, configuration: Configuration) -> bool:
        if pid in self._in_script:
            return bool(self._in_script[pid](configuration, self._step))
        return True

    def request_out(self, pid: ProcessId, configuration: Configuration) -> bool:
        if pid in self._out_script:
            return bool(self._out_script[pid](configuration, self._step))
        return super().request_out(pid, configuration)


def environment_from_spec(
    spec: str,
    discussion_steps: int = 1,
    seed: Optional[int] = None,
) -> Environment:
    """Build an environment from a compact, JSONL/CLI-friendly spec string.

    ``"always"``, ``"probabilistic[:P]"`` (default ``P=0.7``) or
    ``"bursty[:ACTIVE:QUIET]"`` (defaults ``20:10``).  ``seed`` feeds the
    probabilistic model's RNG through a fixed derivation (``seed * 31 + 7``)
    so every caller — campaign jobs, randomized scenarios — draws the same
    request stream for the same seed.  Raises :class:`ValueError` on an
    unknown kind or malformed parameters, which the campaign matrix uses to
    validate eagerly, before any worker is spawned.
    """
    kind, _, params = spec.partition(":")
    try:
        if kind == "always":
            if params:
                raise ValueError("'always' takes no parameters")
            return AlwaysRequestingEnvironment(discussion_steps)
        if kind == "probabilistic":
            return ProbabilisticRequestEnvironment(
                request_probability=float(params or "0.7"),
                discussion_steps=discussion_steps,
                seed=None if seed is None else seed * 31 + 7,
            )
        if kind == "bursty":
            active, _, quiet = params.partition(":")
            return BurstyRequestEnvironment(
                active_steps=int(active or "20"),
                quiet_steps=int(quiet or "10"),
                discussion_steps=discussion_steps,
            )
    except ValueError as exc:
        raise ValueError(f"bad environment spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown environment spec {spec!r}: expected 'always', "
        "'probabilistic[:P]' or 'bursty[:ACTIVE:QUIET]'"
    )
