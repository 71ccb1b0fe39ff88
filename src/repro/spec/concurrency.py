"""Maximal Concurrency (Definition 2) and Degree of Fair Concurrency (Definition 5).

Both definitions use the same artefact: let (some) professors remain in their
meetings forever and observe which meetings the algorithm still manages to
convene.  Operationally we run the algorithm under
:class:`~repro.workloads.request_models.InfiniteMeetingEnvironment` (nobody
ever leaves) until the set of held meetings stops changing, then:

* **Maximal Concurrency** holds for the run iff the held meetings form a
  *maximal matching* of the hypergraph -- equivalently, no committee remains
  whose members are all still waiting (if one did, Definition 2 would require
  a further meeting to convene);
* the **Degree of Fair Concurrency** observed in the run is simply the
  number of held meetings in the quiescent configuration; Theorem 4 lower-
  bounds the worst case over all runs by ``min_{MM ∪ AMM}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.base import CommitteeAlgorithmBase
from repro.core.states import LOOKING, STATUS, WAITING
from repro.hypergraph.hypergraph import Hyperedge, Hypergraph, ProcessId
from repro.kernel.configuration import Configuration
from repro.kernel.daemon import Daemon, default_daemon
from repro.kernel.faults import arbitrary_configuration
from repro.kernel.scheduler import Scheduler
from repro.spec.events import meetings_in
from repro.spec.properties import PropertyReport
from repro.workloads.request_models import InfiniteMeetingEnvironment


@dataclass(frozen=True)
class ConcurrencyMeasurement:
    """Result of one infinite-meeting ("quiescence") experiment."""

    meetings_held: Tuple[Hyperedge, ...]
    held_is_maximal_matching: bool
    blocked_free_committees: Tuple[Hyperedge, ...]
    steps: int
    terminated: bool

    @property
    def degree(self) -> int:
        """Number of meetings held once the system went quiescent."""
        return len(self.meetings_held)


def _fully_waiting_committees(
    configuration: Configuration, hypergraph: Hypergraph, held: Sequence[Hyperedge]
) -> Tuple[Hyperedge, ...]:
    """Committees whose members are all waiting (and which do not themselves meet)."""
    in_meeting = set()
    for edge in held:
        in_meeting.update(edge.members)
    blocked: List[Hyperedge] = []
    for edge in hypergraph.hyperedges:
        if edge in held:
            continue
        if all(
            member not in in_meeting
            and configuration.get(member, STATUS) in (LOOKING, WAITING)
            for member in edge
        ):
            blocked.append(edge)
    return tuple(blocked)


def measure_fair_concurrency(
    algorithm: CommitteeAlgorithmBase,
    daemon: Optional[Daemon] = None,
    max_steps: int = 4000,
    settle_steps: int = 200,
    seed: Optional[int] = None,
    from_arbitrary: bool = False,
) -> ConcurrencyMeasurement:
    """Run the infinite-meeting experiment and report the quiescent meeting set.

    The run stops as soon as the set of held meetings has not changed for
    ``settle_steps`` consecutive steps (or at ``max_steps``, or at a terminal
    configuration).  ``from_arbitrary`` starts from an arbitrary configuration
    instead of the legitimate one (the degree of fair concurrency is a
    worst-case notion, so the benchmarks sweep both).
    """
    hypergraph = algorithm.hypergraph
    scheduler = Scheduler(
        algorithm,
        environment=InfiniteMeetingEnvironment(hypergraph=hypergraph),
        daemon=daemon if daemon is not None else default_daemon(seed=seed),
        initial_configuration=(
            arbitrary_configuration(algorithm, seed=seed) if from_arbitrary else None
        ),
        record_configurations=False,
    )
    last_held: Tuple[Hyperedge, ...] = meetings_in(scheduler.configuration, hypergraph)
    stable_for = 0

    def settled(configuration: Configuration, _step_index: int) -> bool:
        nonlocal last_held, stable_for
        held = meetings_in(configuration, hypergraph)
        if held == last_held:
            stable_for += 1
        else:
            stable_for, last_held = 0, held
        return stable_for >= settle_steps

    result = scheduler.run(max_steps=max_steps, stop_predicate=settled)
    final = scheduler.configuration
    held = meetings_in(final, hypergraph)
    blocked = _fully_waiting_committees(final, hypergraph, held)
    return ConcurrencyMeasurement(
        meetings_held=held,
        held_is_maximal_matching=not blocked,
        blocked_free_committees=blocked,
        steps=result.steps,
        terminated=result.terminated,
    )


def check_maximal_concurrency(
    algorithm: CommitteeAlgorithmBase,
    trials: int = 3,
    max_steps: int = 4000,
    seed: Optional[int] = None,
) -> PropertyReport:
    """Definition 2 check: with infinite meetings, no fully-waiting committee survives.

    Several randomized trials are run (different daemon seeds); a violation in
    any trial falsifies Maximal Concurrency for the algorithm on this
    hypergraph.  A passing report means every trial ended with the held
    meetings forming a maximal matching.
    """
    violations: List[str] = []
    base_seed = 0 if seed is None else seed
    for trial in range(trials):
        measurement = measure_fair_concurrency(
            algorithm, max_steps=max_steps, seed=base_seed + trial
        )
        if not measurement.held_is_maximal_matching:
            blocked = [tuple(e.members) for e in measurement.blocked_free_committees]
            violations.append(
                f"trial {trial}: committees {blocked} had every member waiting but never convened "
                f"(held meetings: {[tuple(e.members) for e in measurement.meetings_held]})"
            )
    return PropertyReport("MaximalConcurrency", not violations, violations)
