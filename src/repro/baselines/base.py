"""Common round-based engine for the baseline coordinators.

The baselines of Section 6 are message-passing or semaphore-style algorithms
whose fine-grained mechanics are orthogonal to what the comparison benchmark
measures (throughput, concurrency, fairness).  They are therefore modelled as
*round-based* coordinators: every round,

1. idle professors decide whether to start waiting (per the request model),
2. the coordinator's policy picks which committees convene among the
   *eligible* ones (all members waiting, no conflict with a meeting in
   progress) -- this is where the baselines differ,
3. meetings in progress age and terminate after their discussion duration,
   returning their members to the idle state.

Exclusion and Synchronization hold by construction (step 2 only offers
eligible, mutually non-conflicting committees); Progress and fairness depend
on the policy, which is exactly the paper's point of comparison.

This simplification is recorded under "Substitutions" in
docs/ARCHITECTURE.md: the baselines are *policy-faithful* rather than
*protocol-faithful*.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.hypergraph.hypergraph import Hyperedge, Hypergraph, ProcessId


@dataclass
class BaselineResult:
    """Metrics of one baseline run (mirrors :class:`~repro.metrics.throughput.ThroughputResult`)."""

    rounds: int
    meetings_convened: int
    per_professor: Dict[ProcessId, int]
    per_committee: Dict[Tuple[ProcessId, ...], int]
    concurrency_profile: List[int] = field(default_factory=list)

    @property
    def meetings_per_round(self) -> float:
        return self.meetings_convened / self.rounds if self.rounds else 0.0

    @property
    def mean_concurrency(self) -> float:
        if not self.concurrency_profile:
            return 0.0
        return sum(self.concurrency_profile) / len(self.concurrency_profile)

    @property
    def peak_concurrency(self) -> int:
        return max(self.concurrency_profile) if self.concurrency_profile else 0

    @property
    def min_professor_participations(self) -> int:
        return min(self.per_professor.values()) if self.per_professor else 0

    @property
    def starved_professors(self) -> Tuple[ProcessId, ...]:
        return tuple(sorted(p for p, c in self.per_professor.items() if c == 0))

    def jain_fairness_index(self) -> float:
        values = list(self.per_professor.values())
        if not values or all(v == 0 for v in values):
            return 0.0
        return sum(values) ** 2 / (len(values) * sum(v * v for v in values))

    def as_row(self) -> dict:
        return {
            "rounds": self.rounds,
            "meetings": self.meetings_convened,
            "meetings/round": round(self.meetings_per_round, 3),
            "mean_conc": round(self.mean_concurrency, 3),
            "peak_conc": self.peak_concurrency,
            "min_part": self.min_professor_participations,
            "jain": round(self.jain_fairness_index(), 3),
        }


class BaselineCoordinator(abc.ABC):
    """Round-based committee coordinator skeleton.

    Parameters
    ----------
    hypergraph:
        Professors and committees.
    meeting_duration:
        Number of rounds a meeting lasts once convened.
    request_probability:
        Probability that an idle professor starts waiting in a given round
        (1.0 reproduces the always-requesting assumption of the fair
        algorithms).
    seed:
        RNG seed.
    """

    name: str = "baseline"

    def __init__(
        self,
        hypergraph: Hypergraph,
        meeting_duration: int = 2,
        request_probability: float = 1.0,
        seed: Optional[int] = None,
    ) -> None:
        if meeting_duration < 1:
            raise ValueError("meeting_duration must be >= 1")
        if not 0.0 < request_probability <= 1.0:
            raise ValueError("request_probability must be in (0, 1]")
        self.hypergraph = hypergraph
        self.meeting_duration = meeting_duration
        self.request_probability = request_probability
        self.rng = random.Random(seed)
        # dynamic state
        self.waiting: Set[ProcessId] = set()
        self.meeting_of: Dict[ProcessId, Hyperedge] = {}
        self.remaining: Dict[Hyperedge, int] = {}
        self.round_index = 0
        # Delta-driven eligibility (the round engine's analog of the
        # scheduler's dirty-set protocol): instead of re-scanning every
        # committee's full member list each round, maintain a per-committee
        # count of waiting members, updated only when a professor's waiting
        # status actually changes; a committee is eligible iff it is not in
        # progress and its count equals its size (waiting and meeting are
        # disjoint by construction, so "no member busy" is implied).
        self._edge_index: Dict[Hyperedge, int] = {
            e: i for i, e in enumerate(hypergraph.hyperedges)
        }
        self._incident: Dict[ProcessId, Tuple[Hyperedge, ...]] = {
            p: hypergraph.incident_edges(p) for p in hypergraph.vertices
        }
        self._waiting_count: Dict[Hyperedge, int] = {
            e: 0 for e in hypergraph.hyperedges
        }
        self._eligible: Set[Hyperedge] = set()
        # statistics
        self.per_professor: Dict[ProcessId, int] = {p: 0 for p in hypergraph.vertices}
        self.per_committee: Dict[Tuple[ProcessId, ...], int] = {
            e.members: 0 for e in hypergraph.hyperedges
        }
        self.concurrency_profile: List[int] = []

    # ------------------------------------------------------------------ #
    # policy hook
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def choose_committees(self, eligible: List[Hyperedge]) -> List[Hyperedge]:
        """Pick which eligible committees convene this round.

        ``eligible`` lists committees whose members are all waiting and that
        do not conflict with any meeting in progress.  The returned list must
        be a subset of ``eligible`` whose members are pairwise disjoint; the
        engine re-checks this and drops offending committees (keeping the
        earlier ones), so a sloppy policy cannot violate Exclusion.
        """

    # ------------------------------------------------------------------ #
    # engine
    # ------------------------------------------------------------------ #
    def _start_waiting(self, pid: ProcessId) -> None:
        """Move ``pid`` into the waiting set, updating committee eligibility."""
        if pid in self.waiting:
            return
        self.waiting.add(pid)
        counts = self._waiting_count
        for edge in self._incident[pid]:
            counts[edge] += 1
            if counts[edge] == edge.size and edge not in self.remaining:
                self._eligible.add(edge)

    def _stop_waiting(self, pid: ProcessId) -> None:
        """Remove ``pid`` from the waiting set, updating committee eligibility."""
        if pid not in self.waiting:
            return
        self.waiting.discard(pid)
        counts = self._waiting_count
        for edge in self._incident[pid]:
            counts[edge] -= 1
            self._eligible.discard(edge)

    def _eligible_committees(self) -> List[Hyperedge]:
        """Committees all of whose members wait, none busy, none in progress.

        Served from the incrementally maintained eligible set (see
        ``__init__``); only the hyperedge-order sort — required so policies
        see candidates in the same deterministic order as the historical
        full scan — touches more than the committees whose membership
        actually changed.
        """
        return sorted(self._eligible, key=self._edge_index.__getitem__)

    def step_round(self) -> List[Hyperedge]:
        """Advance one round; returns the committees that convened."""
        # 1. idle professors may start waiting.
        for pid in self.hypergraph.vertices:
            if pid in self.waiting or pid in self.meeting_of:
                continue
            if self.request_probability >= 1.0 or self.rng.random() < self.request_probability:
                self._start_waiting(pid)

        # 2. the policy convenes committees.
        eligible = self._eligible_committees()
        eligible_set = self._eligible
        convened: List[Hyperedge] = []
        used: Set[ProcessId] = set(self.meeting_of)
        for edge in self.choose_committees(list(eligible)):
            if edge not in eligible_set:
                continue
            if any(member in used for member in edge):
                continue
            convened.append(edge)
            used.update(edge.members)
        for edge in convened:
            self.remaining[edge] = self.meeting_duration
            self._eligible.discard(edge)
            self.per_committee[edge.members] += 1
            for member in edge:
                self._stop_waiting(member)
                self.meeting_of[member] = edge
                self.per_professor[member] += 1

        # 3. meetings age and terminate.
        finished = []
        for edge in list(self.remaining):
            self.remaining[edge] -= 1
            if self.remaining[edge] <= 0:
                finished.append(edge)
        for edge in finished:
            del self.remaining[edge]
            for member in edge:
                self.meeting_of.pop(member, None)
            # No eligibility update needed here: every member of the ended
            # meeting is idle (not waiting), so the committee only becomes
            # eligible again through ``_start_waiting`` in phase 1 of a
            # later round.

        self.concurrency_profile.append(len(self.remaining))
        self.round_index += 1
        return convened

    def run(self, rounds: int = 500) -> BaselineResult:
        """Run for a fixed number of rounds and return the aggregated metrics."""
        total_convened = 0
        for _ in range(rounds):
            total_convened += len(self.step_round())
        return BaselineResult(
            rounds=self.round_index,
            meetings_convened=total_convened,
            per_professor=dict(self.per_professor),
            per_committee=dict(self.per_committee),
            concurrency_profile=list(self.concurrency_profile),
        )
