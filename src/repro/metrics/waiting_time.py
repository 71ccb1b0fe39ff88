"""Waiting time (Definition 6, Theorem 6).

Waiting time is the maximum time before a process participates in a
committee meeting.  Theorem 6 bounds it for ``CC2 ∘ TC`` by
``O(maxDisc × n)`` rounds, where ``maxDisc`` is the maximum number of rounds
a process discusses in a meeting and ``n`` the number of processes.

The measurement below runs the algorithm with an always-requesting
environment (the fairness assumption) whose discussion length realizes
``maxDisc``, extracts for every professor the lengths of its waiting spells
(from the moment it starts waiting, i.e. is not in a meeting, until the next
configuration in which it participates in one), and reports the maximum --
in *rounds*, to match the theorem, and in steps for reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.base import CommitteeAlgorithmBase
from repro.core.states import DONE, STATUS, WAITING, POINTER
from repro.hypergraph.hypergraph import Hypergraph, ProcessId
from repro.kernel.daemon import Daemon, default_daemon
from repro.kernel.faults import arbitrary_configuration
from repro.kernel.scheduler import Scheduler
from repro.kernel.trace import Trace
from repro.spec.events import committee_meets
from repro.workloads.request_models import AlwaysRequestingEnvironment


@dataclass(frozen=True)
class WaitingTimeResult:
    """Waiting-time statistics of one run."""

    max_wait_steps: int
    max_wait_rounds: float
    mean_wait_steps: float
    spells: int
    n: int
    max_disc: int
    steps: int
    rounds: int

    @property
    def theorem6_reference(self) -> float:
        """The ``maxDisc × n`` quantity the bound is stated against (in rounds)."""
        return float(self.max_disc * self.n)

    def as_row(self) -> dict:
        return {
            "n": self.n,
            "maxDisc": self.max_disc,
            "max_wait_rounds": round(self.max_wait_rounds, 2),
            "max_wait_steps": self.max_wait_steps,
            "mean_wait_steps": round(self.mean_wait_steps, 2),
            "maxDisc*n": self.theorem6_reference,
        }


def _participating(configuration, hypergraph: Hypergraph, pid: ProcessId) -> bool:
    """Is ``pid`` participating in some meeting in ``configuration``?"""
    for edge in hypergraph.incident_edges(pid):
        if committee_meets(configuration, edge):
            return True
    return False


class WaitingSpellTracker:
    """Online waiting-spell extraction over a stream of configurations.

    Feed configurations in trace order to :meth:`observe`; :meth:`spells`
    returns, at any point, the same per-professor spell lengths as
    :func:`waiting_spells` over the configurations observed so far.  This is
    the streaming counterpart used for sparse runs, where the trace does not
    retain the configurations.
    """

    def __init__(self, hypergraph: Hypergraph) -> None:
        self._hypergraph = hypergraph
        self._spells: Dict[ProcessId, List[int]] = {p: [] for p in hypergraph.vertices}
        self._open_since: Dict[ProcessId, Optional[int]] = {
            p: None for p in hypergraph.vertices
        }
        self._index = 0

    def observe(self, configuration, record=None) -> None:
        """Consume the next configuration (usable as a scheduler ``step_listener``)."""
        index = self._index
        for pid in self._hypergraph.vertices:
            if _participating(configuration, self._hypergraph, pid):
                if self._open_since[pid] is not None:
                    self._spells[pid].append(index - self._open_since[pid])
                    self._open_since[pid] = None
            elif self._open_since[pid] is None:
                self._open_since[pid] = index
        self._index += 1

    def spells(self) -> Dict[ProcessId, List[int]]:
        """Completed spells plus, for each professor, the spell (if any) still
        open at the last observed configuration, closed by the stream end."""
        result = {pid: list(lengths) for pid, lengths in self._spells.items()}
        last_index = self._index - 1
        if last_index >= 0:
            for pid, start in self._open_since.items():
                if start is not None:
                    result[pid].append(last_index - start)
        return result


def waiting_spells(trace: Trace, hypergraph: Hypergraph) -> Dict[ProcessId, List[int]]:
    """Lengths (in steps) of every completed waiting spell of every professor.

    A waiting spell starts when the professor is not participating in any
    meeting and ends at the first later configuration in which it is.  Spells
    still open at the end of the trace are reported as well (they are what a
    starved professor accumulates), closed by the trace end — including a
    spell that only opens at the very last configuration (length 0).

    Raises :class:`ValueError` on sparse traces
    (``record_configurations=False``), whose configuration sequence is not
    retained: use :class:`WaitingSpellTracker` as a scheduler
    ``step_listener`` to measure waiting spells on such runs instead.
    """
    trace.require_dense("waiting_spells")
    tracker = WaitingSpellTracker(hypergraph)
    for configuration in trace.configurations:
        tracker.observe(configuration)
    return tracker.spells()


def measure_waiting_time(
    algorithm: CommitteeAlgorithmBase,
    max_disc: int = 2,
    max_steps: int = 4000,
    daemon: Optional[Daemon] = None,
    seed: Optional[int] = None,
    from_arbitrary: bool = False,
) -> WaitingTimeResult:
    """Run the algorithm and measure its waiting time.

    ``max_disc`` is realized as the number of steps a professor insists on
    spending in the ``done`` status before requesting out (its voluntary
    discussion length).
    """
    environment = AlwaysRequestingEnvironment(discussion_steps=max_disc)
    daemon = daemon if daemon is not None else default_daemon(seed=seed)
    initial = arbitrary_configuration(algorithm, seed=seed) if from_arbitrary else None
    scheduler = Scheduler(
        algorithm, environment=environment, daemon=daemon, initial_configuration=initial
    )
    result = scheduler.run(max_steps=max_steps)
    trace = result.trace
    hypergraph = algorithm.hypergraph
    spells = waiting_spells(trace, hypergraph)
    all_spells = [length for lengths in spells.values() for length in lengths]
    max_wait_steps = max(all_spells) if all_spells else 0
    mean_wait_steps = (sum(all_spells) / len(all_spells)) if all_spells else 0.0
    # Convert the maximum waiting spell from steps to rounds by scaling with
    # the trace's overall steps-per-round ratio (rounds are a global notion,
    # so this is the natural per-spell estimate).
    steps_per_round = (trace.length / trace.rounds) if trace.rounds else float(trace.length or 1)
    max_wait_rounds = max_wait_steps / steps_per_round if steps_per_round else float(max_wait_steps)
    return WaitingTimeResult(
        max_wait_steps=max_wait_steps,
        max_wait_rounds=max_wait_rounds,
        mean_wait_steps=mean_wait_steps,
        spells=len(all_spells),
        n=hypergraph.n,
        max_disc=max_disc,
        steps=trace.length,
        rounds=trace.rounds,
    )
