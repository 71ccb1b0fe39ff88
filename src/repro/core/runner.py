"""High-level user API.

:class:`CommitteeCoordinator` wires together a hypergraph, one of the three
committee coordination algorithms, a token-circulation substrate, a request
model and a daemon, runs the simulation, and returns a
:class:`SimulationOutcome` bundling the trace, the meeting events and the
summary metrics.  It is the entry point the examples, the CLI and most
benchmarks use::

    from repro import CommitteeCoordinator, figure1_hypergraph

    coordinator = CommitteeCoordinator(figure1_hypergraph(), algorithm="cc2", seed=1)
    outcome = coordinator.run(max_steps=2000)
    print(outcome.metrics.as_row())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import CommitteeAlgorithmBase
from repro.core.cc1 import CC1Algorithm
from repro.core.cc2 import CC2Algorithm
from repro.core.cc3 import CC3Algorithm
from repro.core.composition import TokenBinding
from repro.hypergraph.hypergraph import Hyperedge, Hypergraph, ProcessId
from repro.kernel.algorithm import Environment
from repro.kernel.configuration import Configuration
from repro.kernel.daemon import DAEMON_NAMES, Daemon, daemon_from_name
from repro.kernel.faults import arbitrary_configuration
from repro.kernel.scheduler import ENGINES, Scheduler, SchedulerResult
from repro.kernel.trace import Trace
from repro.metrics.collector import StreamingMetricsCollector, TraceMetrics, collect_metrics
from repro.spec.events import MeetingEvent, convened_meetings, meeting_events
from repro.spec.fairness import FairnessSummary, professor_fairness_counts
from repro.spec.streaming import SpecVerdicts, StreamingSpecSuite
from repro.tokenring.dijkstra_ring import DijkstraRingToken
from repro.tokenring.oracle import OracleTokenModule
from repro.tokenring.tree_circulation import TreeTokenCirculation
from repro.workloads.request_models import AlwaysRequestingEnvironment

ALGORITHMS = ("cc1", "cc2", "cc3")
TOKEN_MODULES = ("tree", "ring", "oracle")
DAEMONS = DAEMON_NAMES


@dataclass
class SimulationOutcome:
    """Everything a caller usually wants from one simulation run."""

    trace: Trace
    result: SchedulerResult
    metrics: TraceMetrics
    events: List[MeetingEvent]
    fairness: FairnessSummary
    hypergraph: Hypergraph
    algorithm_name: str
    #: Streaming spec verdicts (``run(check=True)``); ``None`` otherwise.
    spec: Optional[SpecVerdicts] = None

    @property
    def final(self) -> Configuration:
        return self.trace.final

    @property
    def meetings_convened(self) -> int:
        # Delegate to the metrics, which are exact on dense *and* sparse
        # runs (the events list stays empty when configurations are not
        # recorded, so summing it would silently report 0 on sparse runs).
        return self.metrics.meetings_convened

    @property
    def steps(self) -> int:
        return self.result.steps

    @property
    def rounds(self) -> int:
        return self.result.rounds


class CommitteeCoordinator:
    """Facade building and running a ``CC ∘ TC`` composition.

    Parameters
    ----------
    hypergraph:
        Professors and committees.
    algorithm:
        ``"cc1"`` (Maximal Concurrency), ``"cc2"`` (Professor Fairness) or
        ``"cc3"`` (Committee Fairness).
    token:
        Token substrate: ``"tree"`` (default, circulation along a spanning
        tree of ``G_H``), ``"ring"`` (virtual id-ordered Dijkstra ring) or
        ``"oracle"`` (pre-stabilized ring).
    daemon:
        ``"weakly_fair"`` (default), ``"synchronous"``, or a
        :class:`~repro.kernel.daemon.Daemon` instance.
    seed:
        Seed for the daemon / arbitrary-configuration RNG.
    engine:
        Execution engine: ``"incremental"`` (the default via ``None``/
        ``"auto"`` — copy-on-write configurations plus enabled-set reuse via
        the per-variable dirty-set protocol; identical traces for a fixed
        seed, measurably faster at scale) or ``"dense"`` (the reference
        double-sweep scheduler).  See :mod:`repro.kernel.scheduler`.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        algorithm: str = "cc2",
        token: str = "tree",
        daemon: str | Daemon = "weakly_fair",
        seed: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> None:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
        if engine is not None and engine != "auto" and engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES} "
                "(or None/'auto' to pick automatically)"
            )
        self.hypergraph = hypergraph
        self.algorithm_name = algorithm
        self.seed = seed
        self.engine = engine
        self._token_name = token
        self._daemon_spec = daemon
        self.algorithm = self._build_algorithm(algorithm, token)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _build_token(self, token: str) -> TokenBinding:
        if isinstance(token, TokenBinding):
            return token
        if token == "tree":
            module = TreeTokenCirculation(self.hypergraph)
        elif token == "ring":
            module = DijkstraRingToken(self.hypergraph.vertices)
        elif token == "oracle":
            module = OracleTokenModule(self.hypergraph.vertices)
        else:
            raise ValueError(f"unknown token module {token!r}; expected one of {TOKEN_MODULES}")
        return TokenBinding(module)

    def _build_algorithm(self, algorithm: str, token: str) -> CommitteeAlgorithmBase:
        binding = self._build_token(token)
        if algorithm == "cc1":
            return CC1Algorithm(self.hypergraph, binding)
        if algorithm == "cc2":
            return CC2Algorithm(self.hypergraph, binding)
        return CC3Algorithm(self.hypergraph, binding)

    def _build_daemon(self) -> Daemon:
        if isinstance(self._daemon_spec, Daemon):
            return self._daemon_spec
        return daemon_from_name(self._daemon_spec, seed=self.seed)

    # ------------------------------------------------------------------ #
    # running
    # ------------------------------------------------------------------ #
    def run(
        self,
        max_steps: int = 2000,
        environment: Optional[Environment] = None,
        discussion_steps: int = 1,
        from_arbitrary: bool = False,
        record_configurations: bool = True,
        check: bool = False,
        stop_on_violation: bool = False,
        grace_steps: Optional[int] = None,
        check_discussion: bool = False,
    ) -> SimulationOutcome:
        """Run one computation and collect metrics.

        ``environment`` defaults to an always-requesting workload with
        ``discussion_steps`` of voluntary discussion.  With
        ``from_arbitrary=True`` the run starts from an arbitrary configuration
        (the snap-stabilization setting).

        With ``record_configurations=False`` the run is *sparse*: the trace
        retains only the initial and final configurations, but the summary
        ``metrics`` and ``fairness`` are still exact — they are computed
        online by a :class:`StreamingMetricsCollector` while the run happens.
        Only the per-event ``events`` list is skipped (it stays empty).

        With ``check=True`` a :class:`StreamingSpecSuite` rides along the run
        (dense or sparse) and the outcome's ``spec`` carries the
        Exclusion/Synchronization/Progress reports and the fairness summary —
        identical to running the dense post-hoc checkers on the equivalent
        recorded trace.  ``stop_on_violation=True`` (implies ``check``) halts
        the run at the first safety violation: the scheduler result's
        ``stop_reason`` is ``"violation"`` and ``spec.first_violation`` holds
        the counterexample window.  ``grace_steps`` tunes the Progress tail
        window (default: half the trace length).  ``check_discussion=True``
        (implies ``check``) additionally streams the 2-phase discussion
        checkers; their reports land in ``spec.essential`` /
        ``spec.voluntary`` and participate in ``spec.all_hold``.
        """
        env = environment if environment is not None else AlwaysRequestingEnvironment(discussion_steps)
        daemon = self._build_daemon()
        initial = None
        if from_arbitrary:
            initial = arbitrary_configuration(self.algorithm, seed=self.seed)
        collector = None if record_configurations else StreamingMetricsCollector(self.hypergraph)
        suite = None
        if check or stop_on_violation or check_discussion:
            # When the metrics collector rides along too, the suite reuses
            # its meeting-event stream and convene counter: metrics + spec
            # checking together pay the per-step committee sweep once.  The
            # collector must run first in the listener sequence.
            suite = StreamingSpecSuite(
                self.hypergraph,
                grace_steps=grace_steps,
                stop_on_violation=stop_on_violation,
                stream=collector.stream if collector is not None else None,
                fairness=collector.fairness_monitor if collector is not None else None,
                check_discussion=check_discussion,
            )
        listeners = [
            observer.observe_step for observer in (collector, suite) if observer is not None
        ]
        scheduler = Scheduler(
            self.algorithm,
            environment=env,
            daemon=daemon,
            initial_configuration=initial,
            record_configurations=record_configurations,
            engine=self.engine,
            step_listener=listeners or None,
        )
        result = scheduler.run(max_steps=max_steps)
        trace = result.trace
        if collector is None:
            metrics = collect_metrics(trace, self.hypergraph)
            events = meeting_events(trace, self.hypergraph)
            fairness = professor_fairness_counts(trace, self.hypergraph)
        else:
            metrics = collector.metrics(trace)
            events = []
            fairness = collector.fairness()
        return SimulationOutcome(
            trace=trace,
            result=result,
            metrics=metrics,
            events=events,
            fairness=fairness,
            hypergraph=self.hypergraph,
            algorithm_name=self.algorithm_name,
            spec=suite.verdicts() if suite is not None else None,
        )

    def meetings_in(self, configuration: Configuration) -> Tuple[Hyperedge, ...]:
        """Committees meeting in ``configuration`` (delegates to the algorithm)."""
        return self.algorithm.meetings_in(configuration)
