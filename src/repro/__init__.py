"""repro -- reproduction of *Snap-Stabilizing Committee Coordination*.

The package implements, from scratch, everything the paper (Bonakdarpour,
Devismes, Petit; IPDPS 2011 / JPDC 2016) describes or depends on:

* the hypergraph model of professors and committees and the matching theory
  behind the degree-of-fair-concurrency analysis (:mod:`repro.hypergraph`),
* the locally-shared-memory guarded-action computational model with daemons,
  rounds and transient faults (:mod:`repro.kernel`),
* self-stabilizing token circulation substrates (:mod:`repro.tokenring`),
* the three committee coordination algorithms ``CC1``, ``CC2``, ``CC3`` and
  their ``∘ TC`` compositions (:mod:`repro.core`),
* baselines from the related-work section (:mod:`repro.baselines`),
* executable specification checkers (:mod:`repro.spec`) and metrics
  (:mod:`repro.metrics`),
* workloads, analytical bounds and reporting (:mod:`repro.workloads`,
  :mod:`repro.analysis`),
* the parallel campaign engine fanning seeded scenario matrices across
  worker processes (:mod:`repro.campaign`).

Quickstart::

    from repro import CommitteeCoordinator, figure1_hypergraph

    outcome = CommitteeCoordinator(figure1_hypergraph(), algorithm="cc2", seed=1).run(2000)
    print(outcome.metrics.as_row())
"""

from repro.hypergraph import (
    Hyperedge,
    Hypergraph,
    MatchingAnalysis,
    complete_hypergraph,
    cycle_of_committees,
    figure1_hypergraph,
    figure2_hypergraph,
    figure3_hypergraph,
    figure4_hypergraph,
    path_of_committees,
    random_k_uniform_hypergraph,
    star_hypergraph,
)
from repro.core import (
    CC1Algorithm,
    CC2Algorithm,
    CC3Algorithm,
    CommitteeCoordinator,
    SimulationOutcome,
    TokenBinding,
)
from repro.tokenring import (
    ComposedTokenCirculation,
    DijkstraRingToken,
    OracleTokenModule,
    SelfStabilizingLeaderElection,
    TreeTokenCirculation,
)
from repro.analysis import bounds_for
from repro.campaign import CampaignDriver, CampaignSpec, FaultSchedule
from repro.spec import (
    CounterexampleWindow,
    SpecVerdicts,
    SpecViolationError,
    StreamingSpecSuite,
)
from repro.workloads import RandomScenarioSpec, random_scenario, random_scenarios

__version__ = "1.2.0"

__all__ = [
    "Hyperedge",
    "Hypergraph",
    "MatchingAnalysis",
    "complete_hypergraph",
    "cycle_of_committees",
    "figure1_hypergraph",
    "figure2_hypergraph",
    "figure3_hypergraph",
    "figure4_hypergraph",
    "path_of_committees",
    "random_k_uniform_hypergraph",
    "star_hypergraph",
    "CC1Algorithm",
    "CC2Algorithm",
    "CC3Algorithm",
    "CommitteeCoordinator",
    "SimulationOutcome",
    "TokenBinding",
    "ComposedTokenCirculation",
    "DijkstraRingToken",
    "OracleTokenModule",
    "SelfStabilizingLeaderElection",
    "TreeTokenCirculation",
    "bounds_for",
    "CampaignDriver",
    "CampaignSpec",
    "FaultSchedule",
    "CounterexampleWindow",
    "SpecVerdicts",
    "SpecViolationError",
    "StreamingSpecSuite",
    "RandomScenarioSpec",
    "random_scenario",
    "random_scenarios",
    "__version__",
]
