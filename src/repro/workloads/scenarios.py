"""Benchmark scenarios: named (topology, workload) pairs.

The benchmark harness iterates over these scenarios so that every experiment
reports the same rows for the same inputs.  ``paper_scenarios`` covers the
exact topologies of the paper's figures; ``scaling_scenarios`` provides the
parametric families used for the Theorem 5/6/8 sweeps and for the
concurrency comparison.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.hypergraph.generators import (
    complete_hypergraph,
    cycle_of_committees,
    disjoint_committees,
    figure1_hypergraph,
    figure2_hypergraph,
    figure3_hypergraph,
    figure4_hypergraph,
    grid_of_committees,
    path_of_committees,
    random_k_uniform_hypergraph,
    star_hypergraph,
)
from repro.hypergraph.hypergraph import Hypergraph


@dataclass(frozen=True)
class Scenario:
    """A named topology (plus default workload knobs) used by the benchmarks."""

    name: str
    hypergraph: Hypergraph
    description: str = ""
    discussion_steps: int = 1

    @property
    def n(self) -> int:
        return self.hypergraph.n

    @property
    def m(self) -> int:
        return self.hypergraph.m


#: A scenario's recipe: its hypergraph factory and its description.
_Builder = Tuple[Callable[[], Hypergraph], str]


def _paper_builders() -> Dict[str, _Builder]:
    return {
        "figure1": (
            figure1_hypergraph,
            "Figure 1: 6 professors, 5 committees (running example)",
        ),
        "figure2-impossibility": (
            figure2_hypergraph,
            "Figure 2: 5 professors, the Theorem 1 impossibility witness",
        ),
        "figure3-cc1-example": (
            figure3_hypergraph,
            "Figure 3: 10 professors, the CC1 worked example",
        ),
        "figure4-cc2-locks": (
            figure4_hypergraph,
            "Figure 4: 9 professors, the CC2 lock example",
        ),
    }


def _scaling_builders(sizes: Tuple[int, ...] = (4, 6, 8), seed: int = 7) -> Dict[str, _Builder]:
    builders: Dict[str, _Builder] = {}
    for k in sizes:
        builders[f"path-{k}"] = (
            functools.partial(path_of_committees, k),
            f"path of {k} two-member committees",
        )
    for k in sizes:
        if k >= 3:
            builders[f"cycle-{k}"] = (
                functools.partial(cycle_of_committees, k),
                f"cycle of {k} two-member committees",
            )
    builders["star-5"] = (
        functools.partial(star_hypergraph, 5, 2),
        "star: 5 committees sharing one professor (max 1 meeting at a time)",
    )
    builders["disjoint-4"] = (
        functools.partial(disjoint_committees, 4, 3),
        "4 disjoint 3-member committees (no conflicts)",
    )
    builders["grid-3x3"] = (
        functools.partial(grid_of_committees, 3, 3),
        "3x3 grid, committees are dominoes",
    )
    builders["complete-5-pairs"] = (
        functools.partial(complete_hypergraph, 5, 2),
        "all pairs over 5 professors",
    )
    builders["random-10-8"] = (
        functools.partial(random_k_uniform_hypergraph, 10, 8, committee_size=3, seed=seed),
        "random 3-uniform hypergraph, 10 professors, 8 committees",
    )
    return builders


def _stress_builders() -> Dict[str, _Builder]:
    return {
        "cycle-100": (
            functools.partial(cycle_of_committees, 100),
            "cycle of 100 two-member committees (n=100, streaming-spec stress)",
        ),
        "path-64": (
            functools.partial(path_of_committees, 64),
            "path of 64 two-member committees (n=65)",
        ),
        "grid-6x6": (
            functools.partial(grid_of_committees, 6, 6),
            "6x6 grid, committees are dominoes (n=36)",
        ),
    }


def _built(name: str, builder: _Builder) -> Scenario:
    build, description = builder
    return Scenario(name=name, hypergraph=build(), description=description)


def paper_scenarios() -> List[Scenario]:
    """The four topologies drawn in the paper."""
    return [_built(name, builder) for name, builder in _paper_builders().items()]


def scaling_scenarios(
    sizes: Tuple[int, ...] = (4, 6, 8),
    seed: int = 7,
) -> List[Scenario]:
    """Parametric families used by the scaling and comparison benchmarks."""
    return [_built(name, builder) for name, builder in _scaling_builders(sizes, seed).items()]


def stress_scenarios() -> List[Scenario]:
    """Production-ish sizes used by the streaming spec checkers and benches.

    These are the topologies the sparse-run tooling (``repro-cc check
    --sparse``, ``bench_streaming_spec``) exercises: big enough that
    recording every configuration is off the table, structured enough that
    the spec verdicts are interpretable.
    """
    return [_built(name, builder) for name, builder in _stress_builders().items()]


def all_scenarios() -> List[Scenario]:
    """Every named scenario: paper figures, scaling families, stress sizes."""
    return paper_scenarios() + scaling_scenarios() + stress_scenarios()


def scenario_by_name(name: str) -> Scenario:
    """Build the named scenario, and only it, from the scenario recipes."""
    for builders in (_paper_builders(), _scaling_builders(), _stress_builders()):
        if name in builders:
            return _built(name, builders[name])
    raise KeyError(f"unknown scenario {name!r}")
