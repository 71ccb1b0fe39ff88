"""``repro-lint`` — the static-analysis suite guarding this reproduction.

Everything the repo promises dynamically (incremental ≡ dense traces,
byte-identical campaign files for any worker count, crash-safe ``--resume``)
rests on invariants that are *statically visible*: no ambient entropy or
wall clock in the run path, writer sets that match the declared state
layout, spawn-resolvable entry points, listeners that only raise
:class:`~repro.kernel.StopRun`.  This package checks them at lint time,
before any test runs.

Layout
------
``diagnostics``   the one :class:`~tools.staticcheck.diagnostics.Diagnostic`
                  result type + per-line ``# repro-lint: disable=CODE``
                  suppression handling
``project``       the parsed-project model (every file parsed once, static
                  constant/class/import resolution — nothing is executed)
``parse``         RL001 — a file that does not parse is reported, not
                  skipped by every other pass
``determinism``   RL1xx — seed/byte reproducibility (unseeded RNG, wall
                  clock, ambient datetime, entropy, hash ordering, unordered
                  set iteration)
``writer_sets``   RL2xx — writer-set / read-dependency conformance for the
                  incremental engine's delta protocol
``spawn_safety``  RL3xx — multiprocessing spawn-safety (import-time side
                  effects, closures into pools, entry-point resolvability)
``listeners``     RL4xx — scheduler listener protocol (StopRun-only raises,
                  epoch-aware delta consumption)
``repo_checks``   RC0xx — repo hygiene: the git index, docs links and
                  references, ``docs/CLI.md`` flags, perf-row schemas and the
                  thin CLI adapter, checked against the code
``registry``      pass registry + driver shared by the CLI and tier-1
``cli``           the ``repro-lint`` console entry point
                  (``python -m tools.staticcheck``)

See ``docs/STATIC_ANALYSIS.md`` for the pass catalogue, the full code table
and the suppression conventions.
"""

from __future__ import annotations

from tools.staticcheck.diagnostics import Diagnostic, active
from tools.staticcheck.project import Project
from tools.staticcheck.registry import (
    ALL_CODES,
    AST_PASSES,
    all_passes,
    ast_passes,
    run_passes,
)

__all__ = [
    "ALL_CODES",
    "AST_PASSES",
    "Diagnostic",
    "Project",
    "active",
    "all_passes",
    "ast_passes",
    "run_passes",
]
