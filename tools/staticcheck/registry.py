"""The pass registry: one list of passes, one driver, one diagnostic format.

A *pass* is any object with

* ``name`` — the stable registry key (``repro-lint --passes`` names),
* ``codes`` — ``{code: one-line description}`` for everything it can emit,
* ``run(project) -> List[Diagnostic]`` — suppressions already applied
  (suppressed findings are returned marked, not dropped).

Two families live here, registered the same way:

* **AST passes** (:data:`AST_PASSES`) analyze the parsed
  :class:`~tools.staticcheck.project.Project` without executing anything —
  they work on the repo layout *and* on fixture corpora;
* **repo passes** (:data:`REPO_PASSES`, RC0xx) check the git index and the
  docs against the code — RC002/RC003 import ``repro`` when they run, so
  they only make sense against the real repo and return nothing for
  fixture projects.

The driver (:func:`run_passes`) is what both the CLI and tier-1 call; it
returns every diagnostic sorted, suppressed ones included, and leaves the
"did anything *count*" question to :func:`~tools.staticcheck.diagnostics.active`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from tools.staticcheck.determinism import DeterminismPass
from tools.staticcheck.diagnostics import Diagnostic
from tools.staticcheck.listeners import ListenerProtocolPass
from tools.staticcheck.parse import ParsePass
from tools.staticcheck.project import Project
from tools.staticcheck.repo_checks import (
    CliAdapterPass,
    CliDocsPass,
    DocLinksPass,
    TrackedBytecodePass,
)
from tools.staticcheck.spawn_safety import SpawnSafetyPass
from tools.staticcheck.writer_sets import WriterSetConformancePass

#: The AST analysis passes, in execution (and documentation) order.
AST_PASSES = (
    ParsePass,
    DeterminismPass,
    WriterSetConformancePass,
    SpawnSafetyPass,
    ListenerProtocolPass,
)

#: The repo-hygiene passes, in code order.
REPO_PASSES = (
    TrackedBytecodePass,
    DocLinksPass,
    CliDocsPass,
    CliAdapterPass,
)


def ast_passes(names: Optional[Iterable[str]] = None) -> List[object]:
    """Instances of the AST passes (optionally restricted to ``names``)."""
    return [factory() for factory in _select(AST_PASSES, names)]


def all_passes(names: Optional[Iterable[str]] = None) -> List[object]:
    """AST passes followed by the repo passes."""
    return [factory() for factory in _select(AST_PASSES + REPO_PASSES, names)]


def _select(factories: Sequence[type], names: Optional[Iterable[str]]) -> List[type]:
    if names is None:
        return list(factories)
    wanted = set(names)
    return [f for f in factories if f.name in wanted]


def known_pass_names() -> List[str]:
    return [f.name for f in AST_PASSES + REPO_PASSES]


def run_passes(project: Project, passes: Sequence[object]) -> List[Diagnostic]:
    """Run ``passes`` over ``project`` and return every diagnostic, sorted.

    Suppressed diagnostics are included (marked ``suppressed=True``) so the
    caller can both count real findings and prove suppressions were honored.
    """
    diagnostics: List[Diagnostic] = []
    for pass_ in passes:
        diagnostics.extend(pass_.run(project))
    return sorted(diagnostics)


#: ``code -> one-line description`` across every registered pass.
ALL_CODES: Dict[str, str] = {
    code: description
    for factory in AST_PASSES + REPO_PASSES
    for code, description in factory.codes.items()
}
