"""Diagnostics: the one result type every pass emits, plus suppressions.

A :class:`Diagnostic` is ``file:line: CODE message`` — the same shape for an
AST finding (``src/repro/core/cc1.py:217: RL201 ...``) and for a
repo-hygiene check (``docs/CLI.md:12: RC003 ...``), so one CLI, one JSON
format and one test harness cover the whole suite.

Suppression is per *line*, never per pass or per file::

    start = time.perf_counter()  # repro-lint: disable=RL102 -- opt-in --timing

Multiple codes separate with commas (``disable=RL102,RL105``); anything after
the code list is a free-form justification (the convention in this repo is
that a suppression **must** carry one).  A suppressed diagnostic is not
dropped silently — it is returned with ``suppressed=True`` so ``repro-lint
--show-suppressed`` and the self-tests can assert that a pass both fires and
honors its suppressions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Sequence, Set

#: ``# repro-lint: disable=RL102`` / ``disable=RL102,RL105 -- justification``.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: ``path:line: code message``.

    ``path`` is repo-relative (posix separators) so output is stable across
    machines and the JSON mode diffs cleanly across commits.
    """

    path: str
    line: int
    code: str
    message: str
    suppressed: bool = field(default=False, compare=False)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "message": self.message,
            "suppressed": self.suppressed,
        }


def parse_suppressions(text: str) -> Dict[int, Set[str]]:
    """``line number -> codes disabled on that line`` (1-based)."""
    suppressions: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            suppressions[lineno] = {
                code.strip().upper() for code in match.group(1).split(",") if code.strip()
            }
    return suppressions


def apply_suppressions(
    diagnostics: Iterable[Diagnostic], suppressions: Dict[int, Set[str]]
) -> List[Diagnostic]:
    """Mark diagnostics whose line carries a matching ``disable=`` comment."""
    marked: List[Diagnostic] = []
    for diag in diagnostics:
        codes = suppressions.get(diag.line, ())
        if diag.code.upper() in codes:
            marked.append(replace(diag, suppressed=True))
        else:
            marked.append(diag)
    return marked


def render_text(diagnostics: Sequence[Diagnostic], show_suppressed: bool = False) -> str:
    lines = [
        d.render() + (" [suppressed]" if d.suppressed else "")
        for d in diagnostics
        if show_suppressed or not d.suppressed
    ]
    return "\n".join(lines)


def render_json(diagnostics: Sequence[Diagnostic], show_suppressed: bool = False) -> str:
    """Deterministic JSON (sorted rows, sorted keys) for cross-commit diffs."""
    rows = [
        d.as_dict()
        for d in sorted(diagnostics)
        if show_suppressed or not d.suppressed
    ]
    return json.dumps(rows, sort_keys=True, indent=2)


def active(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """The findings that actually count (suppressed ones filtered out)."""
    return [d for d in diagnostics if not d.suppressed]
