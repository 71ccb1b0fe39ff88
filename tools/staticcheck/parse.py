"""RL001 — a file that does not parse is reported, not skipped.

Every other pass analyzes the parsed tree, so a file with a syntax error
would otherwise reach no check at all: a broken ``benchmarks/bench_*.py``
is never imported by tier-1 either.  :class:`~tools.staticcheck.project.Project`
lists such files in ``unparsed``; this pass turns each into one diagnostic
at the error's line.
"""

from __future__ import annotations

from typing import Dict, List

from tools.staticcheck.diagnostics import Diagnostic
from tools.staticcheck.project import Project

CODES: Dict[str, str] = {
    "RL001": "file does not parse, so no other pass can check it",
}


class ParsePass:
    name = "parse"
    codes = CODES

    def run(self, project: Project) -> List[Diagnostic]:
        return [Diagnostic(rel, line, "RL001", reason) for rel, line, reason in project.unparsed]
