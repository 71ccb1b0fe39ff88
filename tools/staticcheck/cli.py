"""The ``repro-lint`` command line (also ``python -m tools.staticcheck``).

Two modes share one pass registry and one output format:

* **repo mode** (no positional paths): analyze the repo layout —
  ``src/repro/**`` + ``benchmarks/**`` through the AST passes, plus the
  RC0xx repo-hygiene checks — exactly what tier-1 asserts is clean;
* **file mode** (explicit paths): parse just those files and run the AST
  passes over all of them, scope-free.  This is what the fixture-corpus
  tests use, and what an editor integration would call on save.

Exit status: 0 clean, 1 active findings, 2 usage errors.  ``--format json``
emits a deterministic sorted array for cross-commit diffing; suppressed
findings are hidden unless ``--show-suppressed`` (they never affect the
exit status).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
if str(REPO_ROOT) not in sys.path:  # direct script invocation
    sys.path.insert(0, str(REPO_ROOT))

from tools.staticcheck.diagnostics import active, render_json, render_text
from tools.staticcheck.project import DEFAULT_ROOTS, Project
from tools.staticcheck.registry import (
    all_passes,
    ast_passes,
    known_pass_names,
    run_passes,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static-analysis suite guarding determinism, the writer-set "
            "protocol, spawn-safety, the listener protocol and repo hygiene. "
            "See docs/STATIC_ANALYSIS.md for the pass catalogue."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="python files to lint (default: the whole repo incl. RC0xx repo checks)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=REPO_ROOT,
        help="repo root for repo mode (default: this checkout)",
    )
    parser.add_argument(
        "--passes",
        help="comma-separated pass names to run (default: all; see --list-passes)",
    )
    parser.add_argument(
        "--skip-repo-checks",
        action="store_true",
        help="repo mode: run only the AST passes (no repro import, no git)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="text (file:line: CODE message) or deterministic JSON",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in the output (never in the exit status)",
    )
    parser.add_argument(
        "--list-passes",
        action="store_true",
        help="list registered pass names and their codes, then exit",
    )
    return parser


def _list_passes() -> int:
    for pass_ in all_passes():
        print(pass_.name)
        for code in sorted(pass_.codes):
            print(f"  {code}  {pass_.codes[code]}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_passes:
        return _list_passes()

    names = None
    if args.passes:
        names = [n.strip() for n in args.passes.split(",") if n.strip()]
        unknown = set(names) - set(known_pass_names())
        if unknown:
            parser.error(
                f"unknown pass name(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(known_pass_names())})"
            )

    if args.paths:
        missing = [p for p in args.paths if not p.is_file()]
        if missing:
            parser.error(f"no such file(s): {', '.join(str(p) for p in missing)}")
        project = Project.from_files(args.paths)
        passes = ast_passes(names)
    else:
        project = Project.load(args.root.resolve(), DEFAULT_ROOTS)
        passes = ast_passes(names) if args.skip_repo_checks else all_passes(names)

    diagnostics = run_passes(project, passes)

    if args.format == "json":
        print(render_json(diagnostics, show_suppressed=args.show_suppressed))
    else:
        rendered = render_text(diagnostics, show_suppressed=args.show_suppressed)
        if rendered:
            print(rendered)

    findings = active(diagnostics)
    if findings:
        print(f"repro-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    if args.format == "text":
        print("repro-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
