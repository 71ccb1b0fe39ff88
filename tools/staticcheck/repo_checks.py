"""RC0xx — the historical ``tools/check_repo.py`` checks as registry passes.

The repo-hygiene checks predate the AST suite and are *dynamic* (they
import ``repro``, introspect the live argparse parser, pickle things, run
``git ls-files``) — exactly what they need to be to catch drift between docs
and code.  Migrating them into the pass registry gives them the shared
``file:line: CODE message`` diagnostic shape, the one CLI and the one JSON
format, without rewriting their battle-tested implementations: each pass
wraps the corresponding ``check_*`` function and re-parses its error strings
into :class:`~tools.staticcheck.diagnostics.Diagnostic` rows.

========  ==============================================================
RC001     tracked bytecode artefacts (``.pyc`` / ``__pycache__``)
RC002     broken docs links / dangling ``repro.*``, ``Class.member`` or docstring
          references
RC003     ``docs/CLI.md`` flag drift against ``repro.cli.build_parser()``
RC004     ``benchmarks/perf_rows.jsonl`` row-schema violations
RC005     spawn entry points not resolvable/picklable from a worker
RC006     campaign row-schema drift / non-byte-identical resume round-trip
RC007     row sink classes or fresh instances that do not pickle
RC008     collector-merged shard streams not byte-identical to ``--jobs 1``
RC009     run-cache key drift against the row identity block
RC010     ``repro/cli.py`` imports dispatch machinery (thin-adapter breach)
========  ==============================================================

These passes only run against the real repo layout; a fixture-corpus
project (``enforce_scopes=False``) gets an empty result, so the AST corpus
tests never depend on importing ``repro``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Callable, Dict, List

from tools.staticcheck.diagnostics import Diagnostic
from tools.staticcheck.project import Project

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: ``path:line: message`` / ``path: message`` prefixes inside check_repo's
#: human-readable error strings (e.g. ``docs/CLI.md: broken relative link``,
#: ``benchmarks/perf_rows.jsonl:12: not valid JSON``).
_LOCATED_RE = re.compile(
    r"^(?P<path>[A-Za-z0-9_./-]+\.(?:py|md|jsonl|cfg|toml|ini)):(?:(?P<line>\d+):)?\s*(?P<msg>.+)$"
)


def _load_check_repo():
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from tools import check_repo

    return check_repo


class _RepoCheckPass:
    """One migrated hygiene check: wrap ``check_*`` and locate its errors."""

    #: Subclasses set these.
    name: str = ""
    code: str = ""
    description: str = ""
    default_path: str = "."
    codes: Dict[str, str] = {}

    def run(self, project: Project) -> List[Diagnostic]:
        if not project.enforce_scopes:
            return []  # fixture corpus: dynamic repo checks do not apply
        errors = self._check(_load_check_repo())
        return [self._locate(error) for error in errors]

    def _check(self, check_repo) -> List[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _locate(self, error: str) -> Diagnostic:
        match = _LOCATED_RE.match(error)
        if match:
            return Diagnostic(
                match.group("path"),
                int(match.group("line") or 1),
                self.code,
                match.group("msg"),
            )
        return Diagnostic(self.default_path, 1, self.code, error)


def _make_pass(
    name: str, code: str, description: str, default_path: str, func_name: str
) -> type:
    def _check(self, check_repo) -> List[str]:
        return getattr(check_repo, func_name)()

    return type(
        f"RepoCheck_{func_name}",
        (_RepoCheckPass,),
        {
            "name": name,
            "code": code,
            "description": description,
            "default_path": default_path,
            "codes": {code: description},
            "_check": _check,
        },
    )


REPO_CHECK_PASSES = (
    _make_pass(
        "repo-bytecode", "RC001",
        "tracked bytecode artefact (.pyc / __pycache__) in the git index",
        ".gitignore", "check_no_tracked_bytecode",
    ),
    _make_pass(
        "repo-doc-links", "RC002",
        "broken docs link or dangling module/member/benchmark/docstring reference",
        "README.md", "check_doc_links",
    ),
    _make_pass(
        "repo-cli-docs", "RC003",
        "docs/CLI.md flag drift against the live argparse parser",
        "docs/CLI.md", "check_cli_docs",
    ),
    _make_pass(
        "repo-perf-rows", "RC004",
        "benchmarks/perf_rows.jsonl row violates its bench schema",
        "benchmarks/perf_rows.jsonl", "check_perf_rows",
    ),
    _make_pass(
        "repo-spawn-entry", "RC005",
        "spawn entry point not resolvable/picklable from a worker",
        "src/repro/campaign/__init__.py", "check_spawn_entry_points",
    ),
    _make_pass(
        "repo-campaign-rows", "RC006",
        "campaign row schema drift or non-byte-identical resume round-trip",
        "src/repro/campaign/jobs.py", "check_campaign_rows",
    ),
    _make_pass(
        "repo-sinks", "RC007",
        "row sink class or fresh instance does not pickle",
        "src/repro/campaign/sinks.py", "check_sink_picklability",
    ),
    _make_pass(
        "repo-collector", "RC008",
        "control-schema drift or collector merge not byte-identical to --jobs 1",
        "src/repro/campaign/shard.py", "check_collector_merge",
    ),
    _make_pass(
        "repo-run-cache", "RC009",
        "run-cache key drift against ROW_IDENTITY_ATTRS (identity not fully keyed)",
        "src/repro/campaign/store.py", "check_run_cache_key",
    ),
    _make_pass(
        "repo-cli-adapter", "RC010",
        "repro/cli.py imports multiprocessing/socket/repro.campaign.batched "
        "directly (dispatch must go through repro.campaign.driver)",
        "src/repro/cli.py", "check_cli_thin_adapter",
    ),
)
