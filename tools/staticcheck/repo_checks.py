"""RC0xx — repo hygiene: the git index and the docs against the code.

The AST passes judge the code alone; these four judge what must agree with
it.  They are deliberately *dynamic* where drift demands it — RC002 and
RC003 import ``repro`` (to resolve references and to introspect the live
argparse parser) and RC001 runs ``git ls-files`` — and each builds its
:class:`~tools.staticcheck.diagnostics.Diagnostic` at the file and line
where it finds the defect.  Python sources come from the
:class:`~tools.staticcheck.project.Project`, parsed once; the docs and
``docs/CLI.md`` are read under ``project.root``.

========  ==============================================================
RC001     tracked bytecode artefacts (``.pyc`` / ``__pycache__``)
RC002     broken docs links / dangling ``repro.*``, ``Class.member``,
          benchmark, docstring or ``NAME.md`` references
RC003     ``docs/CLI.md`` flag drift against ``repro.cli.build_parser()``
RC010     ``repro/cli.py`` imports dispatch machinery (thin-adapter breach)
========  ==============================================================

RC004 is retired with the perf-row file it checked (``perfbench/`` holds
the recorded perf numbers).  RC005–RC009 are retired: the campaign
contracts they re-ran (spawn entry points, row schemas and resume
round-trips, sink pickling, the collector merge, the run-cache key) are
pinned by the tier-1 tests under ``tests/test_campaign*.py``, and RL303
checks ``SPAWN_ENTRY_POINTS`` statically.

These passes only run against the real repo layout; a fixture-corpus
project (``enforce_scopes=False``) gets an empty result, so the AST corpus
tests never depend on importing ``repro``.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

from tools.staticcheck.diagnostics import Diagnostic
from tools.staticcheck.project import Project

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)]+)\)")
#: Dotted package paths, optionally class/function-qualified and then
#: member-qualified: `repro.kernel.trace`, `repro.kernel.trace.StepDelta`,
#: `repro.kernel.StopRun`, `repro.campaign.driver.CampaignDriver.execute`.
_MODULE_RE = re.compile(
    r"`(repro(?:\.[a-z_][a-z_0-9]*)*(?:\.[A-Za-z_][A-Za-z0-9_]*){0,2})`"
)
#: Bare class-qualified references, optionally called:
#: `Scheduler.set_configuration`, `DistributedAlgorithm.enabled_action(pid)`.
_MEMBER_RE = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\([^`]*\))?`")
_BENCH_RE = re.compile(r"benchmarks/bench_[a-z0-9_]+\.py")
#: A markdown document named in a source file: ``README.md``, ``docs/CLI.md``.
_DOC_NAME_RE = re.compile(r"\b[A-Za-z0-9_-]+\.md\b")
_FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
#: Sphinx-style cross-references in code docstrings, e.g.
#: :class:`~repro.campaign.driver.CampaignDriver`; only ``repro.`` targets
#: are resolved (relative targets name something in the same module).
_XREF_RE = re.compile(
    r":(func|class|meth|mod|data|attr|exc):`~?(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)*)`"
)


def _line_of(text: str, offset: int) -> int:
    """The 1-based line of character ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1


def _import_repro(project: Project) -> None:
    """Make ``repro`` importable, from the analyzed checkout if it is not yet."""
    src = str(project.root / "src")
    if importlib.util.find_spec("repro") is None and src not in sys.path:
        sys.path.insert(0, src)


class _RepoCheck:
    """One RC code; runs in repo mode only.  Subclasses implement ``check``."""

    name: str = ""
    code: str = ""
    codes: Dict[str, str] = {}

    def run(self, project: Project) -> List[Diagnostic]:
        if not project.enforce_scopes:
            return []  # fixture corpus: the repo checks do not apply
        return self.check(project)

    def check(self, project: Project) -> List[Diagnostic]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _at(self, path: str, line: int, message: str) -> Diagnostic:
        return Diagnostic(path, line, self.code, message)


# --------------------------------------------------------------------------- #
# RC001 — no tracked bytecode
# --------------------------------------------------------------------------- #
class TrackedBytecodePass(_RepoCheck):
    """No ``.pyc`` / ``__pycache__`` entry ever re-enters the git index.

    They were purged once; ``.gitignore`` keeps new ones out of ``git add
    .``, this check keeps them out of force-adds.
    """

    name = "repo-bytecode"
    code = "RC001"
    codes = {code: "tracked bytecode artefact (.pyc / __pycache__) in the git index"}

    def check(self, project: Project) -> List[Diagnostic]:
        try:
            proc = subprocess.run(
                ["git", "ls-files"],
                cwd=project.root,
                capture_output=True,
                text=True,
                check=True,
            )
        except OSError:
            return []  # no git binary (e.g. an sdist install): nothing to verify
        except subprocess.CalledProcessError as exc:
            stderr = (exc.stderr or "").strip()
            if "not a git repository" in stderr.lower():
                return []  # genuinely not a checkout: nothing to verify
            # Any other git failure (dubious ownership, corruption, ...) must
            # surface, not silently pass the check in exactly the automated
            # environments it exists to protect.
            return [
                self._at(
                    ".gitignore", 1,
                    f"git ls-files failed ({exc.returncode}): {stderr or 'no stderr'}",
                )
            ]
        return [
            self._at(path, 1, "tracked bytecode artefact (git rm --cached it)")
            for path in proc.stdout.splitlines()
            if path.endswith(".pyc") or "__pycache__" in path
        ]


# --------------------------------------------------------------------------- #
# RC002 — docs links, module/member/benchmark references, docstring xrefs
# --------------------------------------------------------------------------- #
def _module_resolves(dotted: str) -> bool:
    """``True`` iff ``dotted`` is an importable module or an attribute of one.

    Tries the full dotted path as a module first, then successively shorter
    prefixes (``find_spec`` raising because a prefix is a plain module, not a
    package, just means "try shorter"); a trailing remainder must then be a
    real attribute chain from the longest importable prefix — so
    ``repro.kernel.trace``, ``repro.kernel.trace.StepDelta``,
    ``repro.kernel.StopRun`` and ``repro.campaign.driver.CampaignDriver.run``
    all resolve, while any typo in either the module path or an attribute
    name fails.  A dataclass field counts as an attribute of its class
    even without a class-level default.
    """
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        candidate = ".".join(parts[:cut])
        try:
            spec = importlib.util.find_spec(candidate)
        except (ImportError, ValueError):
            continue  # a prefix is a non-package module: try shorter
        if spec is None:
            continue
        target: object = importlib.import_module(candidate)
        remainder = parts[cut:]
        for position, name in enumerate(remainder):
            if hasattr(target, name):
                target = getattr(target, name)
            elif position == len(remainder) - 1 and dataclasses.is_dataclass(target):
                return name in {field.name for field in dataclasses.fields(target)}
            else:
                return False
        return True
    return False


def _xref_errors(rel: str, text: str) -> List[Diagnostic]:
    """Unresolvable ``repro.`` cross-reference targets in one source file."""
    return [
        Diagnostic(
            rel, _line_of(text, match.start()), DocLinksPass.code,
            f"unknown cross-reference :{match.group(1)}:`{match.group(2)}`",
        )
        for match in _XREF_RE.finditer(text)
        if not _module_resolves(match.group(2))
    ]


def _doc_name_errors(root: Path, rel: str, text: str) -> List[Diagnostic]:
    """``NAME.md`` mentions in one source file that name no document at the
    repo root or under ``docs/``."""
    return [
        Diagnostic(
            rel, _line_of(text, match.start()), DocLinksPass.code,
            f"unknown document {match.group()}",
        )
        for match in _DOC_NAME_RE.finditer(text)
        if not (root / match.group()).is_file()
        and not (root / "docs" / match.group()).is_file()
    ]


def _public_classes(project: Project) -> Dict[str, Tuple[str, ...]]:
    """``class name -> dotted paths`` of every public top-level class under ``repro``."""
    classes: Dict[str, Tuple[str, ...]] = {}
    for source in project.files_in_scope(("src/repro/",)):
        for name in source.classes:
            if not name.startswith("_"):
                classes[name] = classes.get(name, ()) + (f"{source.module}.{name}",)
    return classes


def _member_ref_errors(
    rel: str, text: str, classes: Dict[str, Tuple[str, ...]]
) -> List[Diagnostic]:
    """Backticked ``Class.member`` references in one doc whose member is gone.

    ``classes`` is :func:`_public_classes`; names that are no public class
    under ``repro`` (``config.get``, ``np.int8``) are left alone.
    """
    errors: List[Diagnostic] = []
    for match in _MEMBER_RE.finditer(text):
        name, member = match.groups()
        paths = classes.get(name)
        if paths and not any(_module_resolves(f"{path}.{member}") for path in paths):
            errors.append(
                Diagnostic(
                    rel, _line_of(text, match.start()), DocLinksPass.code,
                    f"unknown member reference `{name}.{member}`",
                )
            )
    return errors


class DocLinksPass(_RepoCheck):
    """The docs and the code docstrings cannot drift from the package layout.

    Every relative markdown link in ``README.md`` and ``docs/*.md`` resolves
    to an existing file, every backticked ``repro.foo.bar`` dotted name names
    an importable module (or an attribute of one), every backticked
    ``Class.member`` (optionally called) whose ``Class`` is a public class
    defined under ``repro`` names a real member of it, every
    ``benchmarks/bench_*.py`` named exists, every ``repro.`` target of a
    ``:func:``/``:class:``/``:meth:``/``:mod:``/``:data:``/``:attr:``/
    ``:exc:`` cross-reference in ``src/`` resolves too, and every
    ``NAME.md`` a ``src/`` or ``benchmarks/`` source mentions exists at the
    repo root or under ``docs/``.
    """

    name = "repo-doc-links"
    code = "RC002"
    codes = {
        code: "broken docs link or dangling module/member/benchmark/docstring/document reference"
    }

    def check(self, project: Project) -> List[Diagnostic]:
        _import_repro(project)
        classes = _public_classes(project)
        docs = [project.root / "README.md"]
        docs.extend(sorted((project.root / "docs").glob("*.md")))
        found: List[Diagnostic] = []
        for doc in docs:
            if doc.is_file():
                text = doc.read_text(encoding="utf-8")
                rel = doc.relative_to(project.root).as_posix()
                found.extend(self._doc_errors(project.root, doc.parent, rel, text))
                found.extend(_member_ref_errors(rel, text, classes))
        for source in project.files_in_scope(("src/",)):
            found.extend(_xref_errors(source.rel, source.text))
        for source in project.files_in_scope(("src/", "benchmarks/")):
            found.extend(_doc_name_errors(project.root, source.rel, source.text))
        return found

    def _doc_errors(self, root: Path, base: Path, rel: str, text: str) -> List[Diagnostic]:
        found: List[Diagnostic] = []
        for match in _LINK_RE.finditer(text):
            target = match.group(1).split("#", 1)[0].strip()
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            if not (base / target).exists():
                found.append(
                    self._at(rel, _line_of(text, match.start()), f"broken relative link -> {target}")
                )
        for match in _MODULE_RE.finditer(text):
            if not _module_resolves(match.group(1)):
                found.append(
                    self._at(
                        rel, _line_of(text, match.start()),
                        f"unknown module reference `{match.group(1)}`",
                    )
                )
        for match in _BENCH_RE.finditer(text):
            if not (root / match.group()).is_file():
                found.append(
                    self._at(
                        rel, _line_of(text, match.start()),
                        f"unknown benchmark reference {match.group()}",
                    )
                )
        return found


# --------------------------------------------------------------------------- #
# RC003 — CLI flags documented in docs/CLI.md
# --------------------------------------------------------------------------- #
def _parser_flags() -> Dict[str, Set[str]]:
    """``subcommand -> set of --option strings`` from the live parser."""
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {
            option
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--")
        }
        for name, sub in subparsers.choices.items()
    }


def _subcommand_sections(text: str) -> Dict[str, Tuple[int, str]]:
    """``command -> (heading line, body)`` for each ``## `repro-cc <cmd>` `` heading."""
    sections: Dict[str, Tuple[int, str]] = {}
    matches = list(re.finditer(r"^## `repro-cc ([a-z]+)`", text, re.MULTILINE))
    for i, match in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        sections[match.group(1)] = (_line_of(text, match.start()), text[match.end() : end])
    return sections


class CliDocsPass(_RepoCheck):
    """``docs/CLI.md`` documents every ``--flag`` of every ``repro-cc``
    subcommand, each in its own section, and mentions no flag the parser
    does not define — introspected live from ``repro.cli.build_parser()``.
    """

    name = "repo-cli-docs"
    code = "RC003"
    codes = {code: "docs/CLI.md flag drift against the live argparse parser"}

    def check(self, project: Project) -> List[Diagnostic]:
        rel = "docs/CLI.md"
        doc = project.root / rel
        if not doc.is_file():
            return [self._at(rel, 1, "the CLI reference is missing")]
        _import_repro(project)
        text = doc.read_text(encoding="utf-8")
        flags = _parser_flags()
        real = {"--help"}.union(*flags.values())
        found = [
            self._at(
                rel, _line_of(text, match.start()),
                f"names a flag the CLI does not define: {match.group()}",
            )
            for match in _FLAG_RE.finditer(text)
            if match.group() not in real
        ]
        # Flag completeness is checked per subcommand *section*, not file-wide:
        # a flag documented under `check` must not silence a missing row under
        # `run` — and every subcommand the parser defines is held to it.
        sections = _subcommand_sections(text)
        for command in sorted(flags):
            line, body = sections.get(command, (1, ""))
            for flag in sorted(flags[command] - set(_FLAG_RE.findall(body)) - {"--help"}):
                found.append(
                    self._at(
                        rel, line,
                        f"section `repro-cc {command}` does not document its flag {flag}",
                    )
                )
            if f"repro-cc {command}" not in text:
                found.append(
                    self._at(rel, 1, f"does not mention subcommand `repro-cc {command}`")
                )
        return found


# --------------------------------------------------------------------------- #
# RC010 — the CLI stays a thin adapter over the campaign driver
# --------------------------------------------------------------------------- #
#: Module prefixes ``repro/cli.py`` may not import: all dispatch machinery
#: (worker pools, the shard socket protocol, batched grouping) is reached
#: through ``repro.campaign.driver``, so a fourth orchestration copy cannot
#: quietly grow back inside the argparse layer.
CLI_FORBIDDEN_IMPORTS = ("multiprocessing", "socket", "repro.campaign.batched")


def _forbidden(module: str) -> bool:
    return any(
        module == banned or module.startswith(banned + ".")
        for banned in CLI_FORBIDDEN_IMPORTS
    )


class CliAdapterPass(_RepoCheck):
    """``repro/cli.py`` must stay a flag-parsing adapter over the driver.

    Walks the parsed CLI module and flags any ``import`` / ``from ...
    import`` whose resolved module is (or sits under) a forbidden prefix —
    including ``from repro.campaign import batched``-style spellings.
    """

    name = "repo-cli-adapter"
    code = "RC010"
    codes = {
        code: "repro/cli.py imports multiprocessing/socket/repro.campaign.batched "
        "directly (dispatch must go through repro.campaign.driver)"
    }

    def check(self, project: Project) -> List[Diagnostic]:
        source = project.modules.get("repro.cli")
        if source is None:
            return [self._at("src/repro/cli.py", 1, "the CLI module is missing or does not parse")]
        found: List[Diagnostic] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names if _forbidden(alias.name)]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [
                    f"{base}.{alias.name}" if base else alias.name
                    for alias in node.names
                    if node.level == 0 and (_forbidden(base) or _forbidden(f"{base}.{alias.name}"))
                ]
            else:
                continue
            found.extend(
                self._at(
                    source.rel, node.lineno,
                    f"the CLI imports {name!r} — dispatch machinery belongs behind "
                    "repro.campaign.driver (thin-adapter invariant)",
                )
                for name in names
            )
        return found
