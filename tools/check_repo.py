#!/usr/bin/env python3
"""Repo hygiene checks, tier-1-safe (fast, no network, no state mutation).

These ten checks are registered in the ``repro-lint`` pass registry as
the ``repo-*`` passes (codes RC001–RC010) — ``tools/staticcheck`` wraps the
functions below unchanged, so ``python -m tools.staticcheck`` runs them
alongside the AST passes with unified ``file:line: CODE message``
diagnostics.  See ``docs/STATIC_ANALYSIS.md`` for the catalogue.  This
module remains the historical standalone entry point.

Ten checks, each returning a list of human-readable error strings:

* ``check_no_tracked_bytecode`` — no ``.pyc`` / ``__pycache__`` entries ever
  re-enter the git index (they were purged once; ``.gitignore`` keeps new
  ones out of ``git add .``, this check keeps them out of force-adds);
* ``check_doc_links`` — every relative markdown link in ``README.md`` and
  ``docs/*.md`` resolves to an existing file, every backticked
  ``repro.foo.bar`` dotted name names an importable module (or an attribute
  of one), every backticked ``Class.member`` (optionally called) whose
  ``Class`` is a public class defined under ``repro`` names a real member
  of it, and every ``repro.`` target of a ``:func:``/``:class:``/
  ``:meth:``/``:mod:``/``:data:``/``:attr:``/``:exc:`` cross-reference in
  ``src/`` resolves too, so neither the architecture tables nor the code
  docstrings can drift from the package layout;
* ``check_cli_docs`` — ``docs/CLI.md`` documents every ``--flag`` of every
  ``repro-cc`` subcommand (each in its own section) and mentions no flag
  the parser does not define, introspected live from
  ``repro.cli.build_parser()``;
* ``check_perf_rows`` — every line of ``benchmarks/perf_rows.jsonl`` is a
  JSON object matching the per-bench schema registry (``PERF_ROW_SCHEMAS``),
  so perf rows stay machine-readable across commits and a new bench cannot
  emit rows nobody can aggregate;
* ``check_spawn_entry_points`` — every dotted name the campaign engine hands
  to ``multiprocessing`` (``repro.campaign.SPAWN_ENTRY_POINTS``) is a
  module-top-level callable that pickles by reference, i.e. resolvable from
  a spawn-context worker; a sample expanded ``RunJob`` must round-trip too;
* ``check_campaign_rows`` — the campaign row schema
  (``repro.campaign.jobs.ROW_FIELDS`` / ``ERROR_ROW_FIELDS``) matches what
  ``execute_job``/``error_result`` actually emit, and the resume module
  round-trips every schema'd row shape **byte-identically** (parse a
  serialized row, re-serialize, compare) — the property ``--resume``'s
  "final file equals an uninterrupted run" guarantee rests on;
* ``check_sink_picklability`` — every row sink class
  (``repro.campaign.sinks.SINK_TYPES``) is a module-top-level class that
  pickles by reference, and fresh (unopened) instances pickle round-trip,
  so sink configurations can always be shipped between processes;
* ``check_run_cache_key`` — the content-addressed run cache's key
  (``repro.campaign.store.CACHE_KEY_ATTRS``) covers exactly the row
  identity block minus the job index, with a per-field sensitivity sweep:
  every identity attribute must change the key, the index must not — so a
  new ``RunJob`` axis cannot silently alias cache entries across runs;
* ``check_collector_merge`` — the sharding layer's control-message registry
  (``repro.campaign.shard.CONTROL_SCHEMAS``) is self-consistent (ops carry
  the ``"op"`` discriminator, rows never do), and an in-process collector
  fed by two static shards over a real socket merges their streams
  **byte-identically** to the same matrix run locally with ``--jobs 1`` —
  the distributed sibling of ``check_campaign_rows``'s resume round-trip;
* ``check_cli_thin_adapter`` — ``repro/cli.py`` stays a flag-parsing
  adapter over :mod:`repro.campaign.driver`: it may not import
  ``multiprocessing``, ``socket`` or ``repro.campaign.batched`` directly,
  so worker-pool, shard-protocol and batched-engine dispatch cannot grow a
  fourth copy inside the argparse layer.

Run standalone (``python tools/check_repo.py``, exit 1 on failure) or from
the test suite (``tests/test_repo_checks.py`` calls :func:`run_checks`).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import json
import pickle
import re
import subprocess
import sys
import threading
from pathlib import Path
from typing import Callable, Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
SRC_DIR = REPO_ROOT / "src"

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)]+)\)")
#: Dotted package paths, optionally class/function-qualified:
#: `repro.kernel.trace`, `repro.kernel.trace.StepDelta`, `repro.kernel.StopRun`.
_MODULE_RE = re.compile(
    r"`(repro(?:\.[a-z_][a-z_0-9]*)*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)`"
)
#: Bare class-qualified references, optionally called:
#: `Scheduler.set_configuration`, `DistributedAlgorithm.enabled_action(pid)`.
_MEMBER_RE = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\([^`]*\))?`")
_FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
#: Sphinx-style cross-references in code docstrings, e.g.
#: :class:`~repro.campaign.driver.CampaignDriver`; only ``repro.`` targets
#: are resolved (relative targets name something in the same module).
_XREF_RE = re.compile(
    r":(func|class|meth|mod|data|attr|exc):`~?(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)*)`"
)


def _doc_files() -> List[Path]:
    docs = [REPO_ROOT / "README.md"]
    if DOCS_DIR.is_dir():
        docs.extend(sorted(DOCS_DIR.glob("*.md")))
    return [d for d in docs if d.is_file()]


# --------------------------------------------------------------------------- #
# 1. no tracked bytecode
# --------------------------------------------------------------------------- #
def check_no_tracked_bytecode() -> List[str]:
    try:
        proc = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
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
        return [f"git ls-files failed ({exc.returncode}): {stderr or 'no stderr'}"]
    return [
        f"tracked bytecode artefact (git rm --cached it): {path}"
        for path in proc.stdout.splitlines()
        if path.endswith(".pyc") or "__pycache__" in path
    ]


# --------------------------------------------------------------------------- #
# 2. docs: relative links + module references
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
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
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


def _xref_errors(rel: str, text: str) -> List[str]:
    """Unresolvable ``repro.`` cross-reference targets in one source file."""
    errors: List[str] = []
    for match in _XREF_RE.finditer(text):
        role, target = match.groups()
        if not _module_resolves(target):
            line = text.count("\n", 0, match.start()) + 1
            errors.append(f"{rel}:{line}: unknown cross-reference :{role}:`{target}`")
    return errors


def _public_classes() -> Dict[str, Tuple[str, ...]]:
    """``class name -> dotted paths`` of every public top-level class under ``repro``."""
    classes: Dict[str, Tuple[str, ...]] = {}
    for source in sorted((SRC_DIR / "repro").rglob("*.py")):
        parts = source.relative_to(SRC_DIR).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(source.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                classes[node.name] = classes.get(node.name, ()) + (f"{module}.{node.name}",)
    return classes


def _member_ref_errors(
    rel: str, text: str, classes: Dict[str, Tuple[str, ...]]
) -> List[str]:
    """Backticked ``Class.member`` references in one doc whose member is gone.

    ``classes`` is :func:`_public_classes`; names that are no public class
    under ``repro`` (``config.get``, ``np.int8``) are left alone.
    """
    errors: List[str] = []
    for match in _MEMBER_RE.finditer(text):
        name, member = match.groups()
        paths = classes.get(name)
        if paths and not any(_module_resolves(f"{path}.{member}") for path in paths):
            line = text.count("\n", 0, match.start()) + 1
            errors.append(f"{rel}:{line}: unknown member reference `{name}.{member}`")
    return errors


def check_doc_links() -> List[str]:
    errors: List[str] = []
    classes = _public_classes()
    for doc in _doc_files():
        text = doc.read_text(encoding="utf-8")
        rel = doc.relative_to(REPO_ROOT)
        for target in _LINK_RE.findall(text):
            target = target.split("#", 1)[0].strip()
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            if not (doc.parent / target).exists():
                errors.append(f"{rel}: broken relative link -> {target}")
        for dotted in sorted(set(_MODULE_RE.findall(text))):
            if not _module_resolves(dotted):
                errors.append(f"{rel}: unknown module reference `{dotted}`")
        errors.extend(_member_ref_errors(rel.as_posix(), text, classes))
        for bench in sorted(set(re.findall(r"benchmarks/bench_[a-z0-9_]+\.py", text))):
            if not (REPO_ROOT / bench).is_file():
                errors.append(f"{rel}: unknown benchmark reference {bench}")
    for source in sorted(SRC_DIR.rglob("*.py")):
        rel = source.relative_to(REPO_ROOT).as_posix()
        errors.extend(_xref_errors(rel, source.read_text(encoding="utf-8")))
    return errors


# --------------------------------------------------------------------------- #
# 3. CLI flags documented in docs/CLI.md
# --------------------------------------------------------------------------- #
def _parser_flags() -> Dict[str, Set[str]]:
    """``subcommand -> set of --option strings`` from the live parser."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
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


def _subcommand_sections(text: str) -> Dict[str, str]:
    """``command -> section body`` for each ``## `repro-cc <cmd>` `` heading."""
    sections: Dict[str, str] = {}
    matches = list(re.finditer(r"^## `repro-cc ([a-z]+)`", text, re.MULTILINE))
    for i, match in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        sections[match.group(1)] = text[match.end() : end]
    return sections


def check_cli_docs() -> List[str]:
    doc = DOCS_DIR / "CLI.md"
    if not doc.is_file():
        return ["docs/CLI.md is missing"]
    text = doc.read_text(encoding="utf-8")
    flags = _parser_flags()
    documented = set(_FLAG_RE.findall(text))
    real = {"--help"}.union(*flags.values())
    errors = [
        f"docs/CLI.md names a flag the CLI does not define: {flag}"
        for flag in sorted(documented - real)
    ]
    # Flag completeness is checked per subcommand *section*, not file-wide:
    # a flag documented under `check` must not silence a missing row under
    # `run` — and every subcommand the parser defines is held to it.
    sections = _subcommand_sections(text)
    for command in sorted(flags):
        section_flags = set(_FLAG_RE.findall(sections.get(command, "")))
        for flag in sorted(flags[command] - section_flags - {"--help"}):
            errors.append(
                f"docs/CLI.md section `repro-cc {command}` does not document "
                f"its flag {flag}"
            )
    for command in flags:
        if f"repro-cc {command}" not in text:
            errors.append(f"docs/CLI.md does not mention subcommand `repro-cc {command}`")
    return errors


# --------------------------------------------------------------------------- #
# 4. perf_rows.jsonl row schemas
# --------------------------------------------------------------------------- #
PERF_ROWS_PATH = REPO_ROOT / "benchmarks" / "perf_rows.jsonl"

#: bench name -> required row fields (beyond the universal bench/timestamp).
#: A bench that starts emitting rows must register its schema here, so the
#: perf trajectory stays aggregatable; unregistered bench names fail.
PERF_ROW_SCHEMAS: Dict[str, Set[str]] = {
    "engine_scaling": {"engine", "n", "steps", "steps_per_sec"},
    "engine_scaling_batched": {"engine", "runs", "n", "steps", "steps_per_sec"},
    "streaming_spec_overhead": {
        "engine", "kind", "n", "overhead", "scenario", "steps", "steps_per_sec"
    },
    "campaign_scaling": {"jobs", "runs", "total_steps", "seconds", "runs_per_sec"},
    "campaign_sink_overhead": {
        "sink", "runs", "total_steps", "seconds", "runs_per_sec", "overhead"
    },
    "run_cache_resubmission": {
        "variant", "runs", "cold_seconds", "cached_seconds", "speedup"
    },
    "row_store_aggregates": {
        "query", "rows", "jsonl_seconds", "store_seconds", "speedup"
    },
    "campaign_driver_overhead": {
        "variant", "runs", "total_steps", "seconds", "overhead"
    },
}

_SCALAR_TYPES = (str, int, float, bool, type(None))


def check_perf_rows() -> List[str]:
    if not PERF_ROWS_PATH.is_file():
        return []  # nothing recorded yet (fresh clone before any bench run)
    errors: List[str] = []
    try:
        rel = PERF_ROWS_PATH.relative_to(REPO_ROOT)
    except ValueError:  # a test pointed PERF_ROWS_PATH outside the repo
        rel = PERF_ROWS_PATH
    for lineno, line in enumerate(
        PERF_ROWS_PATH.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{rel}:{lineno}: not valid JSON ({exc})")
            continue
        if not isinstance(row, dict):
            errors.append(f"{rel}:{lineno}: row is not a JSON object")
            continue
        bad_values = [k for k, v in row.items() if not isinstance(v, _SCALAR_TYPES)]
        if bad_values:
            errors.append(f"{rel}:{lineno}: non-scalar field(s) {bad_values}")
        if not isinstance(row.get("timestamp"), (int, float)):
            errors.append(f"{rel}:{lineno}: missing numeric 'timestamp'")
        bench = row.get("bench")
        if not isinstance(bench, str):
            errors.append(f"{rel}:{lineno}: missing string 'bench'")
            continue
        schema = PERF_ROW_SCHEMAS.get(bench)
        if schema is None:
            errors.append(
                f"{rel}:{lineno}: unknown bench {bench!r} "
                "(register its row schema in tools/check_repo.py PERF_ROW_SCHEMAS)"
            )
            continue
        missing = schema - set(row)
        if missing:
            errors.append(
                f"{rel}:{lineno}: bench {bench!r} row missing field(s) {sorted(missing)}"
            )
    return errors


# --------------------------------------------------------------------------- #
# 5. multiprocessing entry points resolvable from a spawn context
# --------------------------------------------------------------------------- #
def check_spawn_entry_points() -> List[str]:
    """A spawn-context worker re-imports modules and resolves functions by
    dotted name via pickle; anything nested, lambda-valued or renamed breaks
    ``repro-cc campaign --jobs N`` at runtime.  Verify the declared entry
    points (and a sample expanded job payload) round-trip *here*, in tier-1.
    """
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    errors: List[str] = []
    try:
        campaign = importlib.import_module("repro.campaign")
    except Exception as exc:  # pragma: no cover - import breakage shows everywhere
        return [f"cannot import repro.campaign: {exc!r}"]
    for dotted in getattr(campaign, "SPAWN_ENTRY_POINTS", ()):
        module_name, _, attr = dotted.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except Exception as exc:
            errors.append(f"spawn entry point {dotted}: module import failed ({exc!r})")
            continue
        func = getattr(module, attr, None)
        if func is None or not callable(func):
            errors.append(f"spawn entry point {dotted}: not a module-level callable")
            continue
        if getattr(func, "__qualname__", attr) != attr:
            errors.append(
                f"spawn entry point {dotted}: nested callable "
                f"({func.__qualname__}) cannot be resolved by a spawned worker"
            )
            continue
        try:
            if pickle.loads(pickle.dumps(func)) is not func:
                errors.append(f"spawn entry point {dotted}: pickle does not round-trip by reference")
        except Exception as exc:
            errors.append(f"spawn entry point {dotted}: not picklable ({exc!r})")
    # The payload must survive the trip too: expand a tiny matrix and
    # round-trip one job.
    try:
        matrix = importlib.import_module("repro.campaign.matrix")
        jobs = matrix.expand_jobs(
            matrix.CampaignSpec(scenarios=("figure1",), max_steps=1)
        )
        if pickle.loads(pickle.dumps(jobs[0])) != jobs[0]:
            errors.append("RunJob pickle round-trip is not value-identical")
    except Exception as exc:
        errors.append(f"RunJob spawn payload check failed: {exc!r}")
    return errors


# --------------------------------------------------------------------------- #
# 6. campaign row schema + resume byte-identical round-trip
# --------------------------------------------------------------------------- #
def _roundtrip_row(row: Dict[str, object], resume_module, label: str) -> List[str]:
    """Serialize → parse-as-resume-would → re-serialize must be bytes-stable."""
    errors: List[str] = []
    line = json.dumps(row, sort_keys=True)
    try:
        parsed = resume_module.parse_rows([line], source=label)
    except Exception as exc:
        return [f"{label}: resume.parse_rows rejected a schema'd row ({exc!r})"]
    if len(parsed) != 1 or parsed[0] != row:
        errors.append(f"{label}: resume round-trip is not value-identical")
    elif json.dumps(parsed[0], sort_keys=True) != line:
        errors.append(f"{label}: resume round-trip is not byte-identical")
    return errors


def check_campaign_rows() -> List[str]:
    """The row schema constants, the rows actually emitted, and the resume
    parser must agree — and rows must survive the JSONL round-trip byte for
    byte, which is what makes an interrupted-then-resumed campaign's final
    rewrite equal an uninterrupted run.
    """
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    errors: List[str] = []
    try:
        campaign_jobs = importlib.import_module("repro.campaign.jobs")
        matrix = importlib.import_module("repro.campaign.matrix")
        resume = importlib.import_module("repro.campaign.resume")
    except Exception as exc:  # pragma: no cover - import breakage shows everywhere
        return [f"cannot import the campaign persistence modules: {exc!r}"]
    job = matrix.expand_jobs(matrix.CampaignSpec(scenarios=("figure1",), max_steps=5))[0]

    result = campaign_jobs.execute_job(job)
    expected = set(campaign_jobs.ROW_FIELDS)
    if set(result.row) != expected:
        errors.append(
            "execute_job row keys drifted from ROW_FIELDS: "
            f"missing {sorted(expected - set(result.row))}, "
            f"extra {sorted(set(result.row) - expected)}"
        )
    errors.extend(_roundtrip_row(result.row, resume, "completed row"))

    error_row = campaign_jobs.error_result(job, RuntimeError("schema probe")).row
    expected_error = set(campaign_jobs.ERROR_ROW_FIELDS)
    if set(error_row) != expected_error:
        errors.append(
            "error_result row keys drifted from ERROR_ROW_FIELDS: "
            f"missing {sorted(expected_error - set(error_row))}, "
            f"extra {sorted(set(error_row) - expected_error)}"
        )
    errors.extend(_roundtrip_row(error_row, resume, "error row"))
    return errors


# --------------------------------------------------------------------------- #
# 7. row sinks picklable (configurations shippable between processes)
# --------------------------------------------------------------------------- #
def check_sink_picklability() -> List[str]:
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    errors: List[str] = []
    try:
        sinks = importlib.import_module("repro.campaign.sinks")
    except Exception as exc:  # pragma: no cover - import breakage shows everywhere
        return [f"cannot import repro.campaign.sinks: {exc!r}"]
    samples = {
        "AckingSocketSink": sinks.AckingSocketSink(
            "tcp:127.0.0.1:9", hello={"op": "hello"}
        ),
        "BufferedSink": sinks.BufferedSink(),
        "JsonlSink": sinks.JsonlSink("rows.jsonl"),
        "TeeSink": sinks.TeeSink([sinks.BufferedSink()]),
    }
    for sink_type in getattr(sinks, "SINK_TYPES", ()):
        name = sink_type.__name__
        if getattr(sinks, name, None) is not sink_type or sink_type.__qualname__ != name:
            errors.append(f"sink {name}: not a module-top-level class")
            continue
        try:
            if pickle.loads(pickle.dumps(sink_type)) is not sink_type:
                errors.append(f"sink {name}: class does not pickle by reference")
        except Exception as exc:
            errors.append(f"sink {name}: class not picklable ({exc!r})")
            continue
        sample = samples.get(name)
        if sample is None:
            errors.append(
                f"sink {name}: no sample instance in check_sink_picklability "
                "(add one so fresh-instance pickling stays covered)"
            )
            continue
        try:
            clone = pickle.loads(pickle.dumps(sample))
        except Exception as exc:
            errors.append(f"sink {name}: fresh instance not picklable ({exc!r})")
            continue
        if type(clone) is not sink_type:
            errors.append(f"sink {name}: instance pickle round-trip changed type")
    return errors


# --------------------------------------------------------------------------- #
# 8. shard collector merge: shards' streams merged == --jobs 1 bytes
# --------------------------------------------------------------------------- #
#: op -> sample field values, one per registered control message.  The check
#: builds each through ``control_message`` so a schema edit that breaks the
#: builder (or a new op without a sample here) fails loudly in tier-1.
CONTROL_SAMPLE_FIELDS: Dict[str, Dict[str, object]] = {
    "hello": {"shard": None, "jobs": 0, "fingerprint": "", "range": None},
    "welcome": {"jobs": 0, "pending": 0},
    "reject": {"error": ""},
    "pull": {"max": 1},
    "grant": {"jobs": [], "done": False},
    "ack": {"job": 0},
}


def check_collector_merge() -> List[str]:
    """The distributed sibling of ``check_campaign_rows``: an in-process
    collector fed by two static shards over a real socket must merge their
    acked streams into exactly the bytes a local ``--jobs 1`` run writes —
    the property `repro-cc collect`'s output file guarantee rests on.  Also
    keeps the control-message schema registry honest: every op builds
    through ``control_message``, every schema carries the ``"op"``
    discriminator, and campaign rows never do (rows vs control messages are
    distinguished by exactly that key).
    """
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    errors: List[str] = []
    try:
        campaign = importlib.import_module("repro.campaign")
        shard_mod = importlib.import_module("repro.campaign.shard")
        campaign_jobs = importlib.import_module("repro.campaign.jobs")
        matrix = importlib.import_module("repro.campaign.matrix")
        sinks = importlib.import_module("repro.campaign.sinks")
    except Exception as exc:  # pragma: no cover - import breakage shows everywhere
        return [f"cannot import the campaign shard modules: {exc!r}"]

    for op, schema in shard_mod.CONTROL_SCHEMAS.items():
        if "op" not in schema:
            errors.append(f"control schema {op!r} lacks the 'op' discriminator key")
    for fields in (campaign_jobs.ROW_FIELDS, campaign_jobs.ERROR_ROW_FIELDS):
        if "op" in fields:
            errors.append(
                "campaign rows must not carry an 'op' key — it is what "
                "distinguishes control messages from rows on the wire"
            )
    if set(CONTROL_SAMPLE_FIELDS) != set(shard_mod.CONTROL_SCHEMAS):
        errors.append(
            "control-op registry drifted: CONTROL_SCHEMAS ops are "
            f"{sorted(shard_mod.CONTROL_SCHEMAS)}, samples cover "
            f"{sorted(CONTROL_SAMPLE_FIELDS)} (update CONTROL_SAMPLE_FIELDS)"
        )
    else:
        for op, fields in CONTROL_SAMPLE_FIELDS.items():
            try:
                shard_mod.control_message(op, **fields)
            except Exception as exc:
                errors.append(f"control_message({op!r}) rejects its own schema: {exc!r}")
    if errors:
        return errors  # no point running the socket round-trip on a broken registry

    jobs = matrix.expand_jobs(
        matrix.CampaignSpec(scenarios=("figure1",), seeds=(1, 2), max_steps=5)
    )
    baseline = campaign.CampaignDriver(jobs).execute().jsonl_lines()
    collector = campaign.Collector(jobs, "tcp:127.0.0.1:0").start()
    failures: List[str] = []

    def feed(index: int) -> None:
        try:
            campaign.CampaignDriver(
                jobs, collector=collector.address, shard=(index, 2)
            ).execute()
        except Exception as exc:
            failures.append(f"shard {index + 1}/2 failed: {exc!r}")

    threads = [threading.Thread(target=feed, args=(index,)) for index in range(2)]
    for thread in threads:
        thread.start()
    try:
        rows = collector.run(timeout=60)
    except TimeoutError as exc:
        rows = []
        failures.append(f"collector did not complete: {exc}")
    for thread in threads:
        thread.join(timeout=10)
    errors.extend(failures)
    if not failures and [sinks.row_line(row) for row in rows] != baseline:
        errors.append(
            "two static shards merged through the collector are not "
            "byte-identical to the same matrix run with --jobs 1"
        )
    return errors


# --------------------------------------------------------------------------- #
# 9. run-cache key covers exactly the row identity (drift bites here)
# --------------------------------------------------------------------------- #
def _mutated_value(value: object) -> object:
    """A different-but-same-shape value for the key-sensitivity sweep."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.5
    if isinstance(value, str):
        return value + "-mutant"
    return 0 if value is None else None


def check_run_cache_key() -> List[str]:
    """The content-addressed run cache is only safe while its key pins the
    *entire* run identity: ``CACHE_KEY_ATTRS`` must equal
    ``ROW_IDENTITY_ATTRS`` minus ``"job"`` (the index is a matrix position,
    not run identity), every identity attribute must flip the key when it
    changes (a new ``RunJob`` axis that the key ignores would alias cache
    entries across different runs — this sweep is where that drift bites),
    and the index must *not* flip it (or reshaped matrices would never hit).
    """
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    errors: List[str] = []
    try:
        store = importlib.import_module("repro.campaign.store")
        campaign_jobs = importlib.import_module("repro.campaign.jobs")
        matrix = importlib.import_module("repro.campaign.matrix")
    except Exception as exc:  # pragma: no cover - import breakage shows everywhere
        return [f"cannot import the campaign store modules: {exc!r}"]
    expected = {
        key: attr
        for key, attr in campaign_jobs.ROW_IDENTITY_ATTRS.items()
        if key != "job"
    }
    if dict(store.CACHE_KEY_ATTRS) != expected:
        errors.append(
            "CACHE_KEY_ATTRS drifted from ROW_IDENTITY_ATTRS minus 'job': "
            f"missing {sorted(set(expected) - set(store.CACHE_KEY_ATTRS))}, "
            f"extra {sorted(set(store.CACHE_KEY_ATTRS) - set(expected))}"
        )
        return errors  # the sweep below would just repeat this per field
    import dataclasses

    job = matrix.expand_jobs(matrix.CampaignSpec(scenarios=("figure1",), max_steps=5))[0]
    base = store.run_cache_key(job)
    for key, attr in expected.items():
        mutated = dataclasses.replace(
            job, **{attr: _mutated_value(getattr(job, attr))}
        )
        if store.run_cache_key(mutated) == base:
            errors.append(
                f"run_cache_key ignores identity field {key!r} (RunJob.{attr}): "
                "two different runs would share a cache entry"
            )
    if store.run_cache_key(dataclasses.replace(job, index=job.index + 1)) != base:
        errors.append(
            "run_cache_key depends on the job index — the same run at a "
            "different matrix position would never hit"
        )
    if store.run_cache_key_for_row(
        {k: getattr(job, a) for k, a in campaign_jobs.ROW_IDENTITY_ATTRS.items()}
    ) != base:
        errors.append(
            "run_cache_key_for_row disagrees with run_cache_key for the "
            "same identity block"
        )
    return errors


# --------------------------------------------------------------------------- #
# 10. the CLI stays a thin adapter over the campaign driver
# --------------------------------------------------------------------------- #
CLI_PATH = SRC_DIR / "repro" / "cli.py"

#: Module prefixes ``repro/cli.py`` may not import: all dispatch machinery
#: (worker pools, the shard socket protocol, batched grouping) is reached
#: through ``repro.campaign.driver``, so a fourth orchestration copy cannot
#: quietly grow back inside the argparse layer.
CLI_FORBIDDEN_IMPORTS = ("multiprocessing", "socket", "repro.campaign.batched")


def check_cli_thin_adapter() -> List[str]:
    """``repro/cli.py`` must stay a flag-parsing adapter over the driver.

    AST-walks the CLI module and flags any ``import`` / ``from ... import``
    whose resolved module is (or sits under) a forbidden prefix — including
    ``from repro.campaign import batched``-style spellings.
    """
    import ast

    try:
        rel = CLI_PATH.relative_to(REPO_ROOT).as_posix()
    except ValueError:  # monkeypatched out of the repo in tests
        rel = CLI_PATH.as_posix()
    try:
        tree = ast.parse(CLI_PATH.read_text(encoding="utf-8"))
    except (OSError, SyntaxError) as exc:
        return [f"{rel}: cannot parse the CLI module: {exc}"]

    def forbidden(module: str) -> bool:
        return any(
            module == banned or module.startswith(banned + ".")
            for banned in CLI_FORBIDDEN_IMPORTS
        )

    errors: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if forbidden(alias.name)]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [
                f"{base}.{alias.name}" if base else alias.name
                for alias in node.names
                if node.level == 0 and (forbidden(base) or forbidden(f"{base}.{alias.name}"))
            ]
        else:
            continue
        for name in names:
            errors.append(
                f"{rel}:{node.lineno}: the CLI imports {name!r} — dispatch "
                "machinery belongs behind repro.campaign.driver (thin-adapter "
                "invariant)"
            )
    return errors


# --------------------------------------------------------------------------- #
# driver
# --------------------------------------------------------------------------- #
CHECKS: List[Callable[[], List[str]]] = [
    check_no_tracked_bytecode,
    check_doc_links,
    check_cli_docs,
    check_perf_rows,
    check_spawn_entry_points,
    check_campaign_rows,
    check_sink_picklability,
    check_collector_merge,
    check_run_cache_key,
    check_cli_thin_adapter,
]


def run_checks() -> List[str]:
    errors: List[str] = []
    for check in CHECKS:
        errors.extend(check())
    return errors


def main() -> int:
    errors = run_checks()
    for error in errors:
        print(f"check_repo: {error}", file=sys.stderr)
    if errors:
        print(f"check_repo: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("check_repo: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
