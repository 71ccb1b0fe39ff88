"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment of DESIGN.md's per-experiment
index (a figure or a theorem of the paper) and prints the resulting table so
that ``pytest benchmarks/ --benchmark-only`` doubles as the reproduction
report.  The timing numbers produced by pytest-benchmark measure the cost of
regenerating the experiment (one full simulation per iteration).
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time

import pytest

from repro.analysis.report import format_table

#: Machine-readable perf rows land here (one JSON object per line).  The file
#: accumulates across benchmark runs, so successive commits build the repo's
#: perf trajectory; each row is stamped with a wall-clock timestamp and with
#: where it was measured (:func:`measurement_stamp`).
PERF_LOG = os.path.join(os.path.dirname(__file__), "perf_rows.jsonl")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    """``git args`` run in the checkout: its stripped output, ``""`` on failure."""
    # Stop git at the checkout: a copy without .git must not report the
    # revision of some repository enclosing it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO_ROOT))
    try:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


@functools.lru_cache(maxsize=1)
def measurement_stamp() -> dict:
    """Where rows are measured: ``git_rev``, usable ``cpus`` and ``python``.

    ``git_rev`` is ``HEAD``, suffixed ``+dirty`` when the measured code
    (``src/``, ``benchmarks/``) differs from it, and ``None`` outside a git
    checkout.
    """
    rev = _git("rev-parse", "HEAD") or None
    if rev and _git(
        "status", "--porcelain", "--untracked-files=no", "--",
        "src", "benchmarks", ":(exclude)benchmarks/perf_rows.jsonl",
    ):
        rev += "+dirty"
    return {
        "git_rev": rev,
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version.split()[0],
    }


def emit(title: str, rows) -> None:
    """Print one experiment's table (shows up with pytest -s / in captured output)."""
    print()
    print(format_table(list(rows), title=title))


def emit_json_row(row: dict, path: str = PERF_LOG) -> dict:
    """Append one perf measurement as a JSON line and echo it to stdout.

    Returns the stamped row: ``timestamp`` plus :func:`measurement_stamp`.
    Used by ``bench_engine_scaling.py`` (and any future perf benchmark) so
    the repo keeps a greppable steps/sec baseline.
    """
    stamped = {"timestamp": round(time.time(), 3)}  # repro-lint: disable=RL102 -- perf rows are wall-clock stamped, never replayed
    stamped.update(measurement_stamp())
    stamped.update(row)
    line = json.dumps(stamped, sort_keys=True)
    print(f"PERF_ROW {line}")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return stamped


@pytest.fixture
def report():
    return emit


@pytest.fixture
def perf_row():
    return emit_json_row
