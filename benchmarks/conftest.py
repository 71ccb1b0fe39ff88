"""Shared helpers for the benchmark harness.

Every figure or theorem benchmark regenerates one experiment of the paper
(the paper-to-code map in ``docs/ARCHITECTURE.md``) and prints the
resulting table so that ``pytest benchmarks/ --benchmark-only`` doubles as
the reproduction report.  The timing numbers produced by pytest-benchmark
measure the cost of regenerating the experiment (one full simulation per
iteration).
"""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table


def emit(title: str, rows) -> None:
    """Print one experiment's table (shows up with pytest -s / in captured output)."""
    print()
    print(format_table(list(rows), title=title))


@pytest.fixture
def report():
    return emit
