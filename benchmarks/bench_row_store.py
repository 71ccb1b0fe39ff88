"""Run-cache re-submission speedup and columnar-aggregate query margin.

Two claims of `repro.campaign.store` are quantified and asserted:

* **Fully-cached re-submission is ≥ 10x faster wall-clock** than the cold
  run of the same matrix — a cache hit is a sha256 + one small file read
  instead of a seeded simulation — and the cached rows are byte-identical
  to the executed ones (the differential half of the assertion: identical
  bytes, an order of magnitude less wall).
* **Columnar aggregates beat JSONL reparse**: answering the summary-table
  query (per-cell counts, step totals, Jain spread) from a built
  :class:`~repro.campaign.store.ColumnStore` must be faster than
  re-parsing the JSONL text per query — the "stop reparsing per query"
  motivation, measured on a replicated many-thousand-row file.

Perf rows land in ``perf_rows.jsonl`` under the ``run_cache_resubmission``
and ``row_store_aggregates`` schemas registered in
``tools/staticcheck/repo_checks.py``.
"""

from __future__ import annotations

import json
import tempfile
import time

from repro.campaign import CampaignDriver, CampaignSpec, ColumnStore, RunCache, expand_jobs
from repro.campaign.sinks import row_line

#: 2 scenarios x 2 algorithms x 3 seeds = 12 jobs; long enough per run
#: that the cold wall-clock dominates cache bookkeeping by a wide margin.
CACHE_MATRIX = CampaignSpec(
    scenarios=("figure1", "grid-3x3"),
    algorithms=("cc1", "cc2"),
    seeds=(1, 2, 3),
    max_steps=1500,
)
MIN_CACHE_SPEEDUP = 10.0

#: The aggregate query is timed on this many rows (a small campaign's rows
#: replicated with shifted indices/seeds — realistic field shapes without
#: simulating thousands of runs).
AGGREGATE_ROWS = 20_000
#: Per-variant best-of-N (the bench_campaign.py sampling pattern).
SAMPLE_REPS = 3


def run_cache_resubmission(perf_emit, cache_dir):
    jobs = expand_jobs(CACHE_MATRIX)
    cache = RunCache(cache_dir)
    start = time.perf_counter()  # repro-lint: disable=RL102 -- bench wall-clock, never enters campaign rows
    cold = CampaignDriver(jobs, cache=cache).execute()
    cold_seconds = time.perf_counter() - start  # repro-lint: disable=RL102 -- bench wall-clock
    start = time.perf_counter()  # repro-lint: disable=RL102 -- bench wall-clock
    cached = CampaignDriver(jobs, cache=cache).execute()
    cached_seconds = time.perf_counter() - start  # repro-lint: disable=RL102 -- bench wall-clock
    speedup = cold_seconds / cached_seconds if cached_seconds > 0 else float("inf")
    perf_emit(
        {
            "bench": "run_cache_resubmission",
            "variant": "incremental",
            "runs": len(jobs),
            "cold_seconds": round(cold_seconds, 4),
            "cached_seconds": round(cached_seconds, 4),
            "speedup": round(min(speedup, 1e6), 1),
        }
    )
    table = [
        {
            "variant": label,
            "runs": len(jobs),
            "wall s": round(seconds, 4),
            "speedup": "-" if label == "cold" else f"{speedup:.0f}x",
        }
        for label, seconds in (("cold", cold_seconds), ("cached", cached_seconds))
    ]
    return table, cold, cached, speedup


def _replicated_lines():
    """A many-thousand-row JSONL body with realistic campaign row shapes."""
    base = CampaignDriver(
        CampaignSpec(scenarios=("figure1", "path-6"), algorithms=("cc1", "cc2"), seeds=(1,), max_steps=200),
    ).execute().rows
    lines = []
    for index in range(AGGREGATE_ROWS):
        row = dict(base[index % len(base)])
        row["job"] = index
        row["seed"] = 1 + index // len(base)  # vary a field so rows aren't one repeated string
        lines.append(row_line(row))
    return lines


def _aggregate_from_parsed(rows):
    """The summary-table aggregate, field-by-field over row dicts."""
    cells = {}
    for row in rows:
        key = (row["scenario"], row["algorithm"])
        cell = cells.setdefault(key, {"runs": 0, "violations": 0, "errors": 0, "steps": 0, "jains": []})
        cell["runs"] += 1
        status = row.get("status")
        if status == "violation":
            cell["violations"] += 1
        elif status == "error":
            cell["errors"] += 1
        cell["steps"] += int(row.get("steps", 0) or 0)
        jain = row.get("jain")
        if status != "error" and isinstance(jain, float):
            cell["jains"].append(jain)
    return {
        key: (cell["runs"], cell["violations"], cell["errors"], cell["steps"],
              min(cell["jains"]) if cell["jains"] else None,
              max(cell["jains"]) if cell["jains"] else None)
        for key, cell in cells.items()
    }


def run_aggregate_comparison(perf_emit):
    lines = _replicated_lines()
    text = "\n".join(lines) + "\n"
    store = ColumnStore.from_rows(json.loads(line) for line in lines)
    best_jsonl = best_store = None
    for _ in range(SAMPLE_REPS):
        start = time.perf_counter()  # repro-lint: disable=RL102 -- bench wall-clock
        reparsed = _aggregate_from_parsed(json.loads(line) for line in text.splitlines())
        jsonl_seconds = time.perf_counter() - start  # repro-lint: disable=RL102 -- bench wall-clock
        start = time.perf_counter()  # repro-lint: disable=RL102 -- bench wall-clock
        columnar = {
            (cell["scenario"], cell["algorithm"]): (
                cell["runs"], cell["violations"], cell["errors"], cell["steps"],
                cell["jain_min"], cell["jain_max"],
            )
            for cell in store.cell_stats()
        }
        store_seconds = time.perf_counter() - start  # repro-lint: disable=RL102 -- bench wall-clock
        assert columnar == reparsed  # same answer, different path
        best_jsonl = jsonl_seconds if best_jsonl is None else min(best_jsonl, jsonl_seconds)
        best_store = store_seconds if best_store is None else min(best_store, store_seconds)
    speedup = best_jsonl / best_store if best_store > 0 else float("inf")
    perf_emit(
        {
            "bench": "row_store_aggregates",
            "query": "cell_stats",
            "rows": len(lines),
            "jsonl_seconds": round(best_jsonl, 4),
            "store_seconds": round(best_store, 4),
            "speedup": round(min(speedup, 1e6), 2),
        }
    )
    table = [
        {
            "path": label,
            "rows": len(lines),
            "best query s": round(seconds, 4),
            "speedup": "-" if label == "jsonl reparse" else f"{speedup:.1f}x",
        }
        for label, seconds in (("jsonl reparse", best_jsonl), ("column store", best_store))
    ]
    return table, speedup


def test_run_cache_resubmission(report, perf_row, tmp_path):
    table, cold, cached, speedup = run_cache_resubmission(perf_row, str(tmp_path / "cache"))
    report("Run cache: cold execution vs fully-cached re-submission", table)
    # Differential: cache hits are byte-identical to execution.
    assert cached.jsonl_lines() == cold.jsonl_lines()
    assert speedup >= MIN_CACHE_SPEEDUP, (
        f"fully-cached re-submission only {speedup:.1f}x faster than the "
        f"cold run; floor is {MIN_CACHE_SPEEDUP:.0f}x"
    )


def test_row_store_aggregates(report, perf_row):
    table, speedup = run_aggregate_comparison(perf_row)
    report(f"Aggregate query: {AGGREGATE_ROWS} rows, column store vs JSONL reparse", table)
    assert speedup > 1.0, (
        f"columnar cell_stats is {speedup:.2f}x the JSONL-reparse path; "
        "it must beat reparsing per query"
    )


if __name__ == "__main__":  # pragma: no cover - manual perf runs
    from conftest import emit, emit_json_row

    with tempfile.TemporaryDirectory() as tmp:
        cache_table, _, _, _ = run_cache_resubmission(emit_json_row, tmp)
    emit("Run cache re-submission", cache_table)
    agg_table, _ = run_aggregate_comparison(emit_json_row)
    emit("Columnar aggregates vs JSONL reparse", agg_table)
