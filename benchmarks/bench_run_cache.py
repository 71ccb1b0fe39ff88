"""Run-cache re-submission speedup.

**Fully-cached re-submission is ≥ 10x faster wall-clock** than the cold
run of the same matrix — a cache hit is a sha256 + one small file read
instead of a seeded simulation — and the cached rows are byte-identical to
the executed ones (the differential half of the assertion: identical
bytes, an order of magnitude less wall).
"""

from __future__ import annotations

import time

from repro.campaign import CampaignDriver, CampaignSpec, RunCache, expand_jobs

#: 2 scenarios x 2 algorithms x 3 seeds = 12 jobs; long enough per run
#: that the cold wall-clock dominates cache bookkeeping by a wide margin.
CACHE_MATRIX = CampaignSpec(
    scenarios=("figure1", "grid-3x3"),
    algorithms=("cc1", "cc2"),
    seeds=(1, 2, 3),
    max_steps=1500,
)
MIN_CACHE_SPEEDUP = 10.0


def run_cache_resubmission(cache_dir):
    jobs = expand_jobs(CACHE_MATRIX)
    cache = RunCache(cache_dir)
    start = time.perf_counter()  # repro-lint: disable=RL102 -- bench wall-clock, never enters campaign rows
    cold = CampaignDriver(jobs, cache=cache).execute()
    cold_seconds = time.perf_counter() - start  # repro-lint: disable=RL102 -- bench wall-clock
    start = time.perf_counter()  # repro-lint: disable=RL102 -- bench wall-clock
    cached = CampaignDriver(jobs, cache=cache).execute()
    cached_seconds = time.perf_counter() - start  # repro-lint: disable=RL102 -- bench wall-clock
    speedup = cold_seconds / cached_seconds if cached_seconds > 0 else float("inf")
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


def test_run_cache_resubmission(report, tmp_path):
    table, cold, cached, speedup = run_cache_resubmission(str(tmp_path / "cache"))
    report("Run cache: cold execution vs fully-cached re-submission", table)
    # Differential: cache hits are byte-identical to execution.
    assert cached.jsonl_lines() == cold.jsonl_lines()
    assert speedup >= MIN_CACHE_SPEEDUP, (
        f"fully-cached re-submission only {speedup:.1f}x faster than the "
        f"cold run; floor is {MIN_CACHE_SPEEDUP:.0f}x"
    )
