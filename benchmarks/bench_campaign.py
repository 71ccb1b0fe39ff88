"""Campaign parallel scaling: worker-pool throughput vs the serial driver.

The campaign engine (:mod:`repro.campaign`) fans seeded runs out across
``multiprocessing`` workers; this bench quantifies the scaling on a fixed
seeded matrix (≥24 jobs) and records one JSON perf row per worker count so
`perf_rows.jsonl` accumulates the campaign-throughput trajectory alongside
the engine and monitor rows.

Two invariants are asserted:

* the aggregate JSONL rows are **byte-identical** for every worker count
  (the campaign's determinism contract), and
* with at least 4 usable cores, ``jobs=4`` is ≥ 2.5x faster wall-clock than
  ``jobs=1``.  On smaller machines (CI containers are often pinned to one
  core) the speedup assertion is skipped — parallel scaling is a hardware
  property — while the determinism assertion always runs.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from repro.campaign import (
    CampaignDriver,
    CampaignSpec,
    FaultSchedule,
    JsonlSink,
    execute_job,
    expand_jobs,
)

#: 3 scenarios x 2 algorithms x 2 seeds x 2 fault schedules = 24 jobs.
MATRIX = CampaignSpec(
    scenarios=("figure1", "grid-3x3", "path-6"),
    algorithms=("cc1", "cc2"),
    seeds=(1, 2),
    faults=(FaultSchedule(), FaultSchedule(every=60, fraction=0.4)),
    max_steps=1500,
)
MIN_PARALLEL_SPEEDUP = 2.5
PARALLEL_JOBS = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_scaling(perf_emit):
    rows = []
    results = {}
    for jobs in (1, PARALLEL_JOBS):
        result = CampaignDriver(MATRIX, jobs=jobs).execute()
        results[jobs] = result
        perf_emit(
            {
                "bench": "campaign_scaling",
                "jobs": jobs,
                "runs": len(result.results),
                "total_steps": result.total_steps,
                "seconds": round(result.elapsed_seconds, 3),
                "runs_per_sec": round(len(result.results) / result.elapsed_seconds, 2),
            }
        )
        rows.append(
            {
                "workers": jobs,
                "runs": len(result.results),
                "violations": result.violations,
                "wall s": round(result.elapsed_seconds, 2),
                "steps/s": round(result.steps_per_sec, 1),
            }
        )
    return rows, results


def test_campaign_scaling(report, perf_row):
    rows, results = run_scaling(perf_row)
    report("Campaign scaling: 24-job seeded matrix, 1 vs 4 workers", rows)
    serial, parallel = results[1], results[PARALLEL_JOBS]
    # Determinism is asserted unconditionally — byte-identical JSONL.
    assert serial.jsonl_lines() == parallel.jsonl_lines()
    cores = _usable_cores()
    if cores >= PARALLEL_JOBS:
        speedup = serial.elapsed_seconds / parallel.elapsed_seconds
        assert speedup >= MIN_PARALLEL_SPEEDUP, (
            f"campaign with {PARALLEL_JOBS} workers only {speedup:.2f}x faster "
            f"than serial on {cores} cores; expected >= {MIN_PARALLEL_SPEEDUP}x"
        )
    else:
        print(
            f"\n(campaign speedup assertion skipped: only {cores} usable "
            f"core(s); determinism asserted)"
        )


#: Smaller matrix for the sink-overhead comparison: the question is the
#: per-row cost of the streaming JSONL sink (a dumps + line-buffered write
#: per completed job), so job count matters more than per-job length.
SINK_MATRIX = CampaignSpec(
    scenarios=("figure1", "path-6"),
    algorithms=("cc1", "cc2"),
    seeds=(1, 2, 3),
    max_steps=800,
)
#: Streaming each row may cost at most this fraction of campaign wall-clock.
MAX_SINK_OVERHEAD = 0.15
#: Best-of-3 interleaved sampling (the bench_streaming_spec.py pattern):
#: alternating none/jsonl within each rep keeps machine drift from loading
#: one variant, and the per-variant minimum discards GC/scheduler noise.
SINK_SAMPLE_REPS = 3


def run_sink_overhead(perf_emit, out_path):
    best = {}
    last = {}
    for _ in range(SINK_SAMPLE_REPS):
        for label, sink in (("none", None), ("jsonl", JsonlSink(out_path))):
            result = CampaignDriver(SINK_MATRIX, sink=sink).execute()
            if sink is not None:
                sink.close()
            last[label] = result
            best[label] = min(best.get(label, result.elapsed_seconds), result.elapsed_seconds)
    overhead = round(best["jsonl"] / best["none"] - 1.0, 4)
    rows = []
    for label in ("none", "jsonl"):
        perf_emit(
            {
                "bench": "campaign_sink_overhead",
                "sink": label,
                "runs": len(last[label].results),
                "total_steps": last[label].total_steps,
                "seconds": round(best[label], 3),
                "runs_per_sec": round(len(last[label].results) / best[label], 2),
                "overhead": 0.0 if label == "none" else overhead,
            }
        )
        rows.append(
            {
                "sink": label,
                "runs": len(last[label].results),
                "best wall s": round(best[label], 3),
                "overhead": "-" if label == "none" else f"{overhead:+.1%}",
            }
        )
    return rows, best, last


def test_campaign_sink_overhead(report, perf_row, tmp_path):
    out_path = str(tmp_path / "rows.jsonl")
    rows, best, last = run_sink_overhead(perf_row, out_path)
    report("Campaign sink overhead: streaming JSONL vs no sink (best of 3)", rows)
    # The streamed file must hold exactly the campaign's rows, in completion
    # order (== job order for jobs=1): crash-safety costs bytes, not truth.
    with open(out_path, "r", encoding="utf-8") as fh:
        streamed = fh.read().splitlines()
    assert streamed == last["jsonl"].jsonl_lines()
    overhead = best["jsonl"] / best["none"] - 1.0
    assert overhead <= MAX_SINK_OVERHEAD, (
        f"streaming JSONL sink cost {overhead:.1%} of campaign wall-clock; "
        f"ceiling is {MAX_SINK_OVERHEAD:.0%}"
    )


#: Driver-overhead comparison matrix: per-job work must dominate so the
#: measured delta is the pipeline's fixed cost (plan + collector fan-out +
#: result assembly), not noise in short runs.
DRIVER_MATRIX = CampaignSpec(
    scenarios=("figure1", "path-6"),
    algorithms=("cc1", "cc2"),
    seeds=(1, 2, 3),
    max_steps=400,
)
#: The layered plan → dispatch → collect → finalize pipeline may cost at most
#: this fraction of wall-clock over calling ``execute_job`` in a bare loop.
MAX_DRIVER_OVERHEAD = 0.02
#: More reps than the sink bench: a 2% ceiling needs the best-of-N minimum to
#: converge below scheduler drift, so samples are short and numerous.
DRIVER_SAMPLE_REPS = 5


def run_driver_overhead(perf_emit):
    jobs = expand_jobs(DRIVER_MATRIX)
    best = {}
    last = {}
    for _ in range(DRIVER_SAMPLE_REPS):
        # Interleaved best-of-N (the sink-overhead pattern): alternating the
        # variants within each rep keeps machine drift from loading one side.
        start = time.perf_counter()  # repro-lint: disable=RL102 -- bench harness timing, not simulation state
        inline = [execute_job(job) for job in jobs]
        inline_seconds = time.perf_counter() - start  # repro-lint: disable=RL102 -- bench harness timing, not simulation state
        result = CampaignDriver(jobs).execute()
        last["inline"], last["driver"] = inline, result
        best["inline"] = min(best.get("inline", inline_seconds), inline_seconds)
        best["driver"] = min(best.get("driver", result.elapsed_seconds), result.elapsed_seconds)
    overhead = round(best["driver"] / best["inline"] - 1.0, 4)
    total_steps = sum(r.steps for r in last["inline"])
    rows = []
    for variant in ("inline", "driver"):
        perf_emit(
            {
                "bench": "campaign_driver_overhead",
                "variant": variant,
                "runs": len(jobs),
                "total_steps": total_steps,
                "seconds": round(best[variant], 3),
                "overhead": 0.0 if variant == "inline" else overhead,
            }
        )
        rows.append(
            {
                "variant": variant,
                "runs": len(jobs),
                "best wall s": round(best[variant], 3),
                "overhead": "-" if variant == "inline" else f"{overhead:+.1%}",
            }
        )
    return rows, best, last


def test_campaign_driver_overhead(report, perf_row):
    rows, best, last = run_driver_overhead(perf_row)
    report(
        "Campaign driver overhead: pipeline vs bare execute_job loop (best of 3)",
        rows,
    )
    # The pipeline must add structure, not rows: its output byte-matches the
    # bare loop's results serialized the same way.
    inline_lines = [
        json.dumps(r.output_row(), sort_keys=True) for r in last["inline"]
    ]
    assert inline_lines == last["driver"].jsonl_lines()
    overhead = best["driver"] / best["inline"] - 1.0
    assert overhead <= MAX_DRIVER_OVERHEAD, (
        f"campaign driver pipeline cost {overhead:.2%} of wall-clock over a "
        f"bare execute_job loop; ceiling is {MAX_DRIVER_OVERHEAD:.0%}"
    )


if __name__ == "__main__":  # pragma: no cover - manual perf runs
    from conftest import emit, emit_json_row

    table, _ = run_scaling(emit_json_row)
    emit("Campaign scaling", table)
    with tempfile.TemporaryDirectory() as tmp:
        sink_table, _, _ = run_sink_overhead(emit_json_row, os.path.join(tmp, "rows.jsonl"))
    emit("Campaign sink overhead", sink_table)
    driver_table, _, _ = run_driver_overhead(emit_json_row)
    emit("Campaign driver overhead", driver_table)
