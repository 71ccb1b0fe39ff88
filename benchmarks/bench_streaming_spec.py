"""Streaming spec monitor overhead on the incremental engine.

The streaming spec subsystem (:mod:`repro.spec.streaming`) exists so that
production-scale sparse runs can assert safety/progress/fairness while they
happen.  That is only viable if the monitors ride the hot path cheaply; this
bench quantifies the toll: ``CC2 ∘ TC`` on the ``cycle-100`` stress topology
(n = m = 100), incremental engine, ``record_configurations=False``, with and
without a :class:`~repro.spec.streaming.StreamingSpecSuite` attached to the
scheduler's observer hook.

Acceptance: the median monitor overhead <= 6% of plain sparse throughput —
below the ~6-9% the monitors cost when they swept all ``n`` professors and
``m`` committees every step, before the kernel's writer-set delta protocol
(:class:`~repro.kernel.trace.StepDelta`) let them update in
``O(|writers|)`` per step.

The measurement takes ``PAIRS`` interleaved plain/monitored pairs, each
timed in process CPU time (another tenant's load on a shared host then
stretches neither side), alternating which side of a pair runs first.  One
pair gives one overhead sample, ``1 - plain / monitored`` of its two CPU
times; the gate prints the median and the quartiles of the samples and
asserts the median.  A best-of-few-samples ratio would pass whenever one
favourable sample turned up.

A correctness guard re-runs a short monitored prefix against the dense
post-hoc checkers before timing anything.
"""

from __future__ import annotations

import statistics
import time
from typing import Optional, Tuple

from repro.core.cc2 import CC2Algorithm
from repro.core.composition import TokenBinding
from repro.kernel.daemon import default_daemon
from repro.kernel.scheduler import Scheduler
from repro.spec.properties import check_exclusion, check_progress, check_synchronization
from repro.spec.streaming import StreamingSpecSuite
from repro.tokenring.oracle import OracleTokenModule
from repro.workloads.scenarios import scenario_by_name
from repro.workloads.request_models import AlwaysRequestingEnvironment

SCENARIO = "cycle-100"
STEPS = 600
SEED = 23
#: Interleaved plain/monitored pairs; one overhead sample per pair.
PAIRS = 40
#: Acceptance ceiling for the monitors' toll on sparse incremental
#: throughput (the pre-delta full-sweep monitors cost ~6-9% here).
MAX_OVERHEAD = 0.06


def _build_scheduler(monitored: bool) -> Tuple[Scheduler, Optional[StreamingSpecSuite]]:
    hypergraph = scenario_by_name(SCENARIO).hypergraph
    algorithm = CC2Algorithm(hypergraph, TokenBinding(OracleTokenModule(hypergraph.vertices)))
    suite = StreamingSpecSuite(hypergraph) if monitored else None
    scheduler = Scheduler(
        algorithm,
        environment=AlwaysRequestingEnvironment(discussion_steps=1),
        daemon=default_daemon(seed=SEED),
        record_configurations=False,
        engine="incremental",
        step_listener=suite.observe_step if suite is not None else None,
    )
    return scheduler, suite


def _measure(monitored: bool) -> float:
    """Process CPU seconds of one run of ``STEPS`` steps (construction excluded)."""
    scheduler, _ = _build_scheduler(monitored)
    start = time.process_time()  # repro-lint: disable=RL102 -- perf bench measures CPU time by design
    result = scheduler.run(max_steps=STEPS)
    elapsed = time.process_time() - start  # repro-lint: disable=RL102 -- perf bench measures CPU time by design
    assert result.steps == STEPS
    return elapsed


def _assert_monitored_verdicts_correct(steps: int = 150) -> None:
    hypergraph = scenario_by_name(SCENARIO).hypergraph
    algorithm = CC2Algorithm(hypergraph, TokenBinding(OracleTokenModule(hypergraph.vertices)))
    dense = Scheduler(
        algorithm,
        environment=AlwaysRequestingEnvironment(discussion_steps=1),
        daemon=default_daemon(seed=SEED),
    )
    trace = dense.run(max_steps=steps).trace
    scheduler, suite = _build_scheduler(monitored=True)
    scheduler.run(max_steps=steps)
    verdicts = suite.verdicts()
    assert verdicts.exclusion == check_exclusion(trace, hypergraph)
    assert verdicts.synchronization == check_synchronization(trace, hypergraph)
    assert verdicts.progress == check_progress(trace, hypergraph)


def run_overhead(pairs: int = PAIRS):
    """``PAIRS`` alternating plain/monitored pairs; returns the table rows and
    the overhead quartiles ``(q1, median, q3)``."""
    _measure(False), _measure(True)  # warm-up: imports, caches, lazy set-up
    plain, monitored, overheads = [], [], []
    for pair in range(pairs):
        if pair % 2 == 0:
            p, m = _measure(False), _measure(True)
        else:
            m, p = _measure(True), _measure(False)
        plain.append(p)
        monitored.append(m)
        overheads.append(1.0 - p / m)
    q1, median, q3 = statistics.quantiles(overheads, n=4)
    rows = [
        {
            "scenario": SCENARIO,
            "pairs": pairs,
            "plain steps/s": round(STEPS / statistics.median(plain), 1),
            "monitored steps/s": round(STEPS / statistics.median(monitored), 1),
            "overhead median": f"{median * 100:.1f}%",
            "overhead IQR": f"{q1 * 100:.1f}-{q3 * 100:.1f}%",
        }
    ]
    return rows, (q1, median, q3)


def test_streaming_spec_overhead(report):
    _assert_monitored_verdicts_correct()
    rows, (q1, median, q3) = run_overhead()
    report("Streaming spec monitors: overhead on the incremental engine", rows)
    assert median <= MAX_OVERHEAD, (
        f"streaming spec monitors cost a median {median * 100:.1f}% "
        f"(IQR {q1 * 100:.1f}-{q3 * 100:.1f}%, {PAIRS} CPU-time pairs) of sparse "
        f"incremental throughput at n=100; ceiling is {MAX_OVERHEAD * 100:.0f}%"
    )
