"""Streaming spec monitor overhead on the incremental engine.

The streaming spec subsystem (:mod:`repro.spec.streaming`) exists so that
production-scale sparse runs can assert safety/progress/fairness while they
happen.  That is only viable if the monitors ride the hot path cheaply; this
bench quantifies the toll: ``CC2 ∘ TC`` on the ``cycle-100`` stress topology
(n = m = 100), incremental engine, ``record_configurations=False``, with and
without a :class:`~repro.spec.streaming.StreamingSpecSuite` attached to the
scheduler's observer hook.

Acceptance: monitor overhead <= 6% of plain sparse throughput — below the
~6-9% the monitors cost when they swept all ``n`` professors and ``m``
committees every step, before the kernel's writer-set delta protocol
(:class:`~repro.kernel.trace.StepDelta`) let them update in
``O(|writers|)`` per step.  Each measurement takes the best of
``MEASUREMENTS`` interleaved plain/monitored samples (wall-clock ratios of
single short runs are jitter-dominated).

A correctness guard re-runs a short monitored prefix against the dense
post-hoc checkers before timing anything.
"""

from __future__ import annotations

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
#: Interleaved samples per kind; the best rate of each is compared.
MEASUREMENTS = 3
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
    scheduler, _ = _build_scheduler(monitored)
    start = time.perf_counter()  # repro-lint: disable=RL102 -- perf bench measures wall clock by design
    result = scheduler.run(max_steps=STEPS)
    elapsed = time.perf_counter() - start  # repro-lint: disable=RL102 -- perf bench measures wall clock by design
    return result.steps / elapsed if elapsed > 0 else float("inf")


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


def run_overhead():
    # Interleave the two kinds and keep the best rate of each: the best-case
    # sample is the least polluted by scheduler noise on a shared machine,
    # and the *ratio* of bests is what the acceptance bound is about.
    rates = {"plain": 0.0, "monitored": 0.0}
    for _ in range(MEASUREMENTS):
        rates["plain"] = max(rates["plain"], _measure(False))
        rates["monitored"] = max(rates["monitored"], _measure(True))
    overhead = 1.0 - rates["monitored"] / rates["plain"]
    rows = [
        {
            "scenario": SCENARIO,
            "plain steps/s": round(rates["plain"], 1),
            "monitored steps/s": round(rates["monitored"], 1),
            "overhead": f"{overhead * 100:.1f}%",
        }
    ]
    return rows, overhead


def test_streaming_spec_overhead(report):
    _assert_monitored_verdicts_correct()
    rows, overhead = run_overhead()
    report("Streaming spec monitors: overhead on the incremental engine", rows)
    if overhead > MAX_OVERHEAD:
        # One short wall-clock sample is jitter-prone; re-measure once before
        # declaring a regression.
        plain = _measure(False)
        monitored = _measure(True)
        overhead = min(overhead, 1.0 - monitored / plain)
    assert overhead <= MAX_OVERHEAD, (
        f"streaming spec monitors cost {overhead * 100:.1f}% of sparse "
        f"incremental throughput at n=100; ceiling is {MAX_OVERHEAD * 100:.0f}%"
    )
