"""Batched campaign execution: many same-scenario seeds in one lockstep call.

The campaign matrix expands seeds innermost, so a matrix cell's seed sweep
arrives as a consecutive run of :class:`~repro.campaign.jobs.RunJob` objects
that differ *only* in ``index`` and ``seed``.  :func:`group_jobs` collects
those runs (for ``engine="batched"`` jobs) into groups of up to
:data:`MAX_GROUP_LANES` lanes, and :func:`execute_job_group` executes one
group as a single :class:`~repro.kernel.batched.BatchedScheduler` run —
compiling the scenario once, then giving every lane its own seed-derived
daemon, initial configuration, fault injector and streaming monitors.

Row identity is the whole point: each lane's :class:`JobResult` is assembled
by the same :func:`~repro.campaign.jobs.completed_row` helper the solo path
uses, fed by the same streaming spec suite (one observer per lane), over a
step-record stream the lane contract guarantees is identical to the solo
run's.  Sinks and ``--resume`` therefore see rows that are byte-identical
whether a cell was executed batched, solo, or split across batches (a
``--shard`` boundary or a resumed partial file may cut a seed sweep
anywhere).

Fallback is total: if the scenario is outside the batched engine's coverage
(:class:`~repro.kernel.batched.BatchedUnsupported` — probabilistic
environments, unknown algorithm subclasses, missing numpy) or *anything*
else goes wrong in the group run, every job in the group is re-run solo on
the ``incremental`` engine, which produces the identical row.  Like
:func:`~repro.campaign.jobs.execute_job`, :func:`execute_job_group` never
raises.

This module imports without numpy; the dependency is only exercised when a
group actually compiles (and its absence is just another fallback cause).
"""

from __future__ import annotations

import time
from dataclasses import fields, replace
from typing import List, Optional, Sequence, Tuple

from repro.campaign.jobs import (
    JobResult,
    RunJob,
    _run_job,
    completed_row,
    error_result,
)
from repro.kernel.batched import BATCHED_ENGINE

#: Lanes per lockstep group.  Bounds peak memory (arrays are ``(runs, n)``)
#: and keeps the post-group row flush responsive for streaming sinks; a
#: matrix cell with more seeds simply spans several byte-identical groups
#: (the lane-independence property the batch-splitting tests assert).
MAX_GROUP_LANES = 256

#: RunJob fields that may vary inside one group.  Everything else — the
#: entire scenario shape — must be equal, or the jobs describe different
#: lockstep programs.
_LANE_FIELDS = ("index", "seed")

_GROUP_FIELDS = tuple(
    f.name for f in fields(RunJob) if f.name not in _LANE_FIELDS
)


def group_key(job: RunJob) -> Tuple[object, ...]:
    """Everything about a job except its lane identity (index, seed)."""
    return tuple(getattr(job, name) for name in _GROUP_FIELDS)


def group_jobs(jobs: Sequence[RunJob]) -> List[List[RunJob]]:
    """Partition a job list into execution groups, preserving order.

    Consecutive ``batched``-engine jobs with equal :func:`group_key` share a
    group (capped at :data:`MAX_GROUP_LANES`); every other job is its own
    singleton group.  Only *consecutive* runs are merged so the runner's
    completion order — and therefore every streaming sink's row order —
    stays exactly the job order.
    """
    groups: List[List[RunJob]] = []
    current: List[RunJob] = []
    current_key: Optional[Tuple[object, ...]] = None
    for job in jobs:
        if job.engine != BATCHED_ENGINE:
            if current:
                groups.append(current)
                current = []
                current_key = None
            groups.append([job])
            continue
        key = group_key(job)
        if current and key == current_key and len(current) < MAX_GROUP_LANES:
            current.append(job)
        else:
            if current:
                groups.append(current)
            current = [job]
            current_key = key
    if current:
        groups.append(current)
    return groups


def execute_job_group(jobs: Sequence[RunJob]) -> List[JobResult]:
    """Execute one group; return a :class:`JobResult` per job, in job order.

    **Never raises.**  The batched attempt covers the whole group; on any
    failure (coverage gap, missing numpy, a genuine bug) each job is re-run
    solo on the ``incremental`` engine, and a job whose solo run *also*
    raises becomes an error row — the same terminal behaviour as
    :func:`~repro.campaign.jobs.execute_job`.
    """
    start = time.perf_counter()  # repro-lint: disable=RL102 -- elapsed_seconds is --timing-only, stripped from rows
    try:
        results = _run_group(jobs)
    except Exception:
        results = None
    if results is not None:
        # Wall time is measured per group; attribute an equal share to each
        # lane.  Timing is --timing-only and stripped from deterministic rows.
        share = (time.perf_counter() - start) / len(jobs)  # repro-lint: disable=RL102 -- --timing-only
        return [replace(result, elapsed_seconds=share) for result in results]
    fallback: List[JobResult] = []
    for job in jobs:
        job_start = time.perf_counter()  # repro-lint: disable=RL102 -- --timing-only
        try:
            fallback.append(_run_job(job, runtime_engine="incremental"))
        except Exception as exc:
            fallback.append(
                error_result(
                    job, exc, elapsed_seconds=time.perf_counter() - job_start  # repro-lint: disable=RL102 -- --timing-only
                )
            )
    return fallback


def _run_group(jobs: Sequence[RunJob]) -> List[JobResult]:
    """The batched attempt: compile once, run all lanes, assemble rows."""
    from repro.core.batched_program import compile_program
    from repro.core.runner import CommitteeCoordinator
    from repro.kernel.batched import BatchedScheduler
    from repro.kernel.faults import FaultInjector, arbitrary_configuration
    from repro.spec.streaming import StreamingSpecSuite

    lead = jobs[0]
    hypergraph = lead.build_hypergraph()
    # The algorithm object is scenario-shaped only (seed feeds the daemon,
    # engine the scheduler — neither is consulted here), so one instance
    # serves every lane, exactly as one solo run's would.
    algorithm = CommitteeCoordinator(
        hypergraph,
        algorithm=lead.algorithm,
        token=lead.token,
        seed=lead.seed,
        engine="incremental",
    ).algorithm
    program = compile_program(algorithm, lead.build_environment())

    initials = []
    daemons = []
    injectors = []
    suites = []
    for job in jobs:
        initials.append(
            arbitrary_configuration(algorithm, seed=job.seed)
            if job.arbitrary_start
            else algorithm.initial_configuration()
        )
        daemons.append(job.build_daemon())
        injectors.append(
            FaultInjector(algorithm, fraction=job.fault_fraction, seed=job.seed + 1)
            if job.fault_every
            else None
        )
        suites.append(
            StreamingSpecSuite(
                hypergraph, grace_steps=job.grace_steps, check_discussion=True
            )
        )

    scheduler = BatchedScheduler(
        program,
        initials,
        daemons,
        injectors=injectors if lead.fault_every else None,
        fault_every=lead.fault_every,
        step_listeners=[(suite.observe_step,) for suite in suites],
        record=True,
    )
    lanes = scheduler.run(lead.max_steps)

    results: List[JobResult] = []
    for job, lane, suite in zip(jobs, lanes, suites):
        metrics = suite.collector.metrics(lane.trace)
        verdicts = suite.verdicts()
        row = completed_row(job, lane.steps, lane.stop_reason, metrics, verdicts)
        results.append(
            JobResult(
                index=job.index,
                row=row,
                steps=lane.steps,
                elapsed_seconds=0.0,
                ok=verdicts.all_hold,
            )
        )
    return results
