"""Campaign engine: seeded scenario matrices fanned out across processes.

One run can now be verified cheaply (streaming monitors over sparse traces);
the paper's claims are statements over *families* of topologies, daemons and
fault schedules.  This package turns a declarative matrix —
scenarios × algorithms × engines × daemons × fault schedules × seeds, where
a scenario is a named one from :mod:`repro.workloads.scenarios` *or* a
randomized one from :mod:`repro.workloads.random_scenarios` — into seeded
:class:`~repro.campaign.jobs.RunJob` objects, executes them across
``multiprocessing`` workers with the streaming spec suite (2-phase
discussion included) and metrics collector attached, and aggregates per-run
verdicts/metrics/throughput into JSONL rows plus a summary table.

Rows are **deterministic**: a campaign's JSONL output is byte-identical for
any worker count (timing lives outside the rows unless explicitly asked
for), so campaign outputs diff cleanly across commits.

Rows are also **crash-safe**: the driver hands every row to an optional
:class:`~repro.campaign.sinks.RowSink` in completion order the moment its
job finishes (line-buffered JSONL file, acked collector socket, in-memory
buffer), worker exceptions become ``status="error"`` rows instead of
killing the pool, :mod:`repro.campaign.resume` re-ingests a partial JSONL
stream so ``repro-cc campaign --resume`` executes only the missing jobs,
and :mod:`repro.campaign.adaptive` re-expands cells whose verdicts
disagree across seeds with fresh seeds.

And campaigns **shard across machines**: :mod:`repro.campaign.shard` adds a
collector service (``repro-cc collect``) that hands out job ranges over the
NDJSON socket protocol, collects acked rows from many shard processes
(``repro-cc campaign --collector``), re-dispatches a dead shard's range via
the resume machinery, and merges everything into one campaign file that is
byte-identical to a local ``--jobs 1`` run.

And rows are **cacheable and queryable at scale**: :mod:`repro.campaign.store`
adds a content-addressed run cache (rows are pure functions of their jobs,
so a sha256 over the identity block addresses the row a run *would*
produce — ``repro-cc campaign --cache DIR`` short-circuits re-submitted
jobs with byte-identical stored rows) and an array-backed columnar row
store whose aggregate queries (``repro-cc stats``) replace per-query JSONL
reparsing.

And every campaign runs through **one layered pipeline**:
:class:`~repro.campaign.driver.CampaignDriver` composes
:class:`~repro.campaign.driver.CampaignPlan` (matrix expansion + resume
reconciliation + cache probe), an :class:`~repro.campaign.driver.Executor`
(:class:`~repro.campaign.driver.SerialExecutor` /
:class:`~repro.campaign.driver.PoolExecutor` /
:class:`~repro.campaign.driver.ShardExecutor`), a
:class:`~repro.campaign.driver.RowCollector` fan-out and a
:class:`~repro.campaign.driver.Finalizer` — for the CLI, the shard client
and library callers alike::

    result = CampaignDriver(spec, jobs=4).execute()

Layers: ``matrix`` (the declarative spec and its expansion), ``jobs`` (the
picklable run job + the spawn-safe worker entry point), ``driver`` (the
plan → dispatch → collect → finalize stages), ``sinks``/``resume``/
``adaptive``/``store`` (the persistence layer), ``shard`` (the distribution
layer).  The CLI front end is ``repro-cc campaign`` / ``repro-cc collect``
/ ``repro-cc stats``.
"""

from repro.campaign.adaptive import disagreement_cells, rerun_jobs
from repro.campaign.batched import execute_job_group, group_jobs
from repro.campaign.driver import (
    CampaignDriver,
    CampaignOutcome,
    CampaignPlan,
    CampaignResult,
    Executor,
    Finalizer,
    PoolExecutor,
    RowCollector,
    SerialExecutor,
    ShardExecutor,
    shard_slice,
)
from repro.campaign.jobs import JobResult, RunJob, error_result, execute_job
from repro.campaign.matrix import CampaignSpec, FaultSchedule, expand_jobs
from repro.campaign.resume import (
    ResumeError,
    as_job_result,
    merge_results,
    read_rows,
    reconcile_extra_rows,
    remaining_jobs,
    validate_row_matches_job,
    validate_rows_match_jobs,
)
from repro.campaign.shard import (
    CONTROL_SCHEMAS,
    Collector,
    CollectorState,
    ShardRecord,
    control_message,
    hello_message,
    matrix_fingerprint,
    validate_control,
)
from repro.campaign.sinks import (
    AckingSocketSink,
    BufferedSink,
    JsonlSink,
    RowSink,
    ShardProtocolError,
    TeeSink,
    parse_address,
    write_lines_atomic,
)
from repro.campaign.store import (
    CACHE_KEY_ATTRS,
    ColumnStore,
    RunCache,
    run_cache_key,
    run_cache_key_for_row,
)

#: Dotted names handed to ``multiprocessing`` workers.  repro-lint's RL303
#: checks each names a top-level ``def`` and ``tests/test_campaign.py``
#: that it pickle round-trips — i.e. resolves from a spawn context — so a
#: refactor cannot silently break ``repro-cc campaign --jobs N``.
SPAWN_ENTRY_POINTS = ("repro.campaign.jobs.execute_job",)

__all__ = [
    "AckingSocketSink",
    "BufferedSink",
    "CACHE_KEY_ATTRS",
    "CONTROL_SCHEMAS",
    "CampaignDriver",
    "CampaignOutcome",
    "CampaignPlan",
    "CampaignResult",
    "CampaignSpec",
    "Collector",
    "CollectorState",
    "ColumnStore",
    "Executor",
    "FaultSchedule",
    "Finalizer",
    "JobResult",
    "JsonlSink",
    "PoolExecutor",
    "ResumeError",
    "RowCollector",
    "RowSink",
    "RunCache",
    "RunJob",
    "SPAWN_ENTRY_POINTS",
    "SerialExecutor",
    "ShardExecutor",
    "ShardProtocolError",
    "ShardRecord",
    "TeeSink",
    "as_job_result",
    "control_message",
    "disagreement_cells",
    "error_result",
    "execute_job",
    "execute_job_group",
    "expand_jobs",
    "group_jobs",
    "hello_message",
    "matrix_fingerprint",
    "merge_results",
    "parse_address",
    "read_rows",
    "reconcile_extra_rows",
    "remaining_jobs",
    "rerun_jobs",
    "run_cache_key",
    "run_cache_key_for_row",
    "shard_slice",
    "validate_control",
    "validate_row_matches_job",
    "validate_rows_match_jobs",
    "write_lines_atomic",
]
