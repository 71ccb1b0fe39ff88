"""The layered campaign driver: plan → dispatch → collect → finalize.

Every frontend that runs campaigns — the ``repro-cc campaign`` CLI, the
shard client feeding a ``collect`` service, a notebook — builds one
:class:`CampaignDriver`, which drives the same four stages:

* :class:`CampaignPlan` — matrix expansion, resume reconciliation (prior
  rows split into in-matrix and re-run-appendix parts), static shard
  selection and the :class:`~repro.campaign.store.RunCache` probe.  Its
  outputs are ``cached_results`` (hits, in job order) and ``todo`` (what
  actually needs executing).
* an :class:`Executor` — :class:`SerialExecutor` (owns the batched
  same-cell grouping), :class:`PoolExecutor` (a ``multiprocessing`` drain
  with a chosen start method) or :class:`ShardExecutor` (the acking
  collector-client protocol).  Executors know nothing about sinks or
  caches; they push every finished :class:`~repro.campaign.jobs.JobResult`
  into a collector.
* a :class:`RowCollector` — the single fan-out point: each completed row
  goes to the cache, the result list, the crash-safety sink and the
  progress callback, in that order, exactly once.
* a :class:`Finalizer` — the atomic job-order ``--out`` rewrite, the
  summary table (one columnar pass over the job-order rows), cache
  statistics and the exit-code derivation, returned as a
  :class:`CampaignOutcome`.

Whether a batch runs serially or on a pool, after its cache hits are
drained, is decided in one place, :func:`dispatch`, for the local campaign,
the re-run appendix and every batch a shard is granted alike.

:class:`CampaignDriver` composes the stages into the full CLI semantics
(resume + cache + sinks + static shards + collector mode +
``--rerun-disagreements``), with ``info``/``warn`` callbacks instead of
hardwired printing, so ``cli._cmd_campaign`` is a flag-parsing adapter and
a library caller runs the identical pipeline with
``CampaignDriver(spec).execute()``.

The byte-identity contract is unchanged: rows are pure functions of their
jobs, the collector preserves completion-order streaming for sinks, and
the finalizer's job-order sort + sorted-key serialization make every
frontend's artifact byte-identical for any worker count, resume history,
cache state or shard layout.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.campaign.adaptive import rerun_jobs
from repro.campaign.jobs import JobResult, RunJob, execute_job
from repro.campaign.matrix import CampaignSpec, expand_jobs
from repro.campaign.resume import (
    is_job_index,
    merge_results,
    reconcile_extra_rows,
    remaining_jobs,
    validate_rows_match_jobs,
)
from repro.campaign.shard import DEFAULT_PULL_BATCH, control_message, hello_message
from repro.campaign.sinks import (
    AckingSocketSink,
    RowSink,
    ShardProtocolError,
    TeeSink,
    row_line,
    write_lines_atomic,
)
from repro.campaign.store import ColumnStore, RunCache


def shard_slice(jobs: Sequence[RunJob], index: int, count: int) -> List[RunJob]:
    """The ``index``-th of ``count`` contiguous, near-equal job ranges.

    The static sharding rule for multi-machine campaigns: every shard
    expands the same matrix and selects its own range locally, so nothing
    but ``index``/``count`` needs to travel.  Ranges partition the job list
    exactly (sizes differ by at most one, earlier shards get the longer
    ranges), so N shards' ranges merged by job index reproduce the full
    campaign.  ``index`` is 0-based.
    """
    if count < 1:
        raise ValueError("shard count must be >= 1")
    if not 0 <= index < count:
        raise ValueError(f"shard index must be in [0, {count}), got {index}")
    base, extra = divmod(len(jobs), count)
    low = index * base + min(index, extra)
    high = low + base + (1 if index < extra else 0)
    return list(jobs[low:high])


@dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    jobs: List[RunJob]
    results: List[JobResult]  # in job-index order
    workers: int
    elapsed_seconds: float  # campaign wall-clock

    @property
    def rows(self) -> List[Dict[str, object]]:
        """Per-run rows, deterministic and in job order."""
        return [result.row for result in self.results]

    @property
    def violations(self) -> int:
        """Number of completed runs in which some checked property failed."""
        return sum(1 for result in self.results if result.status == "violation")

    @property
    def errors(self) -> int:
        """Number of runs whose worker raised (``status="error"`` rows)."""
        return sum(1 for result in self.results if result.status == "error")

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.errors == 0

    @property
    def total_steps(self) -> int:
        return sum(result.steps for result in self.results)

    @property
    def steps_per_sec(self) -> float:
        """Campaign-level throughput: executed steps per wall-clock second.

        0.0 (not inf) when no wall-clock was recorded — ``Infinity`` is not
        valid JSON and poisons the summary table.
        """
        return self.total_steps / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def jsonl_lines(self, include_timing: bool = False) -> List[str]:
        """One sorted-key JSON object per run.

        ``include_timing=True`` adds a per-run ``steps_per_sec`` field —
        useful for perf digging, but machine- and load-dependent, so it
        breaks the byte-identical-across-worker-counts guarantee and is off
        by default.
        """
        return [row_line(result.output_row(include_timing)) for result in self.results]

    def write_jsonl(self, path: str, include_timing: bool = False) -> None:
        """Atomically replace ``path`` with the job-order rows.

        Goes through :func:`~repro.campaign.sinks.write_lines_atomic`, so
        the completion-order stream a crash-safe sink left at ``path`` is
        only ever *replaced whole* — a crash mid-rewrite cannot lose
        completed rows (the resume atomicity guarantee).
        """
        write_lines_atomic(
            path, (row_line(result.output_row(include_timing)) for result in self.results)
        )


class RowCollector:
    """The collect stage: fan each finished row everywhere it must go.

    One object owns every per-row side effect, in a fixed order — store
    into the cache (executed rows only; the cache refuses error rows),
    append to the result list, stream to the crash-safety ``sink`` and
    invoke the ``progress`` callback — so serial, pool and shard executors
    cannot drift apart on what "a row completed" means.

    ``sink`` lifecycle belongs to the caller (never closed here).
    """

    def __init__(
        self,
        sink: Optional[RowSink] = None,
        sink_timing: bool = False,
        cache: Optional[RunCache] = None,
        progress: Optional[Callable[[JobResult, int, int], None]] = None,
        total: int = 0,
    ) -> None:
        self.sink = sink
        self.sink_timing = sink_timing
        self.cache = cache
        self.progress = progress
        self.total = total
        self.results: List[JobResult] = []

    def collect(self, result: JobResult) -> None:
        """A freshly executed result: cached, kept, streamed."""
        self._fan(result, executed=True)

    def add_cached(self, result: JobResult) -> None:
        """A cache hit: kept and streamed, but never re-stored."""
        self._fan(result, executed=False)

    def _fan(self, result: JobResult, executed: bool) -> None:
        if executed and self.cache is not None:
            self.cache.store(result)  # no-op for error rows
        self.results.append(result)
        if self.sink is not None:
            self.sink.write_row(result.output_row(include_timing=self.sink_timing))
        if self.progress is not None:
            self.progress(result, len(self.results), self.total)


class CampaignPlan:
    """The plan stage: what must run, what is already answered.

    Expands a :class:`~repro.campaign.matrix.CampaignSpec` (or adopts
    pre-expanded jobs), validates ``prior_rows`` against the matrix
    (raising :class:`~repro.campaign.resume.ResumeError` on mismatch),
    splits them into ``base_prior`` (in-matrix) and ``extra_prior``
    (re-run-appendix rows beyond the matrix, see
    :func:`~repro.campaign.resume.reconcile_extra_rows`), selects the
    static ``shard`` slice if one is given, and probes the ``cache`` over
    the pending jobs — hits land in ``cached_results`` (job order),
    everything else in ``todo``.
    """

    def __init__(
        self,
        spec_or_jobs: Union[CampaignSpec, Sequence[RunJob]],
        prior_rows: Iterable[Dict[str, object]] = (),
        retry_errors: bool = False,
        shard: Optional[Tuple[int, int]] = None,
        cache: Optional[RunCache] = None,
    ) -> None:
        if isinstance(spec_or_jobs, CampaignSpec):
            self.jobs: List[RunJob] = expand_jobs(spec_or_jobs)
        else:
            self.jobs = list(spec_or_jobs)
        self.prior_rows = list(prior_rows)
        if self.prior_rows:
            validate_rows_match_jobs(self.jobs, self.prior_rows)
        # Rows at indices beyond the matrix come from an earlier
        # --rerun-disagreements pass; the base matrix cannot vouch for
        # them (the orphan/stale contract lives in CampaignDriver).
        self.base_prior = [
            row for row in self.prior_rows if int(row["job"]) < len(self.jobs)
        ]
        self.extra_prior = [
            row for row in self.prior_rows if int(row["job"]) >= len(self.jobs)
        ]
        self.remaining = remaining_jobs(
            self.jobs, self.prior_rows, retry_errors=retry_errors
        )
        self.shard = shard
        if shard is not None:
            index, count = shard
            self.selected = shard_slice(self.jobs, index, count)
            self.pending = remaining_jobs(
                self.selected, self.prior_rows, retry_errors=retry_errors
            )
        else:
            self.selected = self.jobs
            self.pending = self.remaining
        self.cache = cache
        self.cached_results: List[JobResult] = []
        self.todo: List[RunJob] = list(self.pending)
        if cache is not None:
            self.todo = []
            for job in self.pending:
                hit = cache.result_for(job)
                if hit is None:
                    self.todo.append(job)
                else:
                    self.cached_results.append(hit)


class Executor(Protocol):
    """The dispatch stage: run ``todo``, push every result at ``collector``.

    Returns the number of workers actually used (feeds the summary's
    ``xN`` annotation).  Executors never sort, sink, cache or aggregate —
    that is the collector's job — so adding a dispatch backend cannot fork
    the row semantics.
    """

    def run(self, todo: Sequence[RunJob], collector: RowCollector) -> int:
        ...


class SerialExecutor:
    """In-process dispatch; owns the batched same-cell grouping.

    Consecutive same-scenario seeds with ``engine="batched"`` run as one
    vectorized group, split back into per-seed rows that byte-match the
    solo rows (see :mod:`repro.campaign.batched`).  Groups preserve job
    order, so sinks still see rows in job order here.
    """

    def run(self, todo: Sequence[RunJob], collector: RowCollector) -> int:
        from repro.campaign.batched import execute_job_group, group_jobs

        for group in group_jobs(todo):
            if len(group) == 1 and group[0].engine != "batched":
                collector.collect(execute_job(group[0]))
            else:
                for result in execute_job_group(group):
                    collector.collect(result)
        return 1


class PoolExecutor:
    """Multiprocessing dispatch with a configurable start method.

    ``spawn`` (the default) is available everywhere and the strictest
    about what a worker can receive, which keeps
    :func:`~repro.campaign.jobs.execute_job` honest; ``fork`` skips the
    per-worker interpreter start-up that dominates very small campaigns
    on POSIX.  The drain is unordered — long jobs do not
    head-of-line-block short ones — and the driver restores job order when
    it merges the collected results.
    """

    def __init__(self, jobs: int, mp_context: str = "spawn") -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.mp_context = mp_context

    def run(self, todo: Sequence[RunJob], collector: RowCollector) -> int:
        if not todo:
            return 1
        workers = min(self.jobs, len(todo))
        context = multiprocessing.get_context(self.mp_context)
        with context.Pool(processes=workers) as pool:
            for result in pool.imap_unordered(execute_job, todo, chunksize=1):
                collector.collect(result)
        return workers


def dispatch(
    plan: CampaignPlan,
    collector: RowCollector,
    jobs: int = 1,
    mp_context: str = "spawn",
) -> int:
    """Collect ``plan``'s cache hits, then run its ``todo``; returns the workers used.

    The one dispatch rule behind every frontend — the local campaign, the
    re-run appendix and each batch a shard is granted.  Hits drain first, in
    job order, so a sink sees them before any executed row.  The rest runs
    in-process when ``jobs == 1`` or at most one job is left (a pool would
    only add start-up), across a :class:`PoolExecutor` of ``jobs`` workers
    otherwise.
    """
    for hit in plan.cached_results:
        collector.add_cached(hit)
    if jobs == 1 or len(plan.todo) <= 1:
        return SerialExecutor().run(plan.todo, collector)
    return PoolExecutor(jobs, mp_context=mp_context).run(plan.todo, collector)


class ShardExecutor:
    """Collector-client dispatch: this machine's share of a shared matrix.

    Wraps the acking NDJSON protocol from :mod:`repro.campaign.shard`:
    static mode announces its :func:`shard_slice` range in the hello and
    runs it; pull mode asks the collector for job-index batches until it
    says ``done``.  Every row travels through a reconnecting
    :class:`~repro.campaign.sinks.AckingSocketSink` teed in front of
    whatever sink the collector already carries; each granted batch goes
    through its own :class:`CampaignPlan` (so a
    :class:`~repro.campaign.store.RunCache` short-circuits per grant,
    never emitting rows for jobs this shard was not granted) and then
    :func:`dispatch`.

    Raises :class:`ConnectionError` when the collector stays unreachable
    past the reconnect budget and
    :class:`~repro.campaign.sinks.ShardProtocolError` when it rejects the
    shard.
    """

    def __init__(
        self,
        address: str,
        jobs: Sequence[RunJob],
        shard: Optional[Tuple[int, int]] = None,
        name: Optional[str] = None,
        workers: int = 1,
        mp_context: str = "spawn",
        batch: Optional[int] = None,
        retries: int = 3,
        prior_rows: Iterable[Dict[str, object]] = (),
        retry_errors: bool = False,
    ) -> None:
        self.address = address
        self.jobs = list(jobs)
        self.by_index = {job.index: job for job in self.jobs}
        self.prior = [
            row
            for row in prior_rows
            if is_job_index(row.get("job")) and row["job"] in self.by_index
        ]
        self.shard = shard
        self.name = name
        self.workers = workers
        self.mp_context = mp_context
        self.batch = batch
        self.retries = retries
        self.retry_errors = retry_errors

    def run(self, todo: Sequence[RunJob], collector: RowCollector) -> int:
        # ``todo`` is advisory here: the collector service owns dispatch
        # (it leases the static range or grants pull batches), so what this
        # shard runs is decided on the wire, not by the local plan.
        local: Optional[List[RunJob]] = None
        job_range: Optional[Tuple[int, int]] = None
        name = self.name
        if self.shard is not None:
            index, count = self.shard
            local = shard_slice(self.jobs, index, count)
            # The announced range covers the *unfiltered* slice: resumed
            # rows are uploaded below, so the collector still leases the
            # whole range to this shard and adopts the prior rows into it.
            job_range = (local[0].index, local[-1].index + 1) if local else (0, 0)
            if self.prior:
                local = remaining_jobs(local, self.prior, retry_errors=self.retry_errors)
            if name is None:
                name = f"{index + 1}/{count}"
        client = AckingSocketSink(
            self.address,
            hello=hello_message(self.jobs, shard=name, job_range=job_range),
            retries=self.retries,
        )
        # The acking client fronts whatever sink the collector already has
        # (e.g. the shard's local --out file); restored on the way out so
        # the collector outlives this executor unchanged.
        outer = collector.sink
        collector.sink = client if outer is None else TeeSink([client, outer])
        workers_used = 1
        try:
            for row in self.prior:
                client.write_row(row)
            if local is not None:
                workers_used = max(workers_used, self._dispatch(local, collector))
            else:
                limit = (
                    self.batch
                    if self.batch is not None
                    else max(self.workers, DEFAULT_PULL_BATCH)
                )
                while True:
                    grant = client.request(control_message("pull", max=limit))
                    if grant.get("op") != "grant":
                        raise ShardProtocolError(
                            f"collector at {self.address} answered a pull with {grant!r}"
                        )
                    try:
                        granted = [
                            self.by_index[index] for index in grant.get("jobs") or ()
                        ]
                    except (KeyError, TypeError) as exc:
                        raise ShardProtocolError(
                            f"collector at {self.address} granted unknown jobs: "
                            f"{grant.get('jobs')!r}"
                        ) from exc
                    if granted:
                        workers_used = max(
                            workers_used, self._dispatch(granted, collector)
                        )
                    elif grant.get("done"):
                        break
                    # An empty, not-done grant means the collector briefly
                    # had nothing unleased; its lease() blocks server-side,
                    # so this is rare — just ask again.
        finally:
            collector.sink = outer
            client.close()
        return workers_used

    def _dispatch(self, granted: List[RunJob], collector: RowCollector) -> int:
        """One granted batch: its own cache probe, then :func:`dispatch`."""
        plan = CampaignPlan(granted, cache=collector.cache)
        return dispatch(plan, collector, self.workers, self.mp_context)


@dataclass
class CampaignOutcome:
    """What the finalize stage decided: the result, its rendering, the code."""

    result: CampaignResult
    summary: str
    exit_code: int


class Finalizer:
    """The finalize stage: atomic rewrite, summary, cache stats, exit code.

    ``info`` (default: silent) receives the rendered table and the
    human-facing lines; a CLI passes ``print``, a library caller can
    capture them.  The ``--out`` rewrite comes first and is atomic
    (:func:`~repro.campaign.sinks.write_lines_atomic`), so an interrupt
    mid-rewrite leaves the completion-order stream intact for resume —
    ``KeyboardInterrupt`` deliberately propagates for the frontend to map.

    Exit codes: ``3`` error rows present, ``1`` a checked property was
    violated, ``0`` clean.
    """

    def __init__(
        self,
        out: Optional[str] = None,
        include_timing: bool = False,
        info: Optional[Callable[[str], None]] = None,
        prefix: str = "campaign",
    ) -> None:
        self.out = out
        self.include_timing = include_timing
        self.info = info
        self.prefix = prefix

    def _say(self, message: str) -> None:
        if self.info is not None:
            self.info(message)

    def finalize(
        self,
        result: CampaignResult,
        cache: Optional[RunCache] = None,
        title: Optional[str] = None,
        rows: Optional[Sequence[Dict[str, object]]] = None,
    ) -> CampaignOutcome:
        """Persist and render a finished campaign.

        ``rows`` (optional) writes those exact dicts verbatim instead of
        re-deriving lines from ``result`` — the collector service's path,
        where whatever the shards sent (including ``--timing`` fields)
        must survive byte-for-byte.
        """
        from repro.analysis.report import format_table

        if title is None:
            title = (
                f"Campaign: {len(result.results)} runs x {result.workers} workers "
                f"({result.violations} with violations, {result.errors} errors)"
            )
        if self.out:
            if rows is not None:
                write_lines_atomic(self.out, (row_line(row) for row in rows))
            else:
                result.write_jsonl(self.out, include_timing=self.include_timing)
        summary = format_table(self.summary_rows(result), title=title)
        self._say(summary)
        if cache is not None:
            self._say(
                f"{self.prefix}: cache {cache.root}: {cache.hits} hit(s), "
                f"{cache.misses} miss(es), {cache.stored} row(s) stored"
            )
        if self.out:
            count = len(rows) if rows is not None else len(result.results)
            self._say(f"wrote {count} rows to {self.out}")
        exit_code = 3 if result.errors else (0 if result.ok else 1)
        return CampaignOutcome(result=result, summary=summary, exit_code=exit_code)

    @staticmethod
    def summary_rows(result: CampaignResult) -> List[Dict[str, object]]:
        """One row per (scenario, algorithm) cell plus a totals row.

        Reports run/violation counts, aggregate throughput (cell steps over
        the cell's summed per-run wall time — the workers' view, independent
        of how many ran concurrently) and the fairness spread (Jain index
        range across the cell's runs).  Counts, steps and Jain come from one
        :class:`~repro.campaign.store.ColumnStore` pass over the job-order
        rows (the aggregates ``repro-cc stats`` serves), so cells appear in
        job order; per-run wall time is not in the rows, so throughput is
        joined in from the results.
        """
        # Cell identity comes from the row itself (identity fields are
        # present on every row, error and resumed rows included), so
        # merged results need not align index-for-index with ``jobs``.
        elapsed_by_cell: Dict[tuple, float] = {}
        for job_result in result.results:
            key = (job_result.row["scenario"], job_result.row["algorithm"])
            elapsed_by_cell[key] = elapsed_by_cell.get(key, 0.0) + job_result.elapsed_seconds
        rows: List[Dict[str, object]] = []
        for cell in ColumnStore.from_rows(result.rows).cell_stats():
            elapsed = elapsed_by_cell.get((cell["scenario"], cell["algorithm"]), 0.0)
            steps = cell["steps"]
            # Error rows carry no metrics; the Jain spread covers the
            # completed runs only (a fully errored cell renders "-").
            rows.append(
                {
                    "scenario": cell["scenario"],
                    "algorithm": cell["algorithm"],
                    "runs": cell["runs"],
                    "violations": cell["violations"],
                    "errors": cell["errors"],
                    "steps": steps,
                    "steps/s": round(steps / elapsed, 1) if elapsed > 0 else "-",
                    "jain min..max": (
                        f"{cell['jain_min']:.3f}..{cell['jain_max']:.3f}"
                        if cell["jain_min"] is not None
                        else "-"
                    ),
                }
            )
        rows.append(
            {
                "scenario": "TOTAL",
                "algorithm": "-",
                "runs": len(result.results),
                "violations": result.violations,
                "errors": result.errors,
                "steps": result.total_steps,
                "steps/s": (
                    round(result.steps_per_sec, 1) if result.elapsed_seconds > 0 else "-"
                ),
                "jain min..max": f"wall {result.elapsed_seconds:.2f}s x{result.workers}",
            }
        )
        return rows


class CampaignDriver:
    """The one way to run a campaign: plan → dispatch → collect → finalize.

    ``cli._cmd_campaign`` maps flags onto the constructor and exit codes off
    the outcome; a library caller writes ``CampaignDriver(spec).execute()``
    for the :class:`CampaignResult` (or :meth:`run` for the rendered
    :class:`CampaignOutcome`); a shard client passes
    ``collector="tcp:..."``.  ``jobs`` is the worker count.
    ``info``/``warn`` (both optional) receive the stdout/stderr lines the
    CLI prints, each prefixed with ``prefix + ": "``.

    Error handling is deliberately transparent:
    :class:`~repro.campaign.resume.ResumeError`, :class:`ConnectionError`,
    :class:`~repro.campaign.sinks.ShardProtocolError` and
    ``KeyboardInterrupt`` propagate for the frontend to map onto its own
    exit codes (2/4/4/130 in the CLI).  The ``sink``'s lifecycle belongs
    to the caller.  ``rerun_disagreements`` cannot be combined with
    ``collector`` — re-run jobs fall outside the matrix the shards agreed
    on, so their rows could never reach the collector — and the
    constructor raises :class:`ValueError` for that combination.
    """

    def __init__(
        self,
        spec_or_jobs: Union[CampaignSpec, Sequence[RunJob]],
        jobs: int = 1,
        mp_context: str = "spawn",
        sink: Optional[RowSink] = None,
        timing: bool = False,
        cache: Optional[RunCache] = None,
        prior_rows: Iterable[Dict[str, object]] = (),
        retry_errors: bool = False,
        rerun_disagreements: bool = False,
        shard: Optional[Tuple[int, int]] = None,
        collector: Optional[str] = None,
        shard_name: Optional[str] = None,
        batch: Optional[int] = None,
        retries: int = 3,
        progress: Optional[Callable[[JobResult, int, int], None]] = None,
        out: Optional[str] = None,
        prefix: str = "campaign",
        info: Optional[Callable[[str], None]] = None,
        warn: Optional[Callable[[str], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if collector is not None and rerun_disagreements:
            raise ValueError(
                "--rerun-disagreements cannot be combined with --collector "
                "(adaptive re-run jobs fall outside the matrix the shards and "
                "the collector agreed on)"
            )
        self.spec_or_jobs = spec_or_jobs
        self.jobs = jobs
        self.mp_context = mp_context
        self.sink = sink
        self.timing = timing
        self.cache = cache
        self.prior_rows = list(prior_rows)
        self.retry_errors = retry_errors
        self.rerun_disagreements = rerun_disagreements
        self.shard = shard
        self.collector = collector
        self.shard_name = shard_name
        self.batch = batch
        self.retries = retries
        self.progress = progress
        self.out = out
        self.prefix = prefix
        self.info = info
        self.warn = warn
        self.result: Optional[CampaignResult] = None

    def _info(self, message: str) -> None:
        if self.info is not None:
            self.info(f"{self.prefix}: {message}")

    def _warn(self, message: str) -> None:
        if self.warn is not None:
            self.warn(f"{self.prefix}: {message}")

    def execute(self) -> CampaignResult:
        """Run the campaign; returns (and keeps) the :class:`CampaignResult`."""
        start = time.perf_counter()  # repro-lint: disable=RL102 -- campaign wall time is --timing-only, never in rows
        # Collector mode leaves shard selection and cache probing to the
        # service protocol (ShardExecutor plans per granted batch); local
        # mode plans everything up front.
        plan = CampaignPlan(
            self.spec_or_jobs,
            prior_rows=self.prior_rows,
            retry_errors=self.retry_errors,
            shard=None if self.collector else self.shard,
            cache=None if self.collector else self.cache,
        )
        jobs_all = list(plan.jobs)
        collector = RowCollector(
            sink=self.sink,
            sink_timing=self.timing,
            cache=self.cache,
            progress=self.progress,
            total=len(plan.jobs),
        )
        if plan.prior_rows and self.out:
            self._info(
                f"resuming {self.out}: {len(plan.prior_rows)} row(s) already "
                f"present, {len(plan.remaining)} of {len(plan.jobs)} job(s) remaining"
            )
        if self.collector is not None:
            executor = ShardExecutor(
                self.collector,
                plan.jobs,
                shard=self.shard,
                name=self.shard_name,
                workers=self.jobs,
                mp_context=self.mp_context,
                batch=self.batch,
                retries=self.retries,
                prior_rows=plan.prior_rows,
                retry_errors=self.retry_errors,
            )
            workers = executor.run((), collector)
        else:
            if plan.shard is not None and plan.selected:
                index, count = plan.shard
                self._info(
                    f"static shard {index + 1}/{count}: jobs "
                    f"{plan.selected[0].index}..{plan.selected[-1].index} "
                    f"of {len(plan.jobs)}"
                )
            workers = dispatch(plan, collector, self.jobs, self.mp_context)
        executed = list(collector.results)
        merged = merge_results(plan.prior_rows, executed)
        if self.rerun_disagreements:
            base_results = [r for r in merged if r.index < len(plan.jobs)]
            extra_jobs = rerun_jobs(plan.jobs, base_results)
            # Prior extra rows are only trustworthy if they match the
            # regenerated re-run jobs identity-for-identity; a stale row
            # (the disagreement set changed, e.g. retry_errors flipped a
            # base verdict) must re-run, not masquerade as another job.
            valid_extra, stale_extra = reconcile_extra_rows(extra_jobs, plan.extra_prior)
            if stale_extra:
                self._warn(
                    f"{len(stale_extra)} prior re-run row(s) do not match the "
                    "regenerated re-run jobs (stale disagreement set); "
                    "re-running them"
                )
            merged = merge_results(plan.base_prior + valid_extra, executed)
            if extra_jobs:
                jobs_all = plan.jobs + extra_jobs
                extra_todo = remaining_jobs(
                    extra_jobs, valid_extra, retry_errors=self.retry_errors
                )
                self._info(
                    f"verdicts disagree across seeds — appending "
                    f"{len(extra_jobs)} fresh-seed job(s) "
                    f"({len(extra_todo)} still to execute)"
                )
                if extra_todo:
                    extra_plan = CampaignPlan(extra_todo, cache=self.cache)
                    dispatch(extra_plan, collector, self.jobs, self.mp_context)
                    executed = list(collector.results)
                    merged = merge_results(plan.base_prior + valid_extra, executed)
        elif plan.extra_prior:
            # The pinned orphan contract: without rerun_disagreements the
            # re-run jobs are not regenerated, so these rows cannot be
            # validated — but dropping completed rows would break the
            # no-row-loss guarantee.  Kept, counted, called out.
            self._warn(
                f"keeping {len(plan.extra_prior)} re-run row(s) beyond the "
                f"{len(plan.jobs)}-job matrix (from an earlier "
                "--rerun-disagreements); pass --rerun-disagreements to "
                "validate them against regenerated re-run jobs"
            )
        self.result = CampaignResult(
            jobs=jobs_all,
            results=merged,
            workers=workers,
            elapsed_seconds=time.perf_counter() - start,  # repro-lint: disable=RL102 -- --timing-only
        )
        return self.result

    def finalize(self) -> CampaignOutcome:
        """Finalize the (already or now) executed campaign."""
        if self.result is None:
            self.execute()
        finalizer = Finalizer(
            out=self.out,
            include_timing=self.timing,
            info=self.info,
            prefix=self.prefix,
        )
        return finalizer.finalize(self.result, cache=self.cache)

    def run(self) -> CampaignOutcome:
        """The whole pipeline: :meth:`execute` then :meth:`finalize`."""
        self.execute()
        return self.finalize()
