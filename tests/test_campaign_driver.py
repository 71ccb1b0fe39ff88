"""Per-stage tests for the layered campaign driver (`repro.campaign.driver`).

The pipeline is plan → dispatch → collect → finalize; each stage is tested
in isolation here, then the differential sweep asserts the one property the
decomposition must never cost: the aggregate JSONL rows are **byte-identical**
across every frontend combination — worker counts × start methods × resume ×
cache × static shards × the batched engine.

The library contract is pinned too: `CampaignDriver` round-trips a
campaign programmatically (no argparse anywhere), refuses the one flag
combination it cannot honour, `shard_slice` partitions the job list, the
merge of concatenated slice rows runs only what no slice answered and
refuses another matrix's rows, and `cli._cmd_campaign` stays a thin adapter
(line-count ceiling; the RC010 repo check enforces the import side of the
same invariant).
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import re

import pytest

from repro.campaign import (
    CampaignDriver,
    CampaignPlan,
    CampaignResult,
    BufferedSink,
    CampaignSpec,
    Finalizer,
    PoolExecutor,
    ResumeError,
    RowCollector,
    RunCache,
    SerialExecutor,
    expand_jobs,
    shard_slice,
)
from repro.campaign.driver import dispatch
from repro.campaign.jobs import ROW_IDENTITY_ATTRS
from repro.campaign.sinks import row_line
from repro.kernel.batched import numpy_available


def _spec(**overrides) -> CampaignSpec:
    defaults = dict(
        scenarios=("figure1", "path-6"),
        algorithms=("cc1",),
        seeds=(1, 2),
        max_steps=60,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


@pytest.fixture(scope="module")
def matrix():
    """4 expanded jobs, the serial baseline result and its JSONL lines."""
    jobs = expand_jobs(_spec())
    baseline = CampaignDriver(jobs).execute()
    return jobs, baseline, baseline.jsonl_lines()


class TestCampaignPlan:
    def test_expands_spec_and_adopts_prebuilt_jobs(self, matrix):
        jobs, _, _ = matrix
        assert [j.index for j in CampaignPlan(_spec()).jobs] == [j.index for j in jobs]
        plan = CampaignPlan(jobs)
        assert plan.jobs == list(jobs)
        assert plan.todo == list(jobs) and plan.cached_results == []

    def test_resume_reconciliation(self, matrix):
        jobs, _, lines = matrix
        rows = [json.loads(line) for line in lines]
        plan = CampaignPlan(jobs, prior_rows=[rows[0], rows[2]])
        assert [j.index for j in plan.remaining] == [1, 3]
        assert plan.base_prior == [rows[0], rows[2]] and plan.extra_prior == []
        assert plan.todo == plan.remaining

    def test_extra_rows_split_out_of_the_base_matrix(self, matrix):
        jobs, _, lines = matrix
        extra = dict(json.loads(lines[0]), job=len(jobs) + 3)
        plan = CampaignPlan(jobs, prior_rows=[extra])
        assert plan.base_prior == [] and plan.extra_prior == [extra]
        # Extra rows answer no base job: the whole matrix is still pending.
        assert len(plan.remaining) == len(jobs)

    def test_foreign_rows_are_rejected(self, matrix):
        jobs, _, lines = matrix
        foreign = dict(json.loads(lines[0]), seed=999)
        with pytest.raises(ResumeError, match="does not match the campaign matrix"):
            CampaignPlan(jobs, prior_rows=[foreign])

    def test_static_shard_selection(self, matrix):
        jobs, _, lines = matrix
        plan = CampaignPlan(jobs, shard=(0, 2))
        assert plan.selected == list(jobs[:2])
        # Prior rows thin the shard's pending set but not its selection.
        resumed = CampaignPlan(jobs, prior_rows=[json.loads(lines[0])], shard=(0, 2))
        assert resumed.selected == list(jobs[:2])
        assert [j.index for j in resumed.pending] == [1]

    def test_cache_probe_splits_hits_from_todo(self, matrix, tmp_path):
        jobs, baseline, lines = matrix
        cache = RunCache(str(tmp_path / "cache"))
        cache.store(baseline.results[1])
        plan = CampaignPlan(jobs, cache=cache)
        assert [r.index for r in plan.cached_results] == [1]
        assert [j.index for j in plan.todo] == [0, 2, 3]
        # The hit is byte-identical by construction.
        assert row_line(plan.cached_results[0].row) == lines[1]


class TestExecutors:
    def test_serial_executor_feeds_collector_in_job_order(self, matrix):
        jobs, _, lines = matrix
        collector = RowCollector()
        assert SerialExecutor().run(jobs, collector) == 1
        assert [row_line(r.row) for r in collector.results] == lines

    def test_pool_executor_matches_serial_byte_for_byte(self, matrix):
        jobs, _, lines = matrix
        collector = RowCollector()
        workers = PoolExecutor(2, mp_context="fork").run(jobs, collector)
        assert workers == 2
        by_index = sorted(collector.results, key=lambda result: result.index)
        assert [row_line(r.row) for r in by_index] == lines

    def test_pool_executor_guards(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            PoolExecutor(0)
        # An empty todo never builds a pool.
        assert PoolExecutor(8).run([], RowCollector()) == 1

    def test_dispatch_drains_cache_hits_before_running_the_rest(
        self, matrix, tmp_path, monkeypatch
    ):
        jobs, baseline, lines = matrix
        cache = RunCache(str(tmp_path / "cache"))
        for hit in (baseline.results[3], baseline.results[1]):
            cache.store(hit)
        sink = BufferedSink()
        collector = RowCollector(sink=sink, cache=cache)
        stored_before = cache.stored
        assert dispatch(CampaignPlan(jobs, cache=cache), collector) == 1
        # Hits reach the sink first, in job order, then the executed rows.
        assert [row_line(row) for row in sink.rows] == [lines[i] for i in (1, 3, 0, 2)]
        assert cache.stored - stored_before == 2  # the executed rows only

        # With a single job left to run, no pool is built whatever ``jobs`` says.
        def no_pool(*_args, **_kwargs):
            raise AssertionError("a pool was built for a single job")

        monkeypatch.setattr(PoolExecutor, "run", no_pool)
        collector = RowCollector()
        assert dispatch(CampaignPlan(jobs[:1]), collector, jobs=4) == 1
        assert [row_line(r.row) for r in collector.results] == lines[:1]


class TestRowCollector:
    def test_fan_out_reaches_every_surface_in_order(self, matrix, tmp_path):
        _, baseline, lines = matrix
        sink = BufferedSink()
        cache = RunCache(str(tmp_path / "cache"))
        seen = []
        collector = RowCollector(
            sink=sink,
            cache=cache,
            progress=lambda result, done, total: seen.append((result.index, done, total)),
            total=4,
        )
        collector.collect(baseline.results[1])
        collector.collect(baseline.results[0])
        assert cache.stored == 2
        assert [row_line(row) for row in sink.rows] == [lines[1], lines[0]]
        assert seen == [(1, 1, 4), (0, 2, 4)]
        assert [r.index for r in collector.results] == [1, 0]  # completion order

    def test_cached_rows_stream_but_are_never_restored(self, matrix, tmp_path):
        _, baseline, _ = matrix
        sink = BufferedSink()
        cache = RunCache(str(tmp_path / "cache"))
        collector = RowCollector(sink=sink, cache=cache)
        collector.add_cached(baseline.results[0])
        assert cache.stored == 0 and len(sink.rows) == 1
        assert [r.index for r in collector.results] == [0]


class TestFinalizer:
    def _result(self, matrix, status=None):
        jobs, baseline, _ = matrix
        results = list(baseline.results)
        if status is not None:
            results[0] = dataclasses.replace(
                results[0], row=dict(results[0].row, status=status), ok=False
            )
        return CampaignResult(jobs=list(jobs), results=results, workers=1, elapsed_seconds=0.5)

    def test_exit_codes(self, matrix):
        assert Finalizer().finalize(self._result(matrix)).exit_code == 0
        assert Finalizer().finalize(self._result(matrix, "violation")).exit_code == 1
        # Error rows dominate violations.
        assert Finalizer().finalize(self._result(matrix, "error")).exit_code == 3

    def test_out_rewrite_and_messages(self, matrix, tmp_path):
        _, _, lines = matrix
        out = tmp_path / "rows.jsonl"
        said = []

        def say(line):
            # --out is rewritten in job order before the table renders.
            assert out.read_text().splitlines() == lines
            said.append(line)

        outcome = Finalizer(out=str(out), info=say).finalize(self._result(matrix))
        assert out.read_text().splitlines() == lines
        assert outcome.summary == said[0]
        assert f"wrote {len(lines)} rows to {out}" in said

    def test_cache_stats_line(self, matrix, tmp_path):
        cache = RunCache(str(tmp_path / "cache"))
        said = []
        Finalizer(info=said.append).finalize(self._result(matrix), cache=cache)
        assert any("cache" in line and "0 hit(s)" in line for line in said)


class TestCampaignDriverService:
    """The library contract: no argparse anywhere."""

    def test_programmatic_round_trip(self, matrix, tmp_path, monkeypatch):
        _, _, lines = matrix
        out = tmp_path / "rows.jsonl"
        cache = RunCache(str(tmp_path / "cache"))
        said = []
        driver = CampaignDriver(
            _spec(), cache=cache, out=str(out), info=said.append
        )
        outcome = driver.run()
        assert outcome.exit_code == 0
        assert out.read_text().splitlines() == lines
        assert Finalizer.summary_rows(outcome.result)[-1]["runs"] == len(lines)
        assert any(line.startswith("campaign: cache") for line in said)
        # Second submission over the same cache executes nothing: every job
        # short-circuits to a stored, byte-identical row.
        import repro.campaign.driver as driver_module

        def explode(job):  # pragma: no cover - tripwire
            raise AssertionError("cache hit expected; execute_job was called")

        monkeypatch.setattr(driver_module, "execute_job", explode)
        rerun = CampaignDriver(
            _spec(), cache=RunCache(str(tmp_path / "cache")), out=str(tmp_path / "rows2.jsonl")
        )
        assert rerun.run().result.jsonl_lines() == lines

    def test_resume_executes_only_missing_jobs(self, matrix, monkeypatch):
        jobs, _, lines = matrix
        rows = [json.loads(line) for line in lines]
        import repro.campaign.driver as driver_module

        real = driver_module.execute_job
        ran = []

        def counting(job):
            ran.append(job.index)
            return real(job)

        monkeypatch.setattr(driver_module, "execute_job", counting)
        driver = CampaignDriver(jobs, prior_rows=[rows[0], rows[3]])
        result = driver.execute()
        assert sorted(ran) == [1, 2]
        assert result.jsonl_lines() == lines

    def test_resuming_a_slice_counts_the_slice(self, matrix):
        # A killed machine finishes its own slice: what is left is the
        # slice's, not the matrix's.
        jobs, _, lines = matrix
        said = []
        CampaignDriver(
            jobs, shard=(1, 2), prior_rows=[json.loads(lines[2])],
            out="part-2.jsonl", info=said.append,
        ).execute()
        assert said == [
            "campaign: resuming part-2.jsonl: 1 row(s) already present, "
            "1 of 2 job(s) remaining",
            "campaign: static shard 2/2: jobs 2..3 of 4",
        ]

    def test_rerun_disagreements_is_refused_on_a_shard(self, matrix):
        # A slice sees only part of each cell, and every slice would number
        # its re-run jobs from len(jobs): two slices' re-run rows would
        # claim the same indices.  Refused up front; the merge re-runs.
        jobs, _, _ = matrix
        with pytest.raises(ValueError, match="cannot be combined with --shard"):
            CampaignDriver(jobs, shard=(0, 2), rerun_disagreements=True)


class TestProgressTotals:
    """``progress(result, done, total)`` counts what this invocation collects."""

    @staticmethod
    def _calls(jobs, **kwargs):
        seen = []
        CampaignDriver(
            jobs, progress=lambda result, done, total: seen.append((done, total)), **kwargs
        ).execute()
        return seen

    def test_a_slice_ends_at_its_own_size(self):
        jobs = expand_jobs(
            CampaignSpec(
                scenarios=("figure1",), algorithms=("cc1", "cc2"), seeds=(1, 2), max_steps=20
            )
        )
        assert len(jobs) == 4
        assert self._calls(jobs, shard=(1, 2)) == [(1, 2), (2, 2)]

    def test_a_resume_ends_at_what_was_left(self, matrix, tmp_path):
        jobs, _, lines = matrix
        rows = [json.loads(line) for line in lines]
        assert self._calls(jobs, prior_rows=rows[:1]) == [(1, 3), (2, 3), (3, 3)]
        # Cache hits are collected too, so they count toward the total.
        cache = RunCache(str(tmp_path / "cache"))
        CampaignDriver(jobs, shard=(0, 2), cache=cache).execute()
        assert self._calls(jobs, prior_rows=rows[3:], cache=cache) == [(1, 3), (2, 3), (3, 3)]


class TestShardSlice:
    def test_slices_partition_the_matrix_in_order(self):
        jobs = expand_jobs(_spec(seeds=(1, 2, 3)))  # 6 jobs
        for count in (1, 2, 3, 4, 6, 7):
            slices = [shard_slice(jobs, i, count) for i in range(count)]
            rejoined = [job for part in slices for job in part]
            assert rejoined == list(jobs)
            sizes = [len(part) for part in slices]
            assert max(sizes) - min(sizes) <= 1  # balanced

    def test_bad_shard_arguments_raise(self, matrix):
        jobs, _, _ = matrix
        with pytest.raises(ValueError, match="shard count"):
            shard_slice(jobs, 0, 0)
        with pytest.raises(ValueError, match="shard index"):
            shard_slice(jobs, 2, 2)


def _changed(value):
    """A different value of the same type (``None`` becomes ``0``)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-changed"
    return 0


class TestSliceRowsMerge:
    """The ``--resume`` merge of concatenated slice files, as the driver sees it.

    The prior rows are the slices' rows in the order of the concatenation.
    The merge runs exactly the jobs no slice answered, returns the rows of
    one ``--jobs 1`` run, and refuses a row another matrix wrote: every
    identity field of every row is checked against the job at its index.
    """

    @pytest.fixture(scope="class")
    def parts(self, matrix):
        """``count -> [rows of slice 1, ..., rows of slice count]``."""
        jobs, _, _ = matrix
        return {
            count: [
                [
                    json.loads(line)
                    for line in CampaignDriver(jobs, shard=(i, count)).execute().jsonl_lines()
                ]
                for i in range(count)
            ]
            for count in (1, 2, 3, 4, 5)
        }

    @staticmethod
    def _merge(jobs, prior_rows):
        ran = []
        result = CampaignDriver(
            jobs,
            prior_rows=prior_rows,
            progress=lambda job_result, done, total: ran.append(job_result.index),
        ).execute()
        return result, ran

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_reversed_slices_merge_without_running_a_job(self, matrix, parts, count):
        jobs, _, lines = matrix
        if count > len(jobs):
            assert parts[count][-1] == []  # more slices than jobs: an empty part
        prior = [row for part in reversed(parts[count]) for row in part]
        result, ran = self._merge(jobs, prior)
        assert ran == [] and result.executed_runs == 0
        assert result.jsonl_lines() == lines

    @pytest.mark.parametrize("lost", [0, 1, 2])
    def test_a_missing_part_is_run_by_the_merge(self, matrix, parts, lost):
        jobs, _, lines = matrix
        kept = [row for i, part in enumerate(parts[3]) if i != lost for row in part]
        result, ran = self._merge(jobs, kept)
        assert ran == [job.index for job in shard_slice(jobs, lost, 3)]
        assert result.jsonl_lines() == lines

    def test_a_part_concatenated_twice_merges_once(self, matrix, parts):
        jobs, _, lines = matrix
        first, second = parts[2]
        result, ran = self._merge(jobs, first + second + first)
        assert ran == [] and len(result.results) == len(jobs)
        assert result.jsonl_lines() == lines

    @pytest.mark.parametrize("key", [key for key in ROW_IDENTITY_ATTRS if key != "job"])
    def test_a_row_from_another_matrix_is_refused(self, matrix, parts, key):
        # Whichever axis differs, one row of it is enough to refuse the merge.
        jobs, _, _ = matrix
        first, second = parts[2]
        foreign = dict(second[0], **{key: _changed(second[0][key])})
        with pytest.raises(ResumeError, match=f"{key}="):
            CampaignPlan(jobs, prior_rows=first + [foreign] + second[1:])

    @pytest.mark.parametrize(
        "key", ["discussion_steps", "seed", "max_steps", "arbitrary", "fault_every"]
    )
    def test_an_equal_value_of_another_type_is_refused(self, matrix, parts, key):
        # ``60.0 == 60`` and ``0 == False`` in Python, but no run of this
        # matrix writes such a row: adopting it would change the bytes.
        jobs, _, _ = matrix
        first, second = parts[2]
        value = second[0][key]
        retyped = int(value) if isinstance(value, bool) else float(value)
        assert retyped == value
        foreign = dict(second[0], **{key: retyped})
        with pytest.raises(ResumeError, match=re.escape(f"{key}={retyped!r}")):
            CampaignPlan(jobs, prior_rows=first + [foreign])


def test_cmd_campaign_is_a_thin_adapter():
    """The CLI command maps flags onto the driver — nothing else.

    The ceiling keeps orchestration from creeping back into argparse land;
    the RC010 repo check pins the import side of the same invariant.
    """
    from repro import cli

    assert len(inspect.getsource(cli._cmd_campaign).splitlines()) < 80


def _deterministic_summary(result):
    """The summary table minus its timing: every column but ``steps/s``, and
    the TOTAL row without its wall-time cell."""
    rows = [
        {column: value for column, value in row.items() if column != "steps/s"}
        for row in Finalizer.summary_rows(result)
    ]
    del rows[-1]["jain min..max"]  # "wall 0.12s xN" on the TOTAL row
    return rows


class TestDifferentialByteIdentity:
    """One sweep: every dispatch/persistence combination, one set of bytes."""

    def test_workers_and_start_methods(self, matrix):
        jobs, baseline, lines = matrix
        for mp_context in ("fork", "spawn"):
            result = CampaignDriver(jobs, jobs=2, mp_context=mp_context).execute()
            assert result.jsonl_lines() == lines
            assert _deterministic_summary(result) == _deterministic_summary(baseline)

    def test_resume_and_cache_compose(self, matrix, tmp_path):
        jobs, baseline, lines = matrix
        rows = [json.loads(line) for line in lines]
        cache = RunCache(str(tmp_path / "cache"))
        first = CampaignDriver(jobs, prior_rows=rows[:2], cache=cache).execute()
        assert first.jsonl_lines() == lines
        # The cache now holds the executed half; a fresh resume of the
        # *other* half must be all hits and still byte-identical.
        second = CampaignDriver(
            jobs, prior_rows=rows[2:], cache=RunCache(str(tmp_path / "cache"))
        ).execute()
        assert second.jsonl_lines() == lines
        # The summary covers the merged whole, resumed rows included.
        for resumed in (first, second):
            assert _deterministic_summary(resumed) == _deterministic_summary(baseline)

    def test_static_shards_merge_to_the_baseline(self, matrix):
        jobs, _, lines = matrix
        merged = {}
        for index in range(2):
            result = CampaignDriver(jobs, shard=(index, 2)).execute()
            for job_result in result.results:
                merged[job_result.index] = row_line(job_result.row)
        assert [merged[i] for i in sorted(merged)] == lines

    @pytest.mark.skipif(
        not numpy_available(), reason="batched engine needs the repro-cc[batched] extra"
    )
    def test_batched_engine_keeps_the_contract(self):
        batched_jobs = expand_jobs(_spec(engines=("batched",), max_steps=50))
        serial = CampaignDriver(batched_jobs).execute().jsonl_lines()
        pooled = CampaignDriver(batched_jobs, jobs=2, mp_context="fork").execute().jsonl_lines()
        assert serial == pooled
