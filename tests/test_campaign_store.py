"""Per-cell fold, content-addressed run cache, and crash-safe resume.

Three surfaces of ``repro.campaign.store`` and the resume fixes that ship
with it:

* :class:`CellStats` folds rows into per-(scenario, algorithm) cells that
  match a row-by-row reference, and ``repro-cc stats`` and the campaign
  summary table show the same cells.
* :class:`RunCache` hits are byte-identical to execution, compose with
  ``--jobs``, ``--resume``, ``--engine batched`` and a sharded collector
  campaign, and degrade to misses (never wrong rows) on corrupt or
  identity-mismatched entries.
* The resume path appends instead of rewriting (an interrupt mid-resume
  cannot lose prior completed rows), the final job-order rewrite is atomic
  (a kill mid-rewrite leaves the streamed file intact), and prior
  re-run-appendix rows are reconciled — stale ones re-run, orphans are
  kept and counted.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

from repro.campaign import (
    CACHE_KEY_ATTRS,
    CampaignDriver,
    CampaignResult,
    CampaignSpec,
    CellStats,
    Finalizer,
    RunCache,
    expand_jobs,
    merge_results,
    run_cache_key,
    run_cache_key_for_row,
)
from repro.campaign.jobs import ROW_IDENTITY_ATTRS, error_result
from repro.campaign.sinks import row_line
from repro.cli import main

SPEC = CampaignSpec(
    scenarios=("figure1", "grid-3x3"),
    algorithms=("cc1", "cc2"),
    seeds=(1, 2),
    max_steps=120,
)


def _changed(value):
    """A different value of the same shape, for the key-sensitivity sweep."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-changed"
    return 0 if value is None else None


@pytest.fixture(scope="module")
def campaign_rows():
    """Eight executed rows (two scenarios x two algorithms x two seeds)."""
    return CampaignDriver(SPEC).execute().rows


class TestCellStats:
    def test_aggregates_match_row_by_row_reference(self, campaign_rows):
        cells = CellStats.from_rows(campaign_rows).cells()
        assert sum(c.runs for c in cells) == len(campaign_rows)
        assert sum(c.steps for c in cells) == sum(int(r.get("steps", 0)) for r in campaign_rows)
        assert sum(c.violations for c in cells) == sum(
            1 for r in campaign_rows if r["status"] == "violation"
        )
        assert sum(c.errors for c in cells) == 0

    def test_cell_stats_shape_and_jain_spread(self, campaign_rows):
        cells = CellStats.from_rows(campaign_rows).cells()
        assert [(c.scenario, c.algorithm) for c in cells] == [
            ("figure1", "cc1"), ("figure1", "cc2"),
            ("grid-3x3", "cc1"), ("grid-3x3", "cc2"),
        ]
        for cell in cells:
            members = [
                r for r in campaign_rows
                if (r["scenario"], r["algorithm"]) == (cell.scenario, cell.algorithm)
            ]
            assert cell.runs == len(members) == 2
            assert cell.steps == sum(int(r["steps"]) for r in members)
            jains = [r["jain"] for r in members if isinstance(r["jain"], float)]
            assert cell.jain_min == min(jains)
            assert cell.jain_max == max(jains)
            assert cell.jain_spread == f"{min(jains):.3f}..{max(jains):.3f}"

    def test_error_rows_excluded_from_jain_and_counted(self):
        rows = [
            {"job": 0, "scenario": "s", "algorithm": "a", "status": "ok",
             "steps": 10, "jain": 0.5},
            # error rows carry no metrics: counted, but no steps or Jain
            {"job": 1, "scenario": "s", "algorithm": "a", "status": "error",
             "error": "boom", "ok": False},
            {"job": 2, "scenario": "s", "algorithm": "a", "status": "violation",
             "steps": 7, "jain": 0.25},
        ]
        (cell,) = CellStats.from_rows(rows).cells()
        assert (cell.runs, cell.violations, cell.errors) == (3, 1, 1)
        assert cell.steps == 17
        assert (cell.jain_min, cell.jain_max) == (0.25, 0.5)
        assert CellStats.from_rows(rows[1:2]).cells()[0].jain_spread == "-"


class TestRunCache:
    def test_hit_is_byte_identical_and_position_independent(self, tmp_path):
        jobs = expand_jobs(SPEC)
        cache = RunCache(str(tmp_path / "cache"))
        baseline = CampaignDriver(jobs, cache=cache).execute()
        assert cache.stored == len(jobs) and cache.hits == 0
        row = cache.lookup(jobs[0])
        assert row_line(row) == row_line(baseline.rows[0])
        # Same run shape at a different matrix position still hits, with
        # the new index patched in.
        moved = dataclasses.replace(jobs[0], index=99)
        hit = cache.lookup(moved)
        assert hit["job"] == 99
        assert {k: v for k, v in hit.items() if k != "job"} == {
            k: v for k, v in row.items() if k != "job"
        }

    def test_key_agrees_between_job_and_row_and_ignores_index(self, campaign_rows):
        jobs = expand_jobs(SPEC)
        assert run_cache_key(jobs[0]) == run_cache_key_for_row(campaign_rows[0])
        assert run_cache_key(jobs[0]) != run_cache_key(jobs[1])

    @pytest.mark.parametrize("key", [key for key in ROW_IDENTITY_ATTRS if key != "job"])
    def test_key_covers_identity_field(self, key):
        # The key must pin the whole run identity: a RunJob axis it ignored
        # would let two different runs share one cache entry.
        assert CACHE_KEY_ATTRS == {
            k: attr for k, attr in ROW_IDENTITY_ATTRS.items() if k != "job"
        }
        job = expand_jobs(SPEC)[0]
        attr = ROW_IDENTITY_ATTRS[key]
        changed = dataclasses.replace(job, **{attr: _changed(getattr(job, attr))})
        assert run_cache_key(changed) != run_cache_key(job)
        identity = {k: getattr(changed, a) for k, a in ROW_IDENTITY_ATTRS.items()}
        assert run_cache_key_for_row(identity) == run_cache_key(changed)
        # The index is a matrix position, not identity: it never moves the key.
        moved = dataclasses.replace(job, index=job.index + 1)
        assert run_cache_key(moved) == run_cache_key(job)

    def test_corrupt_and_mismatched_entries_are_misses(self, tmp_path):
        jobs = expand_jobs(SPEC)[:2]
        cache = RunCache(str(tmp_path / "cache"))
        CampaignDriver(jobs, cache=cache).execute()
        misses_before = cache.misses  # the cold run's pre-dispatch consults
        # Corrupt entry: unparseable bytes.
        path = cache._path(run_cache_key(jobs[0]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert cache.lookup(jobs[0]) is None
        # Mismatched entry: jobs[1]'s row filed under jobs[0]'s key.
        with open(cache._path(run_cache_key(jobs[1])), "r", encoding="utf-8") as fh:
            other = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(other)
        assert cache.lookup(jobs[0]) is None
        # Non-dict payload.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[1, 2]\n")
        assert cache.lookup(jobs[0]) is None
        assert cache.misses == misses_before + 3 and cache.hits == 0

    def test_error_rows_are_never_stored(self, tmp_path, monkeypatch):
        import repro.campaign.jobs as jobs_module

        real_run = jobs_module._run_job

        def boom(job):
            if job.seed == 2:
                raise RuntimeError("induced failure")
            return real_run(job)

        monkeypatch.setattr(jobs_module, "_run_job", boom)
        jobs = expand_jobs(SPEC)
        cache = RunCache(str(tmp_path / "cache"))
        result = CampaignDriver(jobs, cache=cache).execute()
        errors = sum(1 for row in result.rows if row["status"] == "error")
        assert errors == 4
        assert cache.stored == len(jobs) - errors
        # The error jobs miss on re-consult and re-execute.
        rerun = CampaignDriver(jobs, cache=cache).execute()
        assert cache.hits == len(jobs) - errors
        assert sum(1 for row in rerun.rows if row["status"] == "error") == errors

    def test_fully_cached_campaign_executes_nothing(self, tmp_path, monkeypatch):
        jobs = expand_jobs(SPEC)
        cache = RunCache(str(tmp_path / "cache"))
        baseline = CampaignDriver(jobs, cache=cache).execute()
        import repro.campaign.driver as driver_module

        monkeypatch.setattr(
            driver_module, "execute_job",
            lambda job: (_ for _ in ()).throw(AssertionError("no job should run")),
        )
        cached = CampaignDriver(jobs, cache=cache).execute()
        assert cached.jsonl_lines() == baseline.jsonl_lines()
        assert cache.hits == len(jobs)

    def test_summary_throughput_counts_only_executed_runs(self, tmp_path):
        # Cache hits took none of this invocation's time: they count in the
        # ``steps`` columns but in neither half of a ``steps/s`` ratio.
        jobs = expand_jobs(SPEC)
        CampaignDriver(jobs[::3], cache=RunCache(str(tmp_path / "cache"))).execute()
        partial = CampaignDriver(jobs, cache=RunCache(str(tmp_path / "cache"))).execute()
        executed = [r for r in partial.results if r.elapsed_seconds > 0]
        assert partial.executed_runs == len(executed) == len(jobs) - len(jobs[::3])
        assert partial.executed_steps == sum(r.steps for r in executed)
        assert partial.steps_per_sec == partial.executed_steps / partial.elapsed_seconds
        rows = Finalizer.summary_rows(partial)
        for row in rows[:-1]:
            cell = [
                r for r in executed
                if (r.row["scenario"], r.row["algorithm"]) == (row["scenario"], row["algorithm"])
            ]
            expected = (
                round(sum(r.steps for r in cell) / sum(r.elapsed_seconds for r in cell), 1)
                if cell else "-"
            )
            assert row["steps/s"] == expected
        assert rows[-1]["steps"] == partial.total_steps
        assert rows[-1]["steps/s"] == round(partial.steps_per_sec, 1)
        # A fully cached re-submission executed nothing: no throughput at all.
        full = CampaignDriver(jobs, cache=RunCache(str(tmp_path / "cache"))).execute()
        assert (full.executed_runs, full.executed_steps, full.steps_per_sec) == (0, 0, 0.0)
        rows = Finalizer.summary_rows(full)
        assert [row["steps/s"] for row in rows] == ["-"] * len(rows)
        assert rows[-1]["steps"] == partial.total_steps

    def test_type_drifted_entry_is_a_miss_and_re_executes(self, tmp_path):
        # ``120.0 == 120`` in Python, but an entry saying ``"max_steps":
        # 120.0`` is not the row this job produces: serving it would put
        # wrong bytes in --out.
        jobs = expand_jobs(SPEC)[:2]
        cache = RunCache(str(tmp_path / "cache"))
        baseline = CampaignDriver(jobs, cache=cache).execute()
        path = cache._path(run_cache_key(jobs[0]))
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["max_steps"] = 120.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(row_line(entry) + "\n")
        warm = RunCache(str(tmp_path / "cache"))
        rerun = CampaignDriver(jobs, cache=warm).execute()
        assert rerun.jsonl_lines() == baseline.jsonl_lines()
        # Job 0 missed, re-executed and was stored back; job 1 still hit.
        assert (warm.hits, warm.misses, warm.stored) == (1, 1, 1)


class TestCacheEndToEnd:
    ARGV = ["campaign", "--scenario", "figure1", "--scenario", "grid-3x3",
            "--algorithm", "cc1", "--algorithm", "cc2",
            "--seeds", "2", "--steps", "120"]

    def _baseline(self, tmp_path, capsys):
        out = tmp_path / "baseline.jsonl"
        assert main(self.ARGV + ["--out", str(out)]) in (0, 1)
        capsys.readouterr()
        return out.read_bytes()

    def test_cache_miss_then_hit_byte_identical(self, capsys, tmp_path):
        expected = self._baseline(tmp_path, capsys)
        cache = tmp_path / "cache"
        cold = tmp_path / "cold.jsonl"
        assert main(self.ARGV + ["--out", str(cold), "--cache", str(cache)]) in (0, 1)
        printed = capsys.readouterr().out
        assert "8 miss(es), 8 row(s) stored" in printed
        assert cold.read_bytes() == expected
        warm = tmp_path / "warm.jsonl"
        assert main(self.ARGV + ["--out", str(warm), "--cache", str(cache)]) in (0, 1)
        printed = capsys.readouterr().out
        assert "8 hit(s), 0 miss(es), 0 row(s) stored" in printed
        assert warm.read_bytes() == expected

    def test_cache_composes_with_workers_and_resume(self, capsys, tmp_path):
        expected = self._baseline(tmp_path, capsys)
        cache = tmp_path / "cache"
        out = tmp_path / "jobs2.jsonl"
        assert main(self.ARGV + ["--out", str(out), "--cache", str(cache),
                                 "--jobs", "2"]) in (0, 1)
        capsys.readouterr()
        assert out.read_bytes() == expected
        # Partial file + cache: the missing rows come from the cache, the
        # result is still byte-identical.
        part = tmp_path / "part.jsonl"
        part.write_bytes(b"".join(expected.splitlines(keepends=True)[:3]))
        assert main(self.ARGV + ["--out", str(part), "--resume",
                                 "--cache", str(cache)]) in (0, 1)
        printed = capsys.readouterr().out
        assert "5 hit(s), 0 miss(es)" in printed
        assert part.read_bytes() == expected

    def test_cache_composes_with_batched_engine(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        argv = self.ARGV + ["--engine", "batched"]
        out = tmp_path / "batched.jsonl"
        cache = tmp_path / "cache"
        assert main(argv + ["--out", str(out), "--cache", str(cache)]) in (0, 1)
        capsys.readouterr()
        expected = out.read_bytes()
        warm = tmp_path / "warm.jsonl"
        assert main(argv + ["--out", str(warm), "--cache", str(cache)]) in (0, 1)
        assert "8 hit(s)" in capsys.readouterr().out
        assert warm.read_bytes() == expected

    def test_five_shard_collector_merge_with_caches(self, tmp_path):
        from repro.campaign.shard import Collector

        jobs = expand_jobs(SPEC)
        baseline = CampaignDriver(jobs).execute().jsonl_lines()
        # Warm one shared cache first, then a sharded campaign over it.
        cache = RunCache(str(tmp_path / "cache"))
        CampaignDriver(jobs[:4], cache=cache).execute()
        with Collector(jobs, "tcp:127.0.0.1:0") as collector:
            threads = [
                threading.Thread(
                    target=CampaignDriver(
                        jobs,
                        collector=collector.address,
                        shard=(i, 5),
                        cache=RunCache(str(tmp_path / "cache")),
                    ).execute
                )
                for i in range(5)
            ]
            for thread in threads:
                thread.start()
            rows = collector.run(timeout=60)
            for thread in threads:
                thread.join(timeout=10)
        assert [row_line(row) for row in rows] == baseline
        assert len(collector.state.shards) == 5


class TestResumeCrashSafety:
    ARGV = TestCacheEndToEnd.ARGV

    def test_resume_appends_instead_of_rewriting(self, capsys, tmp_path, monkeypatch):
        """Satellite 1 regression: an interrupt mid-resume keeps prior rows.

        The old code reopened ``--out`` in truncate mode at resume time and
        rewrote the prior rows; a kill between the truncate and the final
        rewrite lost completed work.  Append mode means the prior bytes are
        never touched mid-campaign.
        """
        full = tmp_path / "full.jsonl"
        assert main(self.ARGV + ["--out", str(full)]) in (0, 1)
        capsys.readouterr()
        expected = full.read_bytes()
        lines = expected.splitlines(keepends=True)

        part = tmp_path / "part.jsonl"
        part.write_bytes(b"".join(lines[:3]))
        import repro.campaign.driver as driver_module

        monkeypatch.setattr(
            driver_module, "execute_job",
            lambda job: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        code = main(self.ARGV + ["--out", str(part), "--resume"])
        err = capsys.readouterr().err
        assert code == 130
        assert "rerun with --resume" in err
        # Every previously completed row is still on disk, bytes untouched.
        assert part.read_bytes() == b"".join(lines[:3])

    def test_kill_mid_final_rewrite_loses_no_rows(self, capsys, tmp_path, monkeypatch):
        """Satellite 1, second half: the job-order rewrite is atomic."""
        full = tmp_path / "full.jsonl"
        assert main(self.ARGV + ["--out", str(full)]) in (0, 1)
        capsys.readouterr()
        expected = full.read_bytes()

        out = tmp_path / "rows.jsonl"
        import repro.campaign.driver as driver_module

        real_row_line = driver_module.row_line
        emitted = []

        def dying_row_line(row):
            if len(emitted) == 4:
                raise KeyboardInterrupt()
            line = real_row_line(row)
            emitted.append(line)
            return line

        monkeypatch.setattr(driver_module, "row_line", dying_row_line)
        code = main(self.ARGV + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 130
        assert "interrupted during the final rewrite" in err
        # The completion-order stream survived the kill whole...
        streamed = out.read_bytes()
        assert sorted(streamed.splitlines()) == sorted(expected.splitlines())
        monkeypatch.setattr(driver_module, "row_line", real_row_line)
        # ...so a resume executes nothing and lands byte-identical.
        monkeypatch.setattr(
            driver_module, "execute_job",
            lambda job: (_ for _ in ()).throw(AssertionError("no job should run")),
        )
        assert main(self.ARGV + ["--out", str(out), "--resume"]) in (0, 1)
        capsys.readouterr()
        assert out.read_bytes() == expected


class TestRerunRowReconciliation:
    ARGV = ["campaign", "--scenario", "figure1", "--algorithm", "cc2",
            "--faults", "40:0.3", "--seed", "3", "--seeds", "3",
            "--steps", "200", "--rerun-disagreements"]

    def _disagreement_file(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        assert main(self.ARGV + ["--out", str(out)]) == 1
        capsys.readouterr()
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 6  # 3 base + 3 fresh-seed re-runs
        return out, rows

    def test_tampered_extra_row_is_re_run_on_resume(self, capsys, tmp_path):
        """Satellite 2 regression: prior re-run rows are identity-validated.

        The old resume path never validated rows at indices beyond the base
        matrix — a stale or corrupted appendix row silently stood in for a
        regenerated re-run job.  Now it is detected, warned about and
        re-executed.
        """
        out, rows = self._disagreement_file(tmp_path, capsys)
        expected = out.read_bytes()
        tampered = dict(rows[4])
        tampered["seed"] = 999  # no regenerated re-run job has this seed
        out.write_text(
            "".join(row_line(r) + "\n" for r in rows[:4] + [tampered] + rows[5:])
        )
        code = main(self.ARGV + ["--out", str(out), "--resume"])
        captured = capsys.readouterr()
        assert code == 1
        assert "stale disagreement set" in captured.err
        assert out.read_bytes() == expected  # the stale row was re-executed

    def test_intact_extra_rows_resume_without_execution(
        self, capsys, tmp_path, monkeypatch
    ):
        out, _ = self._disagreement_file(tmp_path, capsys)
        expected = out.read_bytes()
        import repro.campaign.driver as driver_module

        monkeypatch.setattr(
            driver_module, "execute_job",
            lambda job: (_ for _ in ()).throw(AssertionError("no job should run")),
        )
        code = main(self.ARGV + ["--out", str(out), "--resume"])
        captured = capsys.readouterr()
        assert code == 1
        assert "stale disagreement set" not in captured.err
        assert out.read_bytes() == expected

    def test_orphan_rerun_rows_are_kept_and_counted(self, capsys, tmp_path):
        """Satellite 3: plain resume keeps the appendix rows, with a warning."""
        out, rows = self._disagreement_file(tmp_path, capsys)
        expected = out.read_bytes()
        # Plain --resume (no --rerun-disagreements): the 3 appendix rows
        # cannot be validated, but they are completed work — kept, counted
        # in the summary, and called out on stderr.
        argv = [a for a in self.ARGV if a != "--rerun-disagreements"]
        code = main(argv + ["--out", str(out), "--resume"])
        captured = capsys.readouterr()
        assert code == 1
        assert "keeping 3 re-run row(s) beyond the 3-job matrix" in captured.err
        assert "pass --rerun-disagreements to validate them" in captured.err
        assert "6 runs" in captured.out  # summary counts all six rows
        assert out.read_bytes() == expected


class TestStatsSubcommand:
    def test_stats_table_and_exit_codes(self, capsys, tmp_path, campaign_rows):
        path = tmp_path / "rows.jsonl"
        path.write_text("".join(row_line(row) + "\n" for row in campaign_rows))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"Stats: {len(campaign_rows)} rows from {path}" in out
        assert "figure1" in out and "grid-3x3" in out and "TOTAL" in out
        # Missing and empty files exit 2.
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 2
        capsys.readouterr()

    def test_stats_counts_each_job_once_by_its_latest_row(self, capsys, tmp_path, campaign_rows):
        # A --resume --retry-errors stream stopped before its final rewrite
        # holds job 0's error row, then the retried ok row.
        error_row = error_result(expand_jobs(SPEC)[0], RuntimeError("boom")).row
        path = tmp_path / "rows.jsonl"
        path.write_text(row_line(error_row) + "\n" + row_line(campaign_rows[0]) + "\n")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"Stats: 1 rows from {path}" in out
        total = next(line for line in out.splitlines() if line.startswith("| TOTAL"))
        runs, errors = (cell.strip() for cell in total.split("|")[3:6:2])
        assert (runs, errors) == ("1", "0")

    def test_stats_and_campaign_summary_fold_the_same_cells(self, capsys, tmp_path, campaign_rows):
        # One fold behind both tables: `stats` on a file and the campaign
        # summary on the same rows agree cell by cell.  The file holds an
        # error row, a --retry-errors duplicate (job 0's error row, then its
        # retry) and a row without `scenario` or `jain`.
        jobs = expand_jobs(SPEC)
        bare = {k: v for k, v in campaign_rows[2].items() if k not in ("scenario", "jain")}
        rows = [
            error_result(jobs[0], RuntimeError("boom")).row,
            campaign_rows[0],
            campaign_rows[1],
            bare,
            *campaign_rows[3:7],
            error_result(jobs[7], RuntimeError("boom")).row,
        ]
        path = tmp_path / "rows.jsonl"
        path.write_text("".join(row_line(row) + "\n" for row in rows))
        assert main(["stats", str(path)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("| ")]
        header = [name.strip() for name in lines[0].strip("|").split("|")]
        stats = [
            dict(zip(header, (value.strip() for value in line.strip("|").split("|"))))
            for line in lines[2:]
        ]
        result = CampaignResult(
            jobs=jobs, results=merge_results(rows, []), workers=1, elapsed_seconds=0.0
        )
        summary = [
            {key: str(value) for key, value in row.items() if key != "steps/s"}
            for row in Finalizer.summary_rows(result)
        ]
        columns = ("scenario", "algorithm", "runs", "violations", "errors", "steps")
        assert [{key: row[key] for key in columns} for row in stats] == [
            {key: row[key] for key in columns} for row in summary
        ]
        assert [row["jain min..max"] for row in stats[:-1]] == [
            row["jain min..max"] for row in summary[:-1]
        ]
        cells = stats[:-1]
        assert ("None", "cc2") in [(row["scenario"], row["algorithm"]) for row in cells]
        assert [row["errors"] for row in cells].count("1") == 1
        assert sum(int(row["runs"]) for row in cells) == len(jobs) == 8
