"""Tests for the campaign persistence layer: sinks, resume, adaptive re-runs.

The crash-safety acceptance property lives here at the library level (the
CLI-level twin is in ``test_cli_end_to_end.py``): stream rows through a
:class:`JsonlSink`, kill the campaign after ``k`` rows (simulated by
truncating the file mid-line, exactly what an interrupted flush leaves),
resume, and assert the final job-order rewrite is **byte-identical** to an
uninterrupted run.  Worker exceptions must become ``status="error"`` rows
— under a real spawn pool too — instead of aborting the drain.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.campaign import (
    BufferedSink,
    CampaignDriver,
    CampaignResult,
    CampaignSpec,
    FaultSchedule,
    Finalizer,
    JobResult,
    JsonlSink,
    ResumeError,
    disagreement_cells,
    execute_job,
    expand_jobs,
    merge_results,
    read_rows,
    remaining_jobs,
    rerun_jobs,
    validate_rows_match_jobs,
)
from repro.campaign.jobs import ERROR_ROW_FIELDS, ROW_FIELDS, error_result
from repro.campaign.resume import as_job_result, parse_rows
from repro.campaign.sinks import row_line


def _spec(**overrides) -> CampaignSpec:
    defaults = dict(
        scenarios=("figure1", "grid-3x3"),
        algorithms=("cc1", "cc2"),
        seeds=(1, 2),
        max_steps=100,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


#: A deterministic disagreement cell: figure1 x cc2 x faults(40, 0.3) at
#: 200 steps holds under seed 3/4 and violates under seed 5.
_DISAGREE_SPEC = CampaignSpec(
    scenarios=("figure1",),
    algorithms=("cc2",),
    faults=(FaultSchedule(every=40, fraction=0.3),),
    seeds=(3, 4, 5),
    max_steps=200,
)


class TestSinks:
    def test_buffered_sink_collects_in_completion_order(self):
        sink = BufferedSink()
        result = CampaignDriver(_spec(scenarios=("figure1",), seeds=(1,)), sink=sink).execute()
        assert sink.rows == [r.row for r in result.results]

    def test_jsonl_sink_flushes_every_row_before_close(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        sink = JsonlSink(str(path))
        sink.write_row({"job": 0, "ok": True})
        sink.write_row({"job": 1, "ok": False})
        # No close() yet: the file must already hold both complete lines —
        # that is the whole crash-safety point.
        lines = path.read_text().splitlines()
        assert lines == [row_line({"job": 0, "ok": True}), row_line({"job": 1, "ok": False})]
        sink.close()

    def test_jsonl_sink_append_mode_continues_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.write_row({"job": 0})
        with JsonlSink(str(path), append=True) as sink:
            sink.write_row({"job": 1})
        assert [json.loads(l)["job"] for l in path.read_text().splitlines()] == [0, 1]

    def test_jsonl_sink_append_truncates_partial_tail(self, tmp_path):
        # An interrupted flush leaves a partial final line.  Opening the
        # file with append=True must truncate that tail before writing, or
        # the next appended row is glued onto the fragment and the file is
        # unparseable from that point on.
        path = tmp_path / "rows.jsonl"
        good = [row_line({"job": 0, "ok": True}), row_line({"job": 1, "ok": True})]
        path.write_text("\n".join(good) + "\n" + '{"job": 2, "ok"')
        with JsonlSink(str(path), append=True) as sink:
            sink.write_row({"job": 2, "ok": False})
        assert path.read_text().splitlines() == good + [row_line({"job": 2, "ok": False})]
        # Idempotent across repeated crashes: a second partial tail on the
        # same file is dropped just the same.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"job": 3')
        with JsonlSink(str(path), append=True) as sink:
            sink.write_row({"job": 3, "ok": True})
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["job"] for row in rows] == [0, 1, 2, 3]

    def test_fresh_sinks_pickle_but_active_sinks_refuse(self, tmp_path):
        fresh = JsonlSink(str(tmp_path / "rows.jsonl"))
        clone = pickle.loads(pickle.dumps(fresh))
        assert isinstance(clone, JsonlSink) and clone.path == fresh.path
        fresh.write_row({"job": 0})
        with pytest.raises(TypeError, match="open file handle"):
            pickle.dumps(fresh)
        fresh.close()


class TestResumeParsing:
    def test_parse_rows_drops_only_a_truncated_tail(self):
        good = [row_line({"job": i, "ok": True}) for i in range(3)]
        rows = parse_rows(good + ['{"job": 3, "ok"'])
        assert [row["job"] for row in rows] == [0, 1, 2]
        with pytest.raises(ResumeError, match="corrupt row before end"):
            parse_rows([good[0], '{"job": 1, "ok"', good[2]])

    def test_parse_rows_rejects_non_row_objects_mid_stream(self):
        with pytest.raises(ResumeError, match="integer 'job'"):
            parse_rows(['["not", "a", "row"]', row_line({"job": 1})])

    def test_read_rows_missing_file_is_empty(self, tmp_path):
        assert read_rows(str(tmp_path / "nope.jsonl")) == []

    def test_remaining_jobs_and_retry_errors(self):
        jobs = expand_jobs(_spec())
        rows = [
            {"job": 0, "ok": True, "status": "ok"},
            {"job": 2, "ok": False, "status": "error", "error": "RuntimeError: x"},
        ]
        remaining = remaining_jobs(jobs, rows)
        assert [job.index for job in remaining] == [j.index for j in jobs if j.index not in (0, 2)]
        retried = remaining_jobs(jobs, rows, retry_errors=True)
        assert 2 in [job.index for job in retried]

    def test_validate_rejects_foreign_rows(self):
        jobs = expand_jobs(_spec())
        validate_rows_match_jobs(jobs, [{"job": 0, "scenario": "figure1", "seed": 1}])
        with pytest.raises(ResumeError, match="another campaign"):
            validate_rows_match_jobs(jobs, [{"job": 0, "scenario": "star-5"}])
        # Indices beyond the matrix (adaptive re-run rows) are ignored.
        validate_rows_match_jobs(jobs, [{"job": 999, "scenario": "star-5"}])

    def test_validate_pins_the_full_run_shape(self):
        # Rows persist *every* RunJob field, so a resume against a matrix
        # differing only in fault fraction or step budget — which would
        # silently mix two campaigns' rows — is rejected.
        spec = _spec(
            scenarios=("figure1",),
            faults=(FaultSchedule(every=50, fraction=0.3),),
        )
        rows = [execute_job(expand_jobs(spec)[0]).row]
        validate_rows_match_jobs(expand_jobs(spec), rows)
        refraction = _spec(
            scenarios=("figure1",),
            faults=(FaultSchedule(every=50, fraction=0.5),),
        )
        with pytest.raises(ResumeError, match="fault_fraction"):
            validate_rows_match_jobs(expand_jobs(refraction), rows)
        rebudget = _spec(
            scenarios=("figure1",),
            faults=(FaultSchedule(every=50, fraction=0.3),),
            max_steps=200,
        )
        with pytest.raises(ResumeError, match="max_steps"):
            validate_rows_match_jobs(expand_jobs(rebudget), rows)

    def test_as_job_result_reconstructs_timing(self):
        synthetic = as_job_result({"job": 4, "steps": 100, "ok": True, "steps_per_sec": 50.0})
        assert synthetic.index == 4 and synthetic.ok
        # The stored measurement stays in the row: a --timing resume must
        # rewrite prior rows with their original value, byte for byte.
        assert synthetic.row["steps_per_sec"] == 50.0
        assert synthetic.steps_per_sec == pytest.approx(50.0)
        # An untimed rewrite of the same result still strips it.
        assert "steps_per_sec" not in synthetic.output_row(include_timing=False)
        assert synthetic.output_row(include_timing=True)["steps_per_sec"] == 50.0
        untimed = as_job_result({"job": 5, "steps": 100, "ok": False})
        assert untimed.steps_per_sec == 0.0

    def test_merge_results_prefers_fresh_executions(self):
        prior = [{"job": 0, "ok": False, "status": "error", "error": "x"}]
        fresh = JobResult(index=0, row={"job": 0, "ok": True, "status": "ok"},
                          steps=10, elapsed_seconds=0.1, ok=True)
        merged = merge_results(prior, [fresh])
        assert len(merged) == 1 and merged[0].ok


class TestKillAndResume:
    def test_interrupted_stream_resumes_byte_identical(self, tmp_path):
        jobs = expand_jobs(_spec())
        uninterrupted = CampaignDriver(jobs).execute()
        expected_lines = uninterrupted.jsonl_lines()

        # Crash simulation: the sink flushed k complete rows and died
        # mid-write of row k+1.
        k = 3
        path = tmp_path / "rows.jsonl"
        path.write_text("\n".join(expected_lines[:k]) + "\n" + expected_lines[k][:17])

        prior = read_rows(str(path))
        assert len(prior) == k
        validate_rows_match_jobs(jobs, prior)
        todo = remaining_jobs(jobs, prior)
        assert len(todo) == len(jobs) - k

        with JsonlSink(str(path)) as sink:  # truncate-and-rewrite survivors
            for row in prior:
                sink.write_row(row)
            resumed = CampaignDriver(todo, sink=sink).execute()

        merged = merge_results(prior, resumed.results)
        final = CampaignResult(jobs=jobs, results=merged, workers=1,
                               elapsed_seconds=resumed.elapsed_seconds)
        assert final.jsonl_lines() == expected_lines
        final.write_jsonl(str(path))
        assert path.read_text().splitlines() == expected_lines


    def test_timed_resume_rewrites_prior_rows_byte_identical(self, tmp_path):
        # A --timing campaign stores machine-dependent measurements; a
        # resume must carry the prior rows' stored values through verbatim,
        # not re-derive them from the reconstructed elapsed time.
        jobs = expand_jobs(_spec(scenarios=("figure1",), seeds=(1, 2)))
        path = tmp_path / "timed.jsonl"
        CampaignDriver(jobs).execute().write_jsonl(str(path), include_timing=True)
        original_lines = path.read_text().splitlines()
        assert all("steps_per_sec" in json.loads(line) for line in original_lines)

        # Pure rewrite round-trip (nothing left to execute).
        prior = read_rows(str(path))
        merged = merge_results(prior, [])
        assert all("steps_per_sec" in result.row for result in merged)
        final = CampaignResult(jobs=jobs, results=merged, workers=1, elapsed_seconds=0.0)
        final.write_jsonl(str(path), include_timing=True)
        assert path.read_text().splitlines() == original_lines

        # Interrupted variant: the first k rows survive a crash; after the
        # resume, exactly those k lines are still byte-identical (the
        # re-executed jobs get fresh, legitimately different measurements).
        k = 2
        path.write_text("\n".join(original_lines[:k]) + "\n" + original_lines[k][:13])
        prior = read_rows(str(path))
        assert len(prior) == k
        todo = remaining_jobs(jobs, prior)
        resumed = CampaignDriver(todo).execute()
        merged = merge_results(prior, resumed.results)
        final = CampaignResult(jobs=jobs, results=merged, workers=1,
                               elapsed_seconds=resumed.elapsed_seconds)
        final.write_jsonl(str(path), include_timing=True)
        rewritten = path.read_text().splitlines()
        assert len(rewritten) == len(jobs)
        assert rewritten[:k] == original_lines[:k]


class TestErrorRows:
    def test_execute_job_converts_exceptions_to_error_rows(self):
        job = dataclasses.replace(
            expand_jobs(_spec())[0], scenario="no-such-scenario"
        )
        result = execute_job(job)
        assert result.status == "error"
        assert not result.ok
        assert set(result.row) == set(ERROR_ROW_FIELDS)
        assert result.row["error"] == "KeyError: \"unknown scenario 'no-such-scenario'\""
        # Deterministic: the row is still a pure function of the job.
        assert execute_job(job).row == result.row

    def test_error_rows_survive_a_spawn_pool(self):
        jobs = expand_jobs(_spec(scenarios=("figure1",), algorithms=("cc1", "cc2"), seeds=(1,)))
        poisoned = dataclasses.replace(jobs[0], index=len(jobs), scenario="no-such-scenario")
        result = CampaignDriver(jobs + [poisoned], jobs=2).execute()
        assert result.workers == 2
        assert result.errors == 1
        assert result.violations == 0
        assert not result.ok
        completed = [r for r in result.results if r.status != "error"]
        assert len(completed) == len(jobs)  # nothing lost to the poisoned job

    def test_summary_table_surfaces_error_counts(self):
        jobs = expand_jobs(_spec(scenarios=("figure1",), algorithms=("cc2",), seeds=(1,)))
        poisoned = dataclasses.replace(jobs[0], index=len(jobs), scenario="no-such-scenario")
        result = CampaignDriver(jobs + [poisoned]).execute()
        rows = Finalizer.summary_rows(result)
        assert rows[-1]["errors"] == 1
        poisoned_cells = [r for r in rows if r["scenario"] == "no-such-scenario"]
        assert poisoned_cells and poisoned_cells[0]["errors"] == 1
        assert poisoned_cells[0]["jain min..max"] == "-"

    def test_completed_row_schema_is_exact(self):
        result = execute_job(expand_jobs(_spec(scenarios=("figure1",), seeds=(1,)))[0])
        assert set(result.row) == set(ROW_FIELDS)
        assert result.row["status"] in ("ok", "violation")


class TestZeroElapsedGuards:
    def test_job_result_steps_per_sec_is_finite(self):
        frozen = JobResult(index=0, row={"job": 0}, steps=500, elapsed_seconds=0.0, ok=True)
        assert frozen.steps_per_sec == 0.0
        # The regression: --timing rows must stay RFC 8259-valid JSON.
        line = row_line(frozen.output_row(include_timing=True))
        assert json.loads(line)["steps_per_sec"] == 0.0
        assert "Infinity" not in line

    def test_campaign_result_steps_per_sec_is_finite(self):
        frozen = JobResult(index=0, row={"job": 0, "scenario": "s", "algorithm": "a",
                                         "jain": 1.0, "status": "ok", "ok": True},
                           steps=500, elapsed_seconds=0.0, ok=True)
        campaign = CampaignResult(jobs=[], results=[frozen], workers=1, elapsed_seconds=0.0)
        assert campaign.steps_per_sec == 0.0
        assert json.loads("[%s]" % ",".join(campaign.jsonl_lines(include_timing=True)))
        assert Finalizer.summary_rows(campaign)[-1]["steps/s"] == "-"


class TestAdaptiveReruns:
    def test_disagreeing_cell_is_rerun_with_fresh_seeds(self):
        base = expand_jobs(_DISAGREE_SPEC)
        result = CampaignDriver(base).execute()
        verdicts = [r.ok for r in result.results]
        assert True in verdicts and False in verdicts  # the fixture's point

        cells = disagreement_cells(base, result.results)
        assert len(cells) == 1
        extra = rerun_jobs(base, result.results)
        # As many fresh seeds as the cell had, appended deterministically.
        assert [job.seed for job in extra] == [6, 7, 8]
        assert [job.index for job in extra] == [3, 4, 5]
        template = base[0]
        for job in extra:
            assert (job.scenario, job.algorithm, job.fault_every) == (
                template.scenario, template.algorithm, template.fault_every
            )
        # Deterministic: same inputs, same re-expansion.
        assert rerun_jobs(base, result.results) == extra
        # The fresh jobs actually run.
        extra_result = CampaignDriver(extra).execute()
        assert len(extra_result.results) == 3

    def test_progress_total_grows_with_the_rerun_appendix(self):
        seen = []
        CampaignDriver(
            expand_jobs(_DISAGREE_SPEC),
            rerun_disagreements=True,
            progress=lambda result, done, total: seen.append((done, total)),
        ).execute()
        assert [done for done, _ in seen] == [1, 2, 3, 4, 5, 6]
        assert [total for _, total in seen] == [3, 3, 3, 6, 6, 6]

    def test_agreeing_campaign_adds_no_jobs(self):
        jobs = expand_jobs(_spec(scenarios=("figure1",), seeds=(1, 2)))
        result = CampaignDriver(jobs).execute()
        assert rerun_jobs(jobs, result.results) == []

    def test_error_rows_do_not_fake_disagreement(self):
        jobs = expand_jobs(_spec(scenarios=("figure1",), algorithms=("cc2",), seeds=(1, 2)))
        results = [execute_job(jobs[0]), error_result(jobs[1], RuntimeError("boom"))]
        assert disagreement_cells(jobs, results) == []
