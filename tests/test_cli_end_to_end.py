"""End-to-end CLI tests: every subcommand driven through ``main()``.

The unit tests in ``test_analysis_and_cli.py`` cover parsing and table
shapes; these tests exercise the full pipelines — including the campaign
subcommand's worker pool, JSONL output files and exit codes on
violation/clean runs — exactly the way a shell invocation would.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.kernel.batched import numpy_available


class TestRunEndToEnd:
    def test_run_exit_zero_and_metrics_table(self, capsys):
        assert main(["run", "--scenario", "grid-3x3", "--algorithm", "cc3",
                     "--steps", "300", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "CC3 on grid-3x3" in out
        assert "meetings" in out

    def test_run_engines_report_identical_metrics(self, capsys):
        argv = ["run", "--scenario", "figure1", "--algorithm", "cc2",
                "--steps", "250", "--seed", "3"]
        assert main(argv + ["--engine", "dense"]) == 0
        dense_out = capsys.readouterr().out
        assert main(argv + ["--engine", "incremental"]) == 0
        incremental_out = capsys.readouterr().out
        assert dense_out == incremental_out



@pytest.mark.parametrize(
    "argv",
    [
        ["run"],
        ["check"],
        ["bounds"],
        ["compare"],
        ["campaign"],
        ["collect", "--listen", "tcp:127.0.0.1:0", "--out", "rows.jsonl"],
    ],
    ids=lambda argv: argv[0],
)
def test_unknown_scenario_is_a_usage_error(argv, capsys):
    # One stderr line and exit 2, spelled the same by every command: for
    # `check`, exit 1 would claim a violated property.
    assert main(argv + ["--scenario", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{argv[0]}: unknown scenario 'nope'\n"
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "{path}"],
        ["campaign", "--resume", "--out", "{path}"],
        ["collect", "--listen", "tcp:127.0.0.1:0", "--resume", "--out", "{path}"],
    ],
    ids=lambda argv: argv[0],
)
def test_unreadable_rows_file_is_a_usage_error(argv, kind, tmp_path, capsys):
    # `stats` and both --resume paths read the rows file the same way: a
    # file that is not a campaign stream is exit 2 and one line naming it.
    path = tmp_path / "rows.jsonl"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe not utf-8\n")
    assert main([arg.format(path=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{argv[0]}: {path}: ")
    assert captured.err.count("\n") == 1


class TestCheckEndToEnd:
    def test_clean_check_exits_zero(self, capsys):
        assert main(["check", "--scenario", "figure1", "--algorithm", "cc2",
                     "--sparse", "--steps", "500"]) == 0
        assert "Exclusion" in capsys.readouterr().out

    def test_violation_drives_exit_one(self, capsys):
        # Too short for every star committee to meet + a tiny grace window:
        # Progress fails deterministically (same construction as docs/CLI.md).
        code = main(["check", "--scenario", "star-5", "--algorithm", "cc1",
                     "--steps", "6", "--grace", "2"])
        assert code == 1
        assert "Progress" in capsys.readouterr().out

    def test_discussion_spec_rows_appear(self, capsys):
        assert main(["check", "--scenario", "figure1", "--algorithm", "cc2",
                     "--sparse", "--steps", "400", "--discussion-spec"]) == 0
        out = capsys.readouterr().out
        assert "EssentialDiscussion" in out
        assert "VoluntaryDiscussion" in out


#: ``check`` table property -> campaign row verdict field.
_VERDICT_FIELDS = {
    "Exclusion": "exclusion",
    "Synchronization": "synchronization",
    "Progress": "progress",
    "EssentialDiscussion": "essential_discussion",
    "VoluntaryDiscussion": "voluntary_discussion",
}


def _check_table(out: str):
    """``{property: (holds, violations)}`` from a ``check`` verdict table."""
    table = {}
    for line in out.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells[0] in _VERDICT_FIELDS:
            table[cells[0]] = (cells[1] == "True", int(cells[2]))
    return table


class TestCheckReproducesCampaignRows:
    """``check --sparse --discussion-spec`` with a named-scenario row's flags
    is the run the row describes: same five verdicts, same violation count,
    and exit 1 exactly when the row's status is ``violation``."""

    MATRICES = (
        ["--scenario", "cycle-100", "--algorithm", "cc2"],
        ["--scenario", "figure1", "--scenario", "grid-3x3",
         "--algorithm", "cc1", "--algorithm", "cc2", "--algorithm", "cc3"],
    )

    @pytest.mark.parametrize("arbitrary", [False, True])
    def test_rows_reproduce(self, arbitrary, tmp_path, capsys):
        extra = ["--arbitrary"] if arbitrary else []
        rows = []
        for index, matrix in enumerate(self.MATRICES):
            out = tmp_path / f"rows{index}.jsonl"
            main(["campaign", *matrix, "--steps", "200", "--seed", "8000",
                  "--out", str(out), *extra])
            rows += [json.loads(line) for line in out.read_text().splitlines()]
        capsys.readouterr()
        assert len(rows) == 7
        statuses = set()
        for row in rows:
            assert (row["daemon"], row["environment"], row["fault_every"]) == (
                "weakly_fair", "always", 0,
            )
            argv = [
                "check", "--sparse", "--discussion-spec",
                "--scenario", row["scenario"], "--algorithm", row["algorithm"],
                "--token", row["token"], "--engine", row["engine"],
                "--steps", str(row["max_steps"]),
                "--discussion", str(row["discussion_steps"]),
                "--seed", str(row["seed"]),
            ] + (["--arbitrary"] if row["arbitrary"] else [])
            code = main(argv)
            table = _check_table(capsys.readouterr().out)
            assert {name: holds for name, (holds, _) in table.items()} == {
                name: row[field] for name, field in _VERDICT_FIELDS.items()
            }, row
            assert sum(count for _, count in table.values()) == row["violations"], row
            assert code == (1 if row["status"] == "violation" else 0), row
            statuses.add(row["status"])
        if not arbitrary:
            # The clean starts cover both exit codes (cycle-100 cc2 starves
            # professors within 200 steps).
            assert statuses == {"ok", "violation"}


#: sha256 of the ``--out`` file of the campaign in
#: ``test_random_campaign_rows_are_pinned``.  Its rows cover fault bursts,
#: arbitrary starts, probabilistic and bursty requests and the synchronous
#: daemon; any change to where a fault burst falls moves these bytes.
PINNED_RANDOM_ROWS_SHA256 = "ad51c406a0ae9ed8a4e888616e68ac4ea0598cc38f39b0ae5bb175b0e4685061"


def test_random_campaign_rows_are_pinned(tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    main(["campaign", "--random", "6", "--random-seed", "0",
          "--algorithm", "cc1", "--algorithm", "cc2", "--algorithm", "cc3",
          "--steps", "40", "--out", str(out)])
    capsys.readouterr()
    data = out.read_bytes()
    rows = [json.loads(line) for line in data.decode().splitlines()]
    assert any(r["fault_every"] and r["steps"] > 2 * r["fault_every"] for r in rows)
    assert any(r["arbitrary"] for r in rows)
    assert any(r["environment"].startswith("probabilistic") for r in rows)
    assert any(r["environment"].startswith("bursty") for r in rows)
    assert any(r["daemon"] == "synchronous" for r in rows)
    assert hashlib.sha256(data).hexdigest() == PINNED_RANDOM_ROWS_SHA256


class TestCompareEndToEnd:
    def test_compare_exits_zero_with_all_contenders(self, capsys):
        assert main(["compare", "--scenario", "figure1",
                     "--steps", "200", "--rounds", "60"]) == 0
        out = capsys.readouterr().out
        for name in ("cc1", "cc2", "cc3", "centralized-greedy", "kumar-tokens"):
            assert name in out


class TestCampaignEndToEnd:
    def test_clean_campaign_writes_rows_and_exits_zero(self, capsys, tmp_path):
        out_file = tmp_path / "rows.jsonl"
        code = main([
            "campaign", "--scenario", "figure1", "--algorithm", "cc2",
            "--seeds", "2", "--steps", "150", "--out", str(out_file),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "Campaign: 2 runs" in printed
        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert len(rows) == 2
        assert all(row["ok"] for row in rows)
        assert [row["job"] for row in rows] == [0, 1]

    def test_parallel_rows_byte_identical_through_cli(self, capsys, tmp_path):
        serial_file = tmp_path / "serial.jsonl"
        parallel_file = tmp_path / "parallel.jsonl"
        argv = ["campaign", "--scenario", "figure1", "--scenario", "grid-3x3",
                "--algorithm", "cc1", "--algorithm", "cc2",
                "--seeds", "2", "--steps", "120"]
        assert main(argv + ["--jobs", "1", "--out", str(serial_file)]) == 0
        assert main(argv + ["--jobs", "2", "--out", str(parallel_file)]) == 0
        capsys.readouterr()
        assert serial_file.read_bytes() == parallel_file.read_bytes()

    def test_fault_campaign_exits_one(self, capsys, tmp_path):
        out_file = tmp_path / "rows.jsonl"
        code = main([
            "campaign", "--scenario", "figure1", "--algorithm", "cc2",
            "--faults", "7:0.8", "--seed", "0", "--steps", "200",
            "--out", str(out_file),
        ])
        capsys.readouterr()
        assert code == 1
        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert any(not row["ok"] for row in rows)
        assert any(row["violations"] > 0 for row in rows)

    def test_randomized_campaign_runs(self, capsys):
        code = main([
            "campaign", "--random", "3", "--algorithm", "cc2",
            "--steps", "120",
        ])
        printed = capsys.readouterr().out
        assert code in (0, 1)  # drawn fault schedules may legitimately violate
        assert "random-0" in printed

    def test_unknown_scenario_exits_two(self, capsys):
        code = main(["campaign", "--scenario", "no-such-scenario", "--steps", "10"])
        err = capsys.readouterr().err
        assert code == 2
        assert "campaign:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--engine", "auto"],
            ["campaign", "--discussion", "0"],
            ["collect", "--listen", "tcp:127.0.0.1:0", "--out", "rows.jsonl", "--timeout", "1",
             "--discussion", "0"],
            ["run", "--steps", "0"],
            ["run", "--discussion", "0"],
            ["check", "--discussion", "-3"],
            ["compare", "--steps", "0"],
            ["compare", "--rounds", "0"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_aliases_and_empty_budgets_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--scenario", "figure1"])
        assert excinfo.value.code == 2
        assert "argument --" in capsys.readouterr().err

    def test_bad_environment_exits_two(self, capsys):
        code = main(["campaign", "--scenario", "figure1",
                     "--environment", "warp", "--steps", "10"])
        err = capsys.readouterr().err
        assert code == 2
        assert "environment spec" in err

    def test_timing_flag_adds_steps_per_sec(self, capsys, tmp_path):
        out_file = tmp_path / "rows.jsonl"
        assert main([
            "campaign", "--scenario", "figure1", "--steps", "100",
            "--out", str(out_file), "--timing",
        ]) == 0
        capsys.readouterr()
        row = json.loads(out_file.read_text().splitlines()[0])
        assert row["steps_per_sec"] > 0

    def test_random_only_campaign_warns_on_ignored_named_axes(self, capsys):
        code = main([
            "campaign", "--random", "2", "--token", "ring",
            "--faults", "50:0.4", "--steps", "60",
        ])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert "ignoring --token, --faults" in captured.err
        assert "randomized scenarios draw their own" in captured.err
        # With a named scenario present the axes do apply: no warning.
        assert main([
            "campaign", "--scenario", "figure1", "--random", "1",
            "--token", "ring", "--steps", "60",
        ]) in (0, 1)
        assert "ignoring" not in capsys.readouterr().err


class TestCampaignCrashSafety:
    ARGV = ["campaign", "--scenario", "figure1", "--scenario", "grid-3x3",
            "--algorithm", "cc1", "--algorithm", "cc2",
            "--seeds", "2", "--steps", "100"]

    def test_resume_finishes_interrupted_campaign_byte_identical(
        self, capsys, tmp_path, monkeypatch
    ):
        full = tmp_path / "full.jsonl"
        assert main(self.ARGV + ["--out", str(full)]) == 0
        expected = full.read_bytes()
        lines = expected.splitlines(keepends=True)
        assert len(lines) == 8

        # Interrupt after 3 complete rows + one row truncated mid-write.
        part = tmp_path / "part.jsonl"
        part.write_bytes(b"".join(lines[:3]) + lines[3][: len(lines[3]) // 2])

        import repro.campaign.driver as driver_module
        executed = []
        real_execute = driver_module.execute_job
        monkeypatch.setattr(
            driver_module, "execute_job",
            lambda job: (executed.append(job.index), real_execute(job))[1],
        )
        code = main(self.ARGV + ["--out", str(part), "--resume"])
        printed = capsys.readouterr().out
        assert code == 0
        assert "resuming" in printed and "5 of 8 job(s) remaining" in printed
        # Only the N-k missing jobs ran...
        assert sorted(executed) == [3, 4, 5, 6, 7]
        # ...and the final job-order rewrite is byte-identical to the
        # uninterrupted run.
        assert part.read_bytes() == expected

    def test_resume_of_complete_file_executes_nothing(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "rows.jsonl"
        assert main(self.ARGV + ["--out", str(out)]) == 0
        expected = out.read_bytes()
        import repro.campaign.driver as driver_module
        monkeypatch.setattr(
            driver_module, "execute_job",
            lambda job: (_ for _ in ()).throw(AssertionError("no job should run")),
        )
        assert main(self.ARGV + ["--out", str(out), "--resume"]) == 0
        capsys.readouterr()
        assert out.read_bytes() == expected

    def test_resume_requires_out(self, capsys):
        assert main(["campaign", "--scenario", "figure1", "--resume"]) == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_resume_rejects_a_foreign_file(self, capsys, tmp_path):
        out = tmp_path / "rows.jsonl"
        assert main(["campaign", "--scenario", "star-5", "--steps", "50",
                     "--out", str(out)]) in (0, 1)
        capsys.readouterr()
        code = main(self.ARGV + ["--out", str(out), "--resume"])
        assert code == 2
        assert "does not match the campaign matrix" in capsys.readouterr().err

    def test_worker_error_rows_drive_exit_three(self, capsys, tmp_path, monkeypatch):
        import repro.campaign.jobs as jobs_module
        real_run = jobs_module._run_job

        def boom(job):
            if job.seed == 2:
                raise RuntimeError("induced worker failure")
            return real_run(job)

        monkeypatch.setattr(jobs_module, "_run_job", boom)
        out = tmp_path / "rows.jsonl"
        code = main(["campaign", "--scenario", "figure1", "--algorithm", "cc2",
                     "--seeds", "2", "--steps", "100", "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 3
        assert "1 errors" in printed
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2  # the completed row was not lost
        by_status = {row["status"]: row for row in rows}
        assert by_status["error"]["error"] == "RuntimeError: induced worker failure"
        assert by_status["ok"]["ok"] is True

    def test_rerun_disagreements_appends_fresh_seed_rows(self, capsys, tmp_path):
        out = tmp_path / "rows.jsonl"
        code = main([
            "campaign", "--scenario", "figure1", "--algorithm", "cc2",
            "--faults", "40:0.3", "--seed", "3", "--seeds", "3",
            "--steps", "200", "--rerun-disagreements", "--out", str(out),
        ])
        printed = capsys.readouterr().out
        assert code == 1  # the violating seeds still violate
        assert "verdicts disagree across seeds" in printed
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["job"] for row in rows] == list(range(6))
        assert [row["seed"] for row in rows] == [3, 4, 5, 6, 7, 8]
        verdicts = {row["ok"] for row in rows[:3]}
        assert verdicts == {True, False}

    def test_resume_is_type_strict(self, capsys, tmp_path):
        # ``50.0 == 50`` in Python, but a row that says ``"max_steps": 50.0``
        # was not written by this matrix: adopting it would rewrite the file
        # with bytes no uninterrupted run produces.
        argv = ["campaign", "--scenario", "figure1", "--algorithm", "cc2",
                "--seeds", "3", "--steps", "50"]
        out = tmp_path / "rows.jsonl"
        assert main(argv + ["--out", str(out)]) in (0, 1)
        capsys.readouterr()
        rows = [json.loads(line) for line in out.read_text().splitlines()[:2]]
        rows[1]["max_steps"] = 50.0
        out.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
        assert main(argv + ["--out", str(out), "--resume"]) == 2
        assert "max_steps=50.0" in capsys.readouterr().err

    def test_rerun_disagreements_with_collector_exits_two(self, capsys):
        code = main(["campaign", "--scenario", "figure1", "--steps", "10",
                     "--collector", "tcp:127.0.0.1:9", "--rerun-disagreements"])
        assert code == 2
        assert "cannot be combined with --collector" in capsys.readouterr().err


class TestBatchedCampaignEndToEnd:
    """`--engine batched` produces the same campaign bytes as solo engines.

    The batched engine changes *how* a cell's seed sweep executes (one numpy
    lockstep run instead of N solo runs), never *what* the rows say: modulo
    the `engine` identity field the JSONL output is byte-identical to
    `--engine incremental --jobs 1`, and resume/shard-collector flows that
    split a batch arbitrarily still converge on the same bytes.
    """

    pytestmark = pytest.mark.skipif(
        not numpy_available(),
        reason="batched engine needs the repro-cc[batched] extra",
    )

    ARGV = ["campaign", "--scenario", "figure1", "--scenario", "grid-3x3",
            "--algorithm", "cc2", "--token", "ring", "--seeds", "6",
            "--steps", "150", "--arbitrary", "--faults", "20:0.5"]

    def test_batched_bytes_equal_incremental_solo_modulo_engine_field(
        self, capsys, tmp_path
    ):
        batched = tmp_path / "batched.jsonl"
        solo = tmp_path / "solo.jsonl"
        assert main(self.ARGV + ["--engine", "batched", "--jobs", "1",
                                 "--out", str(batched)]) in (0, 1)
        assert main(self.ARGV + ["--engine", "incremental", "--jobs", "1",
                                 "--out", str(solo)]) in (0, 1)
        capsys.readouterr()
        # The engine field is row *identity* (it names the matrix cell), so
        # it is the one and only byte-level difference.
        rewritten = batched.read_text().replace('"engine": "batched"',
                                                '"engine": "incremental"')
        assert rewritten == solo.read_text()
        assert len(rewritten.splitlines()) == 12

    def test_batched_worker_pool_bytes_equal_serial(self, capsys, tmp_path):
        # --jobs 2 sends each job through the pool solo (one-lane batches);
        # --jobs 1 groups a cell's seeds into one lockstep run.  Lane
        # independence makes the outputs literally byte-identical.
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        argv = self.ARGV + ["--engine", "batched"]
        assert main(argv + ["--jobs", "1", "--out", str(serial)]) in (0, 1)
        assert main(argv + ["--jobs", "2", "--out", str(pooled)]) in (0, 1)
        capsys.readouterr()
        assert serial.read_bytes() == pooled.read_bytes()

    def test_resume_mid_batch_byte_identical(self, capsys, tmp_path):
        argv = self.ARGV + ["--engine", "batched"]
        full = tmp_path / "full.jsonl"
        assert main(argv + ["--out", str(full)]) in (0, 1)
        expected = full.read_bytes()
        lines = expected.splitlines(keepends=True)
        assert len(lines) == 12

        # Truncate *inside* the first cell's 6-seed batch (after 2 of its 6
        # rows, the 3rd cut mid-write): resume must re-run only the missing
        # seeds — as a narrower batch — and still rewrite identical bytes.
        part = tmp_path / "part.jsonl"
        part.write_bytes(b"".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
        code = main(argv + ["--out", str(part), "--resume"])
        printed = capsys.readouterr().out
        assert code in (0, 1)
        assert "10 of 12 job(s) remaining" in printed
        assert part.read_bytes() == expected

    def test_collector_shard_mode_byte_identical(self, capsys, tmp_path):
        import threading

        from repro.campaign import CampaignDriver, expand_jobs
        from repro.campaign.matrix import CampaignSpec, FaultSchedule
        from repro.campaign.shard import Collector
        from repro.campaign.sinks import row_line

        spec = CampaignSpec(
            scenarios=("figure1", "grid-3x3"),
            algorithms=("cc2",),
            tokens=("ring",),
            engines=("batched",),
            faults=(FaultSchedule(every=20, fraction=0.5),),
            seeds=tuple(range(6)),
            max_steps=150,
            arbitrary_start=True,
        )
        jobs = expand_jobs(spec)
        baseline = [
            row_line(result.output_row())
            for result in CampaignDriver(jobs).execute().results
        ]
        # Five static shards over 12 jobs: every cell's 6-seed sweep is
        # split across shard boundaries, so the merged rows prove a batch
        # can be cut anywhere without perturbing a lane.
        with Collector(jobs, "tcp:127.0.0.1:0") as collector:
            threads = [
                threading.Thread(
                    target=CampaignDriver(
                        jobs, collector=collector.address, shard=(i, 5)
                    ).execute
                )
                for i in range(5)
            ]
            for thread in threads:
                thread.start()
            merged = collector.run(timeout=120)
            for thread in threads:
                thread.join(timeout=15)
        assert [row_line(row) for row in merged] == baseline

    def test_batched_without_numpy_exits_two_with_hint(self, capsys, monkeypatch):
        # A ``None`` entry in sys.modules makes ``import numpy`` fail, as it
        # does where the extra is not installed.
        monkeypatch.setitem(sys.modules, "numpy", None)
        code = main(["campaign", "--scenario", "figure1",
                     "--engine", "batched", "--steps", "20"])
        err = capsys.readouterr().err
        assert code == 2
        assert "repro-cc[batched]" in err


class TestCliImport:
    def test_import_leaves_numpy_unloaded(self):
        # numpy is the batched engine's optional extra: only a campaign with
        # a batched job imports it, so a fresh ``import repro.cli`` must not.
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        probe = "import sys, repro.cli; print('numpy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert result.stdout.strip() == "False"
