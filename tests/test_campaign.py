"""Tests for the campaign engine: matrix expansion, determinism, aggregation.

The parallel-execution acceptance property — ``--jobs N`` produces
byte-identical aggregate JSONL rows to ``--jobs 1`` — is asserted here with
a real ``multiprocessing`` pool (spawn context), sized to stay tier-1-fast.
Wall-clock *speedup* is a hardware property and is measured by
``benchmarks/bench_campaign.py`` instead.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.campaign import (
    CampaignDriver,
    CampaignSpec,
    FaultSchedule,
    Finalizer,
    RunJob,
    SPAWN_ENTRY_POINTS,
    execute_job,
    expand_jobs,
)
from repro.workloads.random_scenarios import (
    RandomScenarioSpec,
    random_scenario,
    random_scenarios,
)


def _small_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        scenarios=("figure1",),
        random_count=2,
        algorithms=("cc1", "cc2"),
        seeds=(1, 2),
        max_steps=120,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestRandomScenarios:
    def test_same_seed_same_spec(self):
        assert random_scenario(7) == random_scenario(7)
        assert random_scenarios(5, base_seed=3) == random_scenarios(5, base_seed=3)

    def test_specs_are_diverse(self):
        specs = random_scenarios(40)
        assert len({s.topology for s in specs}) >= 4
        assert len({s.environment for s in specs}) == 3
        assert len({s.token for s in specs}) == 3
        assert any(s.daemon == "synchronous" for s in specs)
        assert any(s.arbitrary_start for s in specs)
        assert any(s.fault_every for s in specs)
        assert any(not s.fault_every for s in specs)

    def test_builders_produce_runnable_objects(self):
        for seed in range(8):
            spec = random_scenario(seed)
            hypergraph = spec.build_hypergraph()
            assert hypergraph.n >= 2 and hypergraph.m >= 1
            # Rebuilding yields an identical topology (determinism).
            again = spec.build_hypergraph()
            assert tuple(e.members for e in hypergraph.hyperedges) == tuple(
                e.members for e in again.hyperedges
            )
            spec.build_environment()
            spec.build_daemon(seed=1)

    def test_specs_pickle_roundtrip(self):
        spec = random_scenario(11)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestFaultSchedule:
    def test_parse_none(self):
        assert FaultSchedule.parse("none") == FaultSchedule()
        assert FaultSchedule.parse("none").name == "none"

    def test_parse_every_fraction(self):
        schedule = FaultSchedule.parse("50:0.4")
        assert schedule.every == 50 and schedule.fraction == 0.4
        assert "50" in schedule.name

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="fault schedule"):
            FaultSchedule.parse("soon")
        with pytest.raises(ValueError):
            FaultSchedule(every=-1)
        with pytest.raises(ValueError):
            FaultSchedule(every=5, fraction=0.0)

    def test_parse_format_errors_name_the_expected_shape(self):
        # "50:" is malformed (empty fraction): the format message applies.
        with pytest.raises(ValueError, match="expected 'none' or 'EVERY:FRACTION'"):
            FaultSchedule.parse("50:")

    def test_parse_range_errors_keep_their_own_message(self):
        # "-5:0.5" and "50:1.5" are well-formed; their *values* are out of
        # range, so __post_init__'s specific message must propagate instead
        # of being masked as a format error.
        with pytest.raises(ValueError, match="every must be >= 0"):
            FaultSchedule.parse("-5:0.5")
        with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\]"):
            FaultSchedule.parse("50:1.5")


class TestMatrixExpansion:
    def test_cross_product_size_and_indices(self):
        spec = CampaignSpec(
            scenarios=("figure1", "grid-3x3"),
            algorithms=("cc1", "cc2", "cc3"),
            engines=("dense", "incremental"),
            faults=(FaultSchedule(), FaultSchedule(every=30, fraction=0.5)),
            seeds=(1, 2, 3),
            max_steps=50,
        )
        jobs = expand_jobs(spec)
        assert len(jobs) == 2 * 3 * 2 * 2 * 3
        assert [job.index for job in jobs] == list(range(len(jobs)))

    def test_random_scenarios_carry_their_own_dimensions(self):
        spec = CampaignSpec(
            random_count=3,
            random_base_seed=5,
            algorithms=("cc2",),
            seeds=(1,),
            max_steps=50,
        )
        jobs = expand_jobs(spec)
        assert len(jobs) == 3
        for job, drawn in zip(jobs, random_scenarios(3, base_seed=5)):
            assert job.random_seed == drawn.seed
            assert job.scenario == drawn.name
            assert job.token == drawn.token
            assert job.daemon == drawn.daemon
            assert job.fault_every == drawn.fault_every
            assert job.arbitrary_start == drawn.arbitrary_start

    def test_unknown_scenario_fails_at_spec_construction(self):
        with pytest.raises(KeyError):
            CampaignSpec(scenarios=("no-such-scenario",), max_steps=10)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="needs named scenarios"):
            CampaignSpec(scenarios=(), random_count=0)
        with pytest.raises(ValueError, match="environment spec"):
            CampaignSpec(scenarios=("figure1",), environment="warp")
        with pytest.raises(ValueError, match="environment spec"):
            CampaignSpec(scenarios=("figure1",), environment="probabilistic:abc")
        with pytest.raises(ValueError, match="unknown algorithm"):
            CampaignSpec(scenarios=("figure1",), algorithms=("cc9",))
        with pytest.raises(ValueError, match="unknown engine"):
            CampaignSpec(scenarios=("figure1",), engines=("warp",))
        with pytest.raises(ValueError, match="unknown daemon"):
            CampaignSpec(scenarios=("figure1",), daemons=("chaotic",))

    def test_jobs_pickle_roundtrip(self):
        for job in expand_jobs(_small_spec()):
            assert pickle.loads(pickle.dumps(job)) == job


class TestExecuteJob:
    def test_row_is_deterministic(self):
        job = expand_jobs(_small_spec())[0]
        first = execute_job(job)
        second = execute_job(job)
        assert first.row == second.row
        assert first.steps == second.steps

    def test_row_reports_verdicts_and_metrics(self):
        job = expand_jobs(_small_spec())[0]
        row = execute_job(job).row
        for key in (
            "job", "scenario", "algorithm", "engine", "daemon", "seed",
            "steps", "rounds", "stop_reason", "meetings", "mean_conc",
            "jain", "exclusion", "synchronization", "progress",
            "essential_discussion", "voluntary_discussion", "violations", "ok",
        ):
            assert key in row, key

    def test_progress_only_failure_sets_first_violation(self):
        # Too short for every star committee to meet + a tiny grace window:
        # Progress fails without any safety violation, and the row must
        # still carry the violation's index (not null).
        spec = CampaignSpec(
            scenarios=("star-5",),
            algorithms=("cc1",),
            seeds=(1,),
            max_steps=6,
            grace_steps=2,
        )
        row = execute_job(expand_jobs(spec)[0]).row
        assert row["progress"] is False
        assert row["exclusion"] is True and row["synchronization"] is True
        assert row["violations"] > 0
        assert row["first_violation"] is not None

    def test_fault_jobs_detect_violations(self):
        # A heavily corrupted run must be flagged: the campaign exists to
        # surface violations, so at least this adversarial cell fails.
        spec = CampaignSpec(
            scenarios=("figure1",),
            algorithms=("cc2",),
            faults=(FaultSchedule(every=7, fraction=0.8),),
            seeds=(0,),
            max_steps=200,
        )
        result = execute_job(expand_jobs(spec)[0])
        assert not result.ok
        assert result.row["violations"] > 0


class TestRunCampaign:
    def test_serial_results_in_job_order(self):
        result = CampaignDriver(_small_spec()).execute()
        assert [r.index for r in result.results] == list(range(len(result.jobs)))
        assert result.workers == 1

    def test_parallel_rows_byte_identical_to_serial(self):
        # The acceptance property: a spawn-context pool with several workers
        # produces exactly the same aggregate JSONL bytes as the serial run.
        spec = _small_spec()
        serial = CampaignDriver(spec).execute()
        parallel = CampaignDriver(spec, jobs=2).execute()
        assert parallel.workers == 2
        assert serial.jsonl_lines() == parallel.jsonl_lines()

    def test_jsonl_rows_parse_and_sort_keys(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        result = CampaignDriver(_small_spec()).execute()
        result.write_jsonl(str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == len(result.jobs)
        for line in lines:
            row = json.loads(line)
            assert json.dumps(row, sort_keys=True) == line
            assert "steps_per_sec" not in row  # timing is opt-in

    def test_timing_rows_are_opt_in(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        result = CampaignDriver(_small_spec(scenarios=("figure1",), random_count=0)).execute()
        result.write_jsonl(str(out), include_timing=True)
        row = json.loads(out.read_text().splitlines()[0])
        assert row["steps_per_sec"] > 0

    def test_summary_rows_aggregate_cells(self):
        result = CampaignDriver(_small_spec()).execute()
        rows = Finalizer.summary_rows(result)
        assert rows[-1]["scenario"] == "TOTAL"
        assert rows[-1]["runs"] == len(result.jobs)
        assert sum(r["runs"] for r in rows[:-1]) == len(result.jobs)
        assert sum(r["violations"] for r in rows[:-1]) == result.violations

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="jobs"):
            CampaignDriver(_small_spec(), jobs=0)

    def test_progress_callback_sees_every_job(self):
        seen = []
        CampaignDriver(
            _small_spec(random_count=0, seeds=(1,)),
            jobs=1,
            progress=lambda result, done, total: seen.append((result.index, done, total)),
        ).execute()
        assert len(seen) == 2  # cc1 + cc2 on figure1
        assert all(total == 2 for _, _, total in seen)


class TestSpawnSafety:
    def test_entry_points_are_spawn_resolvable(self):
        # Mirrors tools/check_repo.py: the worker entry point must be a
        # module-top-level callable that pickle round-trips by reference.
        import importlib

        for dotted in SPAWN_ENTRY_POINTS:
            module_name, _, attr = dotted.rpartition(".")
            module = importlib.import_module(module_name)
            func = getattr(module, attr)
            assert callable(func)
            assert pickle.loads(pickle.dumps(func)) is func

    def test_runjob_defaults_match_named_scenario_contract(self):
        job = expand_jobs(CampaignSpec(scenarios=("figure1",), max_steps=10))[0]
        assert job.random_seed is None
        assert job.build_hypergraph().n == 6
