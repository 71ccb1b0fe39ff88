"""Unit tests for the batched lockstep engine and its campaign integration.

The exhaustive lane-identity proof lives in the differential harness
(``test_differential_harness.py`` batched axis); this file covers the
engine's own contracts: the numpy guard and its message, compile-time
coverage validation (``BatchedUnsupported``), raw-vs-record equivalence,
terminal/stopped lanes dropping out of the lockstep, fault-injection epochs,
and the campaign grouping rules.
"""

import json
import sys

import pytest

np = pytest.importorskip("numpy", reason="batched engine tests need the repro-cc[batched] extra")

from repro.campaign import CampaignSpec, RunJob, execute_job, execute_job_group, group_jobs
from repro.campaign.batched import MAX_GROUP_LANES, group_key
from repro.core.batched_program import compile_program
from repro.core.runner import CommitteeCoordinator
from repro.hypergraph.generators import figure1_hypergraph, path_of_committees
from repro.kernel.batched import (
    BatchedScheduler,
    BatchedUnsupported,
    NUMPY_HINT,
    numpy_available,
    require_numpy,
)
from repro.kernel.daemon import SynchronousDaemon, default_daemon
from repro.kernel.faults import FaultInjector, arbitrary_configuration
from repro.kernel.scheduler import StopRun
from repro.workloads.request_models import (
    AlwaysRequestingEnvironment,
    BurstyRequestEnvironment,
    ProbabilisticRequestEnvironment,
)


def _algorithm(hypergraph=None, algorithm="cc2", token="ring"):
    return CommitteeCoordinator(
        hypergraph if hypergraph is not None else figure1_hypergraph(),
        algorithm=algorithm,
        token=token,
        seed=0,
        engine="incremental",
    ).algorithm


def _job(**overrides):
    base = dict(
        index=0,
        scenario="figure1",
        random_seed=None,
        algorithm="cc2",
        token="ring",
        engine="batched",
        daemon="weakly_fair",
        environment="always",
        discussion_steps=1,
        seed=0,
        max_steps=120,
        arbitrary_start=False,
        fault_every=0,
        fault_fraction=0.5,
        grace_steps=None,
    )
    base.update(overrides)
    return RunJob(**base)


class TestNumpyGuard:
    def test_numpy_available_here(self):
        # importorskip above means this environment has the extra.
        assert numpy_available()
        assert require_numpy() is np

    def test_hint_names_the_extra(self):
        # The graceful-degradation contract: every "no numpy" message tells
        # the user exactly what to install.
        assert "repro-cc[batched]" in NUMPY_HINT
        assert "numpy" in NUMPY_HINT

    def test_require_numpy_raises_hint_without_numpy(self, monkeypatch):
        # A ``None`` entry in sys.modules makes ``import numpy`` fail, as it
        # does where the extra is not installed.
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert not numpy_available()
        with pytest.raises(BatchedUnsupported, match=r"repro-cc\[batched\]"):
            require_numpy()

    def test_campaign_spec_rejects_batched_without_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ValueError, match=r"repro-cc\[batched\]"):
            CampaignSpec(scenarios=("figure1",), engines=("batched",))


class TestCompileValidation:
    def test_supported_scenario_compiles(self):
        program = compile_program(_algorithm(), AlwaysRequestingEnvironment(1))
        assert program.kind == "cc2"

    def test_probabilistic_environment_unsupported(self):
        # Its RNG draws happen inside observe() in process order — a
        # vectorized update cannot replicate the stream, so the compile
        # refuses and callers fall back.
        with pytest.raises(BatchedUnsupported):
            compile_program(_algorithm(), ProbabilisticRequestEnvironment(0.5, 1, seed=3))

    def test_unknown_algorithm_subclass_unsupported(self):
        algorithm = _algorithm()

        class Widened(type(algorithm)):  # subclass, not the exact class
            pass

        widened = Widened(algorithm.hypergraph, algorithm.token)
        with pytest.raises(BatchedUnsupported):
            compile_program(widened, AlwaysRequestingEnvironment(1))

    def test_encode_rejects_out_of_domain_status(self):
        algorithm = _algorithm()
        program = compile_program(algorithm, AlwaysRequestingEnvironment(1))
        initial = algorithm.initial_configuration()
        pid = sorted(initial.to_dict())[0]
        bad = initial.updated({pid: {"S": "meditating"}})
        with pytest.raises(BatchedUnsupported):
            program.encode([bad])


class TestBatchedScheduler:
    def test_raw_mode_matches_record_mode(self):
        algorithm = _algorithm(path_of_committees(4), "cc2", "tree")
        program = compile_program(algorithm, AlwaysRequestingEnvironment(1))
        lanes = 5

        def run(record):
            initials = [algorithm.initial_configuration() for _ in range(lanes)]
            daemons = [default_daemon(seed=k) for k in range(lanes)]
            scheduler = BatchedScheduler(program, initials, daemons, record=record)
            results = scheduler.run(150)
            finals = [
                r.configuration
                if record
                else scheduler.program.decode_lane(scheduler.state, r.lane)
                for r in results
            ]
            return [(r.steps, r.rounds, r.terminated, r.stop_reason) for r in results], finals

        recorded, rec_finals = run(record=True)
        raw, raw_finals = run(record=False)
        assert recorded == raw
        assert rec_finals == raw_finals

    def test_raw_mode_has_no_traces(self):
        algorithm = _algorithm()
        program = compile_program(algorithm, AlwaysRequestingEnvironment(1))
        scheduler = BatchedScheduler(
            program,
            [algorithm.initial_configuration()],
            [SynchronousDaemon()],
            record=False,
        )
        (result,) = scheduler.run(20)
        assert result.trace is None and result.configuration is None
        assert result.steps == 20

    def test_listeners_require_record_mode(self):
        algorithm = _algorithm()
        program = compile_program(algorithm, AlwaysRequestingEnvironment(1))
        with pytest.raises(ValueError, match="record=True"):
            BatchedScheduler(
                program,
                [algorithm.initial_configuration()],
                [SynchronousDaemon()],
                step_listeners=[()],
                record=False,
            )

    def test_listener_stop_run_halts_only_its_lane(self):
        algorithm = _algorithm()
        program = compile_program(algorithm, AlwaysRequestingEnvironment(1))
        initials = [algorithm.initial_configuration() for _ in range(3)]
        daemons = [SynchronousDaemon() for _ in range(3)]

        def stopper(configuration, record):
            if record is not None and record.index >= 4:
                raise StopRun("early-stop")

        scheduler = BatchedScheduler(
            program,
            initials,
            daemons,
            step_listeners=[None, (stopper,), None],
            record=True,
        )
        results = scheduler.run(30)
        assert results[1].stop_reason == "early-stop"
        assert results[1].steps == 5  # stopped after committing step index 4
        assert not results[1].terminated
        for lane in (0, 2):
            assert results[lane].stop_reason in ("max_steps", "terminal")
            assert results[lane].steps > results[1].steps

    def test_fault_injection_bumps_lane_epoch(self):
        algorithm = _algorithm()
        program = compile_program(algorithm, AlwaysRequestingEnvironment(1))
        lanes = 2
        initials = [algorithm.initial_configuration() for _ in range(lanes)]
        daemons = [default_daemon(seed=k) for k in range(lanes)]
        injectors = [
            FaultInjector(algorithm, fraction=1.0, seed=1),
            None,  # lane 1 rides the same schedule but is never corrupted
        ]
        records = []

        def record_lane_0(configuration, record):
            if record is not None:
                records.append(record)

        scheduler = BatchedScheduler(
            program, initials, daemons, injectors=injectors, fault_every=10,
            step_listeners=[(record_lane_0,), ()],
        )
        results = scheduler.run(35)
        assert results[0].epoch >= 3  # bursts at steps 10, 20, 30
        assert results[1].epoch == 0
        # The epoch travels in the step deltas after each swap.
        deltas = [record.delta.epoch for record in records]
        assert max(deltas) == results[0].epoch

    def test_arbitrary_starts_encode_round_trip(self):
        algorithm = _algorithm(algorithm="cc3", token="ring")
        program = compile_program(algorithm, BurstyRequestEnvironment(5, 3, 1))
        initials = [arbitrary_configuration(algorithm, seed=k) for k in range(4)]
        state = program.encode(initials)
        for lane, initial in enumerate(initials):
            assert program.decode_lane(state, lane) == initial


class TestCampaignGrouping:
    def test_group_key_ignores_only_index_and_seed(self):
        a = _job(index=0, seed=1)
        b = _job(index=7, seed=12)
        c = _job(index=8, seed=12, daemon="synchronous")
        assert group_key(a) == group_key(b)
        assert group_key(a) != group_key(c)

    def test_consecutive_same_cell_jobs_share_a_group(self):
        jobs = [_job(index=k, seed=k) for k in range(6)]
        groups = group_jobs(jobs)
        assert [len(g) for g in groups] == [6]

    def test_non_batched_jobs_stay_singletons(self):
        jobs = [
            _job(index=0, seed=0),
            _job(index=1, seed=1, engine="incremental"),
            _job(index=2, seed=2),
        ]
        groups = group_jobs(jobs)
        # The incremental job splits the batched run: order preservation
        # beats merging across it.
        assert [len(g) for g in groups] == [1, 1, 1]

    def test_groups_cap_at_max_lanes(self):
        jobs = [_job(index=k, seed=k) for k in range(MAX_GROUP_LANES + 3)]
        groups = group_jobs(jobs)
        assert [len(g) for g in groups] == [MAX_GROUP_LANES, 3]

    def test_execute_job_routes_batched(self):
        result = execute_job(_job())
        assert result.row["engine"] == "batched"
        assert result.row["status"] in ("ok", "violation")

    def test_group_rows_match_solo_rows(self):
        jobs = [_job(index=k, seed=k) for k in range(5)]
        grouped = execute_job_group(jobs)
        for job, result in zip(jobs, grouped):
            solo = execute_job(job)
            assert result.output_row() == solo.output_row()

    def test_fallback_preserves_engine_identity_field(self):
        # Probabilistic env is outside coverage: the group falls back to
        # solo incremental runs, but the row still says engine="batched" —
        # identity describes the matrix cell.
        jobs = [_job(index=k, seed=k, environment="probabilistic:0.6") for k in range(3)]
        results = execute_job_group(jobs)
        for job, result in zip(jobs, results):
            assert result.row["engine"] == "batched"
            assert result.row["status"] in ("ok", "violation")
            incremental = execute_job(
                RunJob(**{**job.__dict__, "engine": "incremental"})
            )
            expected = dict(incremental.output_row())
            expected["engine"] = "batched"
            assert result.output_row() == expected

    def test_rows_serialize_to_valid_json(self):
        result = execute_job(_job(seed=3))
        line = json.dumps(result.output_row(), sort_keys=True)
        assert json.loads(line)["seed"] == 3
