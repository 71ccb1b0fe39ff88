"""Tests for the multi-machine sharding layer: protocol, collector, client.

The acceptance property of the whole subsystem lives at the bottom
(``TestShardedCampaignEndToEnd``): an in-process collector fed by three
real ``repro-cc campaign --collector`` shard *processes*, one of which is
SIGKILLed mid-range so its undelivered jobs are re-dispatched to the
survivors, produces a merged campaign byte-identical to the same matrix
run locally with ``--jobs 1``.  Everything above it exercises the parts in
isolation: the NDJSON control-message schemas, the matrix-fingerprint
handshake, the lease ledger (:class:`CollectorState`), dead-shard release
and re-dispatch, and the acking/reconnecting client transport.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.campaign import (
    AckingSocketSink,
    CONTROL_SCHEMAS,
    CampaignDriver,
    CampaignSpec,
    Collector,
    CollectorState,
    ResumeError,
    ShardProtocolError,
    ShardRecord,
    control_message,
    execute_job,
    expand_jobs,
    hello_message,
    matrix_fingerprint,
    shard_slice,
    validate_control,
)
from repro.campaign.jobs import ERROR_ROW_FIELDS, ROW_FIELDS
from repro.campaign.sinks import row_line


def _jobs(seeds=(1, 2), max_steps=60, **overrides):
    defaults = dict(
        scenarios=("figure1",),
        algorithms=("cc1", "cc2"),
        seeds=tuple(seeds),
        max_steps=max_steps,
    )
    defaults.update(overrides)
    return expand_jobs(CampaignSpec(**defaults))


@pytest.fixture(scope="module")
def small_matrix():
    """Four quick jobs plus their executed rows and --jobs 1 baseline."""
    jobs = _jobs()
    baseline = CampaignDriver(jobs).execute()
    rows = {result.index: result.row for result in baseline.results}
    return jobs, rows, baseline.jsonl_lines()


class TestControlProtocol:
    _SAMPLES = {
        "hello": dict(shard="2/3", jobs=4, fingerprint="ab" * 32, range=[2, 4]),
        "welcome": dict(jobs=4, pending=3),
        "reject": dict(error="matrix fingerprint mismatch"),
        "pull": dict(max=4),
        "grant": dict(jobs=[0, 1], done=False),
        "ack": dict(job=0),
    }

    def test_every_registered_op_builds_and_validates(self):
        assert set(self._SAMPLES) == set(CONTROL_SCHEMAS)
        for op, fields in self._SAMPLES.items():
            message = control_message(op, **fields)
            assert set(message) == set(CONTROL_SCHEMAS[op])
            validate_control(message)  # round-trips
            # Rows are distinguishable from control traffic by construction.
            assert "op" in message
        assert "op" not in ROW_FIELDS and "op" not in ERROR_ROW_FIELDS

    def test_malformed_messages_are_rejected(self):
        with pytest.raises(ShardProtocolError, match="unknown control op"):
            validate_control({"op": "barter", "offer": 3})
        with pytest.raises(ShardProtocolError, match="malformed 'ack'"):
            control_message("ack")  # missing the job field
        with pytest.raises(ShardProtocolError, match="malformed 'pull'"):
            control_message("pull", max=4, urgency="high")  # extra field

    def test_matrix_fingerprint_pins_the_expansion(self):
        jobs = _jobs()
        assert matrix_fingerprint(jobs) == matrix_fingerprint(_jobs())
        assert matrix_fingerprint(jobs) != matrix_fingerprint(_jobs(seeds=(1, 3)))
        assert matrix_fingerprint(jobs) != matrix_fingerprint(_jobs(max_steps=61))
        assert matrix_fingerprint(jobs) != matrix_fingerprint(list(reversed(jobs)))

    def test_hello_message_carries_range_or_null(self):
        jobs = _jobs()
        static = hello_message(jobs, shard="1/2", job_range=(0, 2))
        assert static["range"] == [0, 2] and static["jobs"] == len(jobs)
        pull = hello_message(jobs)
        assert pull["range"] is None
        validate_control(static)
        validate_control(pull)


class TestShardSlice:
    def test_slices_partition_the_matrix_in_order(self):
        jobs = _jobs(seeds=(1, 2, 3))  # 6 jobs
        for count in (1, 2, 3, 4, 6, 7):
            slices = [shard_slice(jobs, i, count) for i in range(count)]
            rejoined = [job for part in slices for job in part]
            assert rejoined == list(jobs)
            sizes = [len(part) for part in slices]
            assert max(sizes) - min(sizes) <= 1  # balanced

    def test_bad_shard_arguments_raise(self):
        jobs = _jobs()
        with pytest.raises(ValueError, match="shard count"):
            shard_slice(jobs, 0, 0)
        with pytest.raises(ValueError, match="shard index"):
            shard_slice(jobs, 2, 2)


class TestCollectorState:
    def test_lease_deliver_and_done(self, small_matrix):
        jobs, rows, _ = small_matrix
        state = CollectorState(jobs)
        shard = ShardRecord(name="a", static=True)
        state.register(shard)
        assert state.lease_range(shard, 0, 2) == [0, 1]
        # Leased indices are not handed to anyone else.
        other = ShardRecord(name="b", static=False)
        state.register(other)
        granted, done = state.lease(other, limit=10)
        assert granted == [2, 3] and not done
        for index in (0, 1, 2, 3):
            assert state.deliver(shard, rows[index]) == index
        assert state.done
        # Every shard now gets the finish signal.
        assert state.lease(other, limit=1) == ([], True)
        assert [row["job"] for row in state.merged_rows()] == [0, 1, 2, 3]

    def test_deliver_rejects_foreign_and_out_of_matrix_rows(self, small_matrix):
        jobs, rows, _ = small_matrix
        state = CollectorState(jobs)
        shard = ShardRecord(name="a", static=False)
        state.register(shard)
        with pytest.raises(ShardProtocolError, match="outside the 4-job matrix"):
            state.deliver(shard, {**rows[0], "job": 99})
        imposter = dict(rows[0])
        imposter["scenario"] = "star-5"
        with pytest.raises(ResumeError):
            state.deliver(shard, imposter)
        # Duplicates of a valid row simply overwrite (rows are deterministic).
        state.deliver(shard, rows[0])
        state.deliver(shard, rows[0])
        assert len(state.merged_rows()) == 1

    def test_deliver_is_type_strict(self, small_matrix):
        # ``true == 1`` and ``60.0 == 60`` in Python, but neither row is
        # the one job 1 produces: acking it would merge the wrong bytes.
        jobs, rows, _ = small_matrix
        state = CollectorState(jobs)
        shard = ShardRecord(name="a", static=False)
        state.register(shard)
        with pytest.raises(ShardProtocolError, match="integer 'job' index"):
            state.deliver(shard, {**rows[1], "job": True})
        with pytest.raises(ResumeError, match="max_steps=60.0"):
            state.deliver(shard, {**rows[1], "max_steps": 60.0})
        assert state.rows == {} and shard.delivered == 0

    def test_release_returns_leases_for_redispatch(self, small_matrix):
        jobs, rows, _ = small_matrix
        state = CollectorState(jobs)
        dead = ShardRecord(name="dead", static=True)
        state.register(dead)
        state.lease_range(dead, 0, len(jobs))
        state.deliver(dead, rows[0])
        rescuer = ShardRecord(name="rescue", static=False)
        state.register(rescuer)
        # Everything undelivered is leased to the dead shard: a rescuer
        # blocks until the dead shard's connection handler releases them.
        state.release(dead)
        granted, done = state.lease(rescuer, limit=10)
        assert granted == [1, 2, 3] and not done

    def test_preload_adopts_prior_rows_and_skips_foreign_indices(self, small_matrix):
        jobs, rows, _ = small_matrix
        state = CollectorState(jobs)
        assert state.preload(rows[2])
        assert not state.preload({**rows[0], "job": 999})  # past the matrix
        assert state.pending_count() == len(jobs) - 1


class TestCollectorService:
    def test_static_shards_merge_byte_identical(self, small_matrix):
        jobs, _, baseline = small_matrix
        with Collector(jobs, "tcp:127.0.0.1:0") as collector:
            threads = [
                threading.Thread(
                    target=CampaignDriver(
                        jobs, collector=collector.address, shard=(i, 2)
                    ).execute
                )
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            rows = collector.run(timeout=60)
            for thread in threads:
                thread.join(timeout=10)
        assert [row_line(row) for row in rows] == baseline
        assert len(collector.state.shards) == 2

    def test_pull_shards_merge_byte_identical(self, small_matrix, tmp_path):
        jobs, _, baseline = small_matrix
        address = f"unix:{tmp_path / 'collector.sock'}"
        with Collector(jobs, address) as collector:
            threads = [
                threading.Thread(
                    target=CampaignDriver(
                        jobs, collector=address, batch=1, shard_name=f"puller-{i}"
                    ).execute
                )
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            rows = collector.run(timeout=60)
            for thread in threads:
                thread.join(timeout=10)
        assert [row_line(row) for row in rows] == baseline

    def test_mismatched_matrix_is_rejected(self, small_matrix):
        jobs, _, _ = small_matrix
        with Collector(jobs, "tcp:127.0.0.1:0") as collector:
            with pytest.raises(ShardProtocolError, match="fingerprint mismatch"):
                CampaignDriver(
                    _jobs(max_steps=61), collector=collector.address, retries=0
                ).execute()
            # A matrix of a different size gets the clearer size diagnostic.
            with pytest.raises(ShardProtocolError, match="matrix size mismatch"):
                CampaignDriver(jobs[:2], collector=collector.address, retries=0).execute()
        assert collector.state.rows == {}

    def test_dead_shard_range_is_redispatched(self, small_matrix, tmp_path):
        jobs, rows, baseline = small_matrix
        path = str(tmp_path / "collector.sock")
        with Collector(jobs, f"unix:{path}") as collector:
            # A scripted victim claims the whole matrix, delivers exactly one
            # row, then dies without closing cleanly.
            victim = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            victim.connect(path)
            reader = victim.makefile("r", encoding="utf-8")
            hello = hello_message(jobs, shard="victim", job_range=(0, len(jobs)))
            victim.sendall((row_line(hello) + "\n").encode("utf-8"))
            assert json.loads(reader.readline())["op"] == "welcome"
            victim.sendall((row_line(rows[0]) + "\n").encode("utf-8"))
            ack = json.loads(reader.readline())
            assert ack == {"op": "ack", "job": 0}
            # Die abruptly.  shutdown() forces the FIN out even though the
            # makefile() reader still holds a reference to the socket.
            victim.shutdown(socket.SHUT_RDWR)
            reader.close()
            victim.close()

            # The rescuer's pulls block until the victim's handler notices
            # the dead connection and releases its leases — then the whole
            # undelivered range is re-dispatched here.
            result = CampaignDriver(
                jobs, collector=f"unix:{path}", shard_name="rescue"
            ).execute()
            assert [job_result.index for job_result in result.results] == [1, 2, 3]
            assert collector.state.wait_done(timeout=10)
            merged = collector.state.merged_rows()
        assert [row_line(row) for row in merged] == baseline
        names = [shard.name for shard in collector.state.shards]
        assert names == ["victim", "rescue"]
        assert collector.state.shards[0].delivered == 1

    def test_prior_rows_shrink_the_campaign(self, small_matrix, tmp_path):
        jobs, rows, baseline = small_matrix
        address = f"unix:{tmp_path / 'collector.sock'}"
        stray = {**rows[0], "job": 999}
        collector = Collector(jobs, address, prior_rows=[rows[1], stray])
        assert collector.skipped_prior == 1
        assert collector.state.pending_count() == len(jobs) - 1
        with collector:
            worker = threading.Thread(
                target=CampaignDriver(jobs, collector=address).execute
            )
            worker.start()
            merged = collector.run(timeout=60)
            worker.join(timeout=10)
        assert [row_line(row) for row in merged] == baseline


class TestAckingClient:
    def test_unreachable_collector_raises_connection_error(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        sink = AckingSocketSink(
            f"tcp:127.0.0.1:{port}", retries=1, retry_delay=0.01
        )
        with pytest.raises(ConnectionError, match="after 2 attempt"):
            sink.write_row({"job": 0})
        sink.close()

    def test_reconnect_replays_hello_and_resends_the_row(self, tmp_path):
        # Connection 1 swallows the row and dies before acking; the client
        # must rebuild the transport, replay its hello and re-send.
        path = str(tmp_path / "flaky.sock")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen(2)
        hellos, rows = [], []

        def serve():
            for attempt in range(2):
                conn, _ = server.accept()
                reader = conn.makefile("r", encoding="utf-8")
                hellos.append(json.loads(reader.readline()))
                conn.sendall(b'{"jobs": 1, "op": "welcome", "pending": 1}\n')
                row = json.loads(reader.readline())
                if attempt == 0:
                    # Lost ack: die mid-exchange.  The reader holds a second
                    # reference to the socket, so close it too or no FIN is
                    # ever sent and the client waits forever.
                    reader.close()
                    conn.close()
                    continue
                rows.append(row)
                conn.sendall(
                    (row_line({"op": "ack", "job": row["job"]}) + "\n").encode()
                )
                reader.close()
                conn.close()

        thread = threading.Thread(target=serve)
        thread.start()
        hello = {"op": "hello", "shard": "s", "jobs": 1, "fingerprint": "f", "range": None}
        sink = AckingSocketSink(f"unix:{path}", hello=hello, retry_delay=0.01)
        sink.write_row({"job": 7, "ok": True})
        sink.close()
        thread.join(timeout=10)
        server.close()
        assert len(hellos) == 2 and all(h == hello for h in hellos)
        assert rows == [{"job": 7, "ok": True}]

    def test_open_connection_refuses_pickling_until_closed(self, tmp_path):
        path = str(tmp_path / "acking.sock")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen(1)

        def serve():
            conn, _ = server.accept()
            reader = conn.makefile("r", encoding="utf-8")
            row = json.loads(reader.readline())
            conn.sendall((row_line({"op": "ack", "job": row["job"]}) + "\n").encode())
            reader.readline()  # blocks until the client hangs up
            reader.close()
            conn.close()

        thread = threading.Thread(target=serve)
        thread.start()
        with AckingSocketSink(f"unix:{path}", retry_delay=0.01) as sink:
            sink.write_row({"job": 3, "ok": True})
            # A live connection must never be shipped to another process.
            with pytest.raises(TypeError, match="open connection"):
                pickle.dumps(sink)
        # Leaving the ``with`` block closed the socket: the sink pickles
        # again, and the clone reconnects lazily to the same address.
        clone = pickle.loads(pickle.dumps(sink))
        thread.join(timeout=10)
        server.close()
        assert not thread.is_alive()
        assert isinstance(clone, AckingSocketSink) and clone.address == f"unix:{path}"


class TestShardedCampaignEndToEnd:
    """The PR's acceptance property, at the process level.

    Three real ``repro-cc campaign --collector`` shard processes feed one
    collector: a static shard owning jobs 0-1, and two pull workers.  The
    static shard is SIGKILLed after its first row lands, its undelivered
    range is released and re-dispatched to the pull workers, and the merged
    artifact is byte-identical to the same matrix run with ``--jobs 1``.
    """

    _MATRIX_FLAGS = [
        "--scenario", "figure1", "--algorithm", "cc2",
        "--seeds", "6", "--steps", "1200",
    ]

    def _shard_command(self, address, extra=()):
        return (
            [sys.executable, "-m", "repro", "campaign"]
            + self._MATRIX_FLAGS
            + ["--collector", address]
            + list(extra)
        )

    def test_killed_shard_is_redispatched_and_merge_is_byte_identical(self, tmp_path):
        jobs = expand_jobs(
            CampaignSpec(
                scenarios=("figure1",),
                algorithms=("cc2",),
                seeds=tuple(range(1, 7)),
                max_steps=1200,
            )
        )
        assert len(jobs) == 6
        baseline = CampaignDriver(jobs).execute().jsonl_lines()

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        address = f"unix:{tmp_path / 'collector.sock'}"

        with Collector(jobs, address) as collector:
            victim = subprocess.Popen(
                self._shard_command(address, ["--shard", "1/3"]),
                cwd=str(tmp_path), env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            # Let the victim register (and lease jobs 0-1) before the pull
            # workers connect, so the kill below tears down a shard that
            # really owns an undelivered range.
            deadline = time.monotonic() + 60
            while not collector.state.shards:
                assert time.monotonic() < deadline, "victim never registered"
                assert victim.poll() is None, "victim exited prematurely"
                time.sleep(0.002)
            pullers = [
                subprocess.Popen(
                    self._shard_command(address),
                    cwd=str(tmp_path), env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
                for _ in range(2)
            ]
            try:
                # The victim owns jobs 0-1 (shard 1/3 of 6).  Kill it the
                # moment its first row lands — mid-range, before job 1.
                deadline = time.monotonic() + 60
                while 0 not in collector.state.rows:
                    assert time.monotonic() < deadline, "victim never delivered"
                    assert victim.poll() is None, "victim exited prematurely"
                    time.sleep(0.002)
                victim.kill()
                victim.wait(timeout=30)
                missing = [i for i in (0, 1) if i not in collector.state.rows]
                assert missing, "victim finished its whole range before the kill"

                # The survivors sweep the re-dispatched range to completion.
                assert collector.state.wait_done(timeout=120)
            finally:
                victim.kill()
                for proc in pullers:
                    if collector.state.done:
                        proc.wait(timeout=60)
                    else:
                        proc.kill()
            merged = collector.state.merged_rows()

        assert victim.returncode < 0  # died by signal, not a clean exit
        assert [row_line(row) for row in merged] == baseline
        # All three shard processes registered; the dead one's undelivered
        # jobs were re-dispatched over the same socket, no operator step.
        assert len(collector.state.shards) == 3
        assert collector.state.shards[0].static
        assert collector.state.shards[0].delivered == 1  # killed after row 0
        # Duplicates (re-sent after a lost ack) are protocol-legal, so the
        # total is a floor, not an exact count.
        delivered = sum(shard.delivered for shard in collector.state.shards)
        assert delivered >= len(jobs)
