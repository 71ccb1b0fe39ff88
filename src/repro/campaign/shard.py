"""Multi-machine campaign sharding: the collector service and shard client.

One campaign, many machines: every participant expands the **same** matrix
(same CLI flags), so a job index names the same :class:`~repro.campaign.jobs.RunJob`
everywhere and only indices, rows and small control messages ever travel.
The :class:`Collector` listens on a TCP/Unix socket, shards connect with an
:class:`~repro.campaign.sinks.AckingSocketSink` and stream their rows back;
the collector validates each row against the expanded matrix
(:func:`~repro.campaign.resume.validate_row_matches_job`), keeps the latest
copy per job index and, once every index has a row, writes the merged
campaign — byte-identical to the same matrix run locally with ``--jobs 1``,
because every row is a pure function of its job and every writer serializes
through :func:`~repro.campaign.sinks.row_line`.

Wire protocol (NDJSON, one JSON object per line, both directions):

* control messages carry an ``"op"`` key (schemas in
  :data:`CONTROL_SCHEMAS`); anything without ``"op"`` is a campaign row,
* ``hello`` -> ``welcome``/``reject``: the handshake pins the matrix — job
  count plus :func:`matrix_fingerprint` over every job's identity block —
  so a shard launched with different flags is rejected instead of merging
  garbage,
* row -> ``ack``: a shard treats a row as delivered only once its ack
  arrives; re-sending after a lost ack may duplicate a row, which is safe
  because rows are deterministic and the collector keeps the latest copy,
* ``pull`` -> ``grant``: pull-mode shards ask for the next batch of job
  indices; a ``grant`` with ``done=true`` ends the shard.

Dispatch and failure: a static shard (``--shard I/N``) declares its
:func:`~repro.campaign.driver.shard_slice` range in the hello and the
collector leases it; a pull shard leases batches on demand.  When a shard's
connection drops, its leases are released and the undelivered indices are
recomputed with the *resume* machinery
(:func:`~repro.campaign.resume.remaining_jobs` over the collected rows) —
dead-shard recovery is literally "resume, over the network", no second
bookkeeping scheme to trust.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.jobs import ROW_IDENTITY_ATTRS, RunJob
from repro.campaign.resume import (
    ResumeError,
    is_job_index,
    remaining_jobs,
    validate_row_matches_job,
)
from repro.campaign.sinks import ShardProtocolError, parse_address, row_line

#: op -> the exact key set of that control message.  Every key is always
#: present (``hello``'s ``range`` is ``null`` for a pull shard rather than
#: absent), so conformance is an equality check, not a subset dance;
#: :func:`control_message` enforces it on build and :func:`validate_control`
#: on receipt, and ``tests/test_campaign_shard.py::TestControlProtocol``
#: asserts the registry itself stays consistent with what is exchanged.
CONTROL_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    "hello": ("op", "shard", "jobs", "fingerprint", "range"),
    "welcome": ("op", "jobs", "pending"),
    "reject": ("op", "error"),
    "pull": ("op", "max"),
    "grant": ("op", "jobs", "done"),
    "ack": ("op", "job"),
}

#: Default number of jobs a pull-mode shard requests per ``pull``.
DEFAULT_PULL_BATCH = 4


def control_message(op: str, **fields: object) -> Dict[str, object]:
    """Build an ``op`` control message, enforcing its registered schema."""
    message: Dict[str, object] = {"op": op}
    message.update(fields)
    validate_control(message)
    return message


def validate_control(message: Dict[str, object]) -> None:
    """Raise :class:`ShardProtocolError` unless ``message`` fits its schema."""
    op = message.get("op")
    schema = CONTROL_SCHEMAS.get(str(op))
    if schema is None:
        raise ShardProtocolError(f"unknown control op {op!r}")
    if set(message) != set(schema):
        raise ShardProtocolError(
            f"malformed {op!r} control message: has keys "
            f"{sorted(message)}, schema requires {sorted(schema)}"
        )


def matrix_fingerprint(jobs: Sequence[RunJob]) -> str:
    """sha256 over every job's identity block, in job order.

    Two processes that expanded the same campaign flags agree on this
    digest; any drift — scenario list, seed range, step budget, axis order —
    changes it.  Serialized via :func:`row_line` (sorted-key JSON), the same
    canonical form the rows themselves use.
    """
    digest = hashlib.sha256()
    for job in jobs:
        identity = {key: getattr(job, attr) for key, attr in ROW_IDENTITY_ATTRS.items()}
        digest.update(row_line(identity).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def hello_message(
    jobs: Sequence[RunJob],
    shard: Optional[str] = None,
    job_range: Optional[Tuple[int, int]] = None,
) -> Dict[str, object]:
    """The handshake a shard opens every (re)connect with.

    ``job_range`` is the half-open ``[low, high)`` static range this shard
    will run (``None`` for a pull shard).  Replaying the hello on reconnect
    is idempotent: the collector re-leases whatever of the range is still
    undelivered.
    """
    return control_message(
        "hello",
        shard=shard,
        jobs=len(jobs),
        fingerprint=matrix_fingerprint(jobs),
        range=list(job_range) if job_range is not None else None,
    )


@dataclass(eq=False)
class ShardRecord:
    """One connected shard, as the collector sees it.

    ``eq=False`` keeps dataclass identity semantics: two shards announcing
    the same name are still two distinct lease holders (a reconnect is a new
    record; the old one released its leases when its connection died).
    """

    name: str
    static: bool
    delivered: int = field(default=0)


class CollectorState:
    """The collector's thread-shared ledger: rows collected, indices leased.

    All mutation happens under one condition variable; handler threads block
    in :meth:`lease` until work frees up (a shard died and released its
    leases) or the campaign completes.  "What is left to run" is always
    *recomputed* from the collected rows via
    :func:`~repro.campaign.resume.remaining_jobs` — the same machinery
    ``--resume`` uses on a partial file — minus the currently leased
    indices, so dead-shard re-dispatch needs no recovery logic of its own.
    """

    def __init__(self, jobs: Sequence[RunJob]) -> None:
        self.jobs = list(jobs)
        self.by_index: Dict[int, RunJob] = {job.index: job for job in self.jobs}
        self.fingerprint = matrix_fingerprint(self.jobs)
        self.rows: Dict[int, Dict[str, object]] = {}
        self.shards: List[ShardRecord] = []
        self._leases: Dict[ShardRecord, set] = {}
        self._cond = threading.Condition()
        self._shutdown = False

    @property
    def done(self) -> bool:
        return len(self.rows) >= len(self.jobs)

    def pending_count(self) -> int:
        """Jobs without a collected row yet (leased or not)."""
        with self._cond:
            return len(self.jobs) - len(self.rows)

    def _unleased_pending(self) -> List[int]:
        # Caller holds the lock.  Sorted job order falls out of
        # remaining_jobs (which walks ``self.jobs`` in order).
        leased: set = set()
        for indices in self._leases.values():
            leased.update(indices)
        return [
            job.index
            for job in remaining_jobs(self.jobs, self.rows.values())
            if job.index not in leased
        ]

    def register(self, shard: ShardRecord) -> None:
        with self._cond:
            self.shards.append(shard)
            self._leases[shard] = set()

    def preload(self, row: Dict[str, object]) -> bool:
        """Adopt a row from a prior run (``collect --resume``).

        Returns False for rows outside the matrix (e.g. adaptive re-run rows
        appended past the base matrix by a previous campaign); identity
        mismatches raise :class:`~repro.campaign.resume.ResumeError` exactly
        as ``--resume`` would.
        """
        index = int(row["job"])
        job = self.by_index.get(index)
        if job is None:
            return False
        validate_row_matches_job(job, row)
        with self._cond:
            self.rows[index] = dict(row)
            self._cond.notify_all()
        return True

    def lease(self, shard: ShardRecord, limit: int) -> Tuple[List[int], bool]:
        """Grant up to ``limit`` pending job indices; block while none exist.

        Returns ``([], True)`` once every job has a row (or the collector is
        shutting down) — the shard's signal to finish.  Blocks while all
        undelivered indices are leased to other shards: if one of them dies,
        its release wakes this waiter and the indices are re-dispatched.
        """
        with self._cond:
            while True:
                if self.done or self._shutdown:
                    return [], True
                pending = self._unleased_pending()
                if pending:
                    granted = pending[: max(1, limit)]
                    self._leases[shard].update(granted)
                    return granted, False
                self._cond.wait(timeout=0.5)

    def lease_range(self, shard: ShardRecord, low: int, high: int) -> List[int]:
        """Lease the still-pending, unleased indices of a static ``[low, high)``."""
        with self._cond:
            granted = [
                index for index in self._unleased_pending() if low <= index < high
            ]
            self._leases[shard].update(granted)
            return granted

    def deliver(self, shard: ShardRecord, row: Dict[str, object]) -> int:
        """Validate and store one row from ``shard``; returns its job index.

        Raises :class:`ShardProtocolError` for rows outside the matrix and
        :class:`~repro.campaign.resume.ResumeError` for identity mismatches.
        Duplicates (re-sent after a lost ack, or a re-dispatched range racing
        its not-quite-dead original shard) overwrite — rows are deterministic,
        so the latest copy is the same copy.
        """
        index = row.get("job")
        if not is_job_index(index):
            raise ShardProtocolError(
                f"row without an integer 'job' index: {sorted(row)!r}"
            )
        job = self.by_index.get(index)
        if job is None:
            raise ShardProtocolError(
                f"row for job {index} is outside the {len(self.jobs)}-job matrix"
            )
        validate_row_matches_job(job, row)
        with self._cond:
            self.rows[index] = dict(row)
            for indices in self._leases.values():
                indices.discard(index)
            shard.delivered += 1
            self._cond.notify_all()
        return index

    def release(self, shard: ShardRecord) -> None:
        """Return a disconnected shard's undelivered leases to the pool."""
        with self._cond:
            indices = self._leases.pop(shard, set())
            if indices:
                self._cond.notify_all()

    def wait_done(self, timeout: Optional[float] = None) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self.done, timeout=timeout)

    def shutdown(self) -> None:
        """Unblock every waiter; subsequent leases grant ``([], True)``."""
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()

    def merged_rows(self) -> List[Dict[str, object]]:
        """The collected rows, in job-index order."""
        with self._cond:
            return [self.rows[index] for index in sorted(self.rows)]


class Collector:
    """The merge point: accept shards, collect rows, finish when all are in.

    One accept loop (polling, so :meth:`close` can stop it) plus one daemon
    handler thread per connection; all shared state lives in
    :class:`CollectorState`.  Usage::

        collector = Collector(jobs, "tcp:0.0.0.0:7777")
        rows = collector.run()          # blocks until every job has a row

    or non-blocking: :meth:`start`, poll ``state``, :meth:`close`.  The
    bound address (with the kernel-assigned port for ``tcp:HOST:0``) is
    :attr:`address` once started.
    """

    def __init__(
        self,
        jobs: Sequence[RunJob],
        listen: str,
        prior_rows: Optional[Iterable[Dict[str, object]]] = None,
    ) -> None:
        self.state = CollectorState(jobs)
        self.skipped_prior = 0
        for row in prior_rows or ():
            if not self.state.preload(row):
                self.skipped_prior += 1
        self._family, self._target = parse_address(listen)
        self._configured = listen
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self._closing = False

    @property
    def address(self) -> str:
        """The connectable address — actual port resolved for ``tcp:HOST:0``."""
        if self._listener is None or self._family != socket.AF_INET:
            return self._configured
        host, port = self._listener.getsockname()[:2]
        return f"tcp:{host}:{port}"

    def start(self) -> "Collector":
        if self._listener is not None:
            return self
        listener = socket.socket(self._family, socket.SOCK_STREAM)
        try:
            if self._family == socket.AF_INET:
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            else:
                try:
                    os.unlink(self._target)
                except OSError:
                    pass
            listener.bind(self._target)
            listener.listen(16)
            # Polling accept: the loop re-checks _closing between accepts,
            # so close() stops it without needing a poke connection.
            listener.settimeout(0.2)
        except BaseException:
            listener.close()
            raise
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="collector-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _peer = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            handler = threading.Thread(
                target=self._serve, args=(conn,), name="collector-shard", daemon=True
            )
            self._handlers.append(handler)
            handler.start()

    def run(self, timeout: Optional[float] = None) -> List[Dict[str, object]]:
        """Serve until every job has a row; return the merged rows.

        ``timeout`` (seconds) raises :class:`TimeoutError` instead of
        waiting forever — the campaign's rows so far stay in ``state``.
        """
        self.start()
        try:
            if not self.state.wait_done(timeout=timeout):
                raise TimeoutError(
                    f"collector timed out with {self.state.pending_count()} of "
                    f"{len(self.state.jobs)} job(s) still missing"
                )
        finally:
            self.close()
        return self.state.merged_rows()

    def close(self) -> None:
        self._closing = True
        self.state.shutdown()
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        # Let in-flight handlers flush their final acks before returning
        # (shards block on the ack of their last row).
        for handler in self._handlers:
            handler.join(timeout=5.0)
        self._handlers = []
        if self._listener is not None:
            self._listener = None
            if self._family != socket.AF_INET:
                try:
                    os.unlink(self._target)
                except OSError:
                    pass

    def __enter__(self) -> "Collector":
        return self.start()

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- per-connection protocol -------------------------------------------

    @staticmethod
    def _send(conn: socket.socket, message: Dict[str, object]) -> None:
        conn.sendall((row_line(message) + "\n").encode("utf-8"))

    def _hello_error(self, hello: Dict[str, object]) -> Optional[str]:
        """Why this handshake must be rejected, or None if it is sound."""
        if hello.get("op") != "hello":
            return f"expected a hello handshake, got op {hello.get('op')!r}"
        try:
            validate_control(hello)
        except ShardProtocolError as exc:
            return str(exc)
        if hello["jobs"] != len(self.state.jobs):
            return (
                f"matrix size mismatch: shard expanded {hello['jobs']} job(s), "
                f"collector has {len(self.state.jobs)} — were both started "
                "with the same campaign flags?"
            )
        if hello["fingerprint"] != self.state.fingerprint:
            return (
                "matrix fingerprint mismatch: the shard's expanded jobs are "
                "not the collector's (same scenarios/axes/seeds/steps on "
                "every participant?)"
            )
        job_range = hello["range"]
        if job_range is not None:
            if (
                not isinstance(job_range, list)
                or len(job_range) != 2
                or not all(isinstance(edge, int) for edge in job_range)
                or not 0 <= job_range[0] <= job_range[1] <= len(self.state.jobs)
            ):
                return (
                    f"bad static range {job_range!r}: expected [low, high] "
                    f"with 0 <= low <= high <= {len(self.state.jobs)}"
                )
        return None

    def _serve(self, conn: socket.socket) -> None:
        reader = conn.makefile("r", encoding="utf-8")
        shard: Optional[ShardRecord] = None
        try:
            line = reader.readline()
            if not line:
                return
            try:
                hello = json.loads(line)
                if not isinstance(hello, dict):
                    raise ValueError("not a JSON object")
            except ValueError as exc:
                self._send(conn, control_message("reject", error=f"bad handshake: {exc}"))
                return
            error = self._hello_error(hello)
            if error is not None:
                self._send(conn, control_message("reject", error=error))
                return
            shard = ShardRecord(
                name=str(hello["shard"] or f"shard-{len(self.state.shards) + 1}"),
                static=hello["range"] is not None,
            )
            self.state.register(shard)
            if hello["range"] is not None:
                low, high = hello["range"]
                self.state.lease_range(shard, low, high)
            self._send(
                conn,
                control_message(
                    "welcome",
                    jobs=len(self.state.jobs),
                    pending=self.state.pending_count(),
                ),
            )
            self._exchange_loop(conn, reader, shard)
        except OSError:
            # The client vanished mid-read or mid-reply; the release below
            # returns its leases for re-dispatch — nothing else to do.
            pass
        finally:
            if shard is not None:
                self.state.release(shard)
            try:
                reader.close()
            except OSError:  # pragma: no cover - best-effort release
                pass
            conn.close()

    def _exchange_loop(
        self, conn: socket.socket, reader, shard: ShardRecord
    ) -> None:
        """Answer rows with acks and pulls with grants until EOF."""
        while True:
            line = reader.readline()
            if not line:
                return  # shard closed its end: its work is done (or it died)
            try:
                message = json.loads(line)
                if not isinstance(message, dict):
                    raise ValueError("not a JSON object")
            except ValueError as exc:
                self._send(conn, control_message("reject", error=f"bad line: {exc}"))
                return
            op = message.get("op")
            if op is None:  # no "op" key: a campaign row
                try:
                    index = self.state.deliver(shard, message)
                except (ResumeError, ShardProtocolError) as exc:
                    self._send(conn, control_message("reject", error=str(exc)))
                    return
                self._send(conn, control_message("ack", job=index))
            elif op == "pull":
                try:
                    validate_control(message)
                    limit = int(message["max"])
                except (ShardProtocolError, TypeError, ValueError) as exc:
                    self._send(conn, control_message("reject", error=str(exc)))
                    return
                granted, done = self.state.lease(shard, limit)
                self._send(
                    conn, control_message("grant", jobs=granted, done=done)
                )
            else:
                self._send(
                    conn,
                    control_message("reject", error=f"unexpected op {op!r}"),
                )
                return
