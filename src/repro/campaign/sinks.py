"""Row sinks: where campaign rows go *while the campaign is still running*.

PR 4's campaign buffered every row in memory and wrote the JSONL once, at
the end — so a crash at job 9,999 of 10,000 lost everything.  A
:class:`RowSink` receives each row from the driver's collect stage **in
completion order**, the moment its job finishes; the ``"job"`` index
travels in-row, so any consumer (or the resume module) can map a partial
stream back to the matrix.  The driver never reorders before the sink —
job-order output is restored by the *final rewrite* of the finalize stage
once the campaign completes (see :mod:`repro.campaign.resume` and
docs/ARCHITECTURE.md, "Persistence & resume").  A local campaign streams
into a :class:`JsonlSink` (``--out``); a shard streams into an
:class:`AckingSocketSink` (``--collector``).

Sinks are deliberately dumb: ``write_row(row)`` then ``close()``.  All of
them are module-top-level classes whose *unopened* instances pickle (so a
sink configuration can travel to a coordinating process before any file
handle or socket exists); an **active** sink refuses to pickle instead of
silently dropping its handle.  ``tests/test_campaign_persistence.py`` and
``tests/test_campaign_shard.py`` pin both.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence, TextIO


class ShardProtocolError(RuntimeError):
    """The other end of a shard/collector connection broke the protocol.

    Raised for permanent failures — a collector that rejected the handshake
    (mismatched matrix), a malformed reply, a refused row — that no amount
    of reconnecting can repair.  Transient transport failures surface as
    :class:`ConnectionError` instead, after the reconnect budget is spent.
    """


def parse_address(address: str):
    """Parse ``"tcp:HOST:PORT"`` / ``"unix:PATH"`` into ``(family, target)``."""
    kind, _, rest = address.partition(":")
    if kind == "unix" and rest:
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
            raise ValueError("unix sockets are not supported on this platform")
        return socket.AF_UNIX, rest
    if kind == "tcp" and rest:
        host, sep, port = rest.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"bad socket sink address {address!r}: expected 'tcp:HOST:PORT'"
            )
        return socket.AF_INET, (host, int(port))
    raise ValueError(
        f"bad socket sink address {address!r}: expected 'tcp:HOST:PORT' or 'unix:PATH'"
    )


def row_line(row: Dict[str, object]) -> str:
    """The canonical serialization of one row: sorted-key JSON, one line.

    Every writer in the campaign layer — streaming sinks, the final
    job-order rewrite, the resume round-trip — goes through this one
    function, which is what makes "resume then rewrite" byte-identical to
    an uninterrupted run.
    """
    return json.dumps(row, sort_keys=True)


class RowSink:
    """Protocol base: receives rows in completion order, then ``close()``.

    Subclasses override :meth:`write_row`; ``close`` is idempotent and the
    class is its own context manager, so ``with JsonlSink(path) as sink:``
    flushes and releases resources even when the campaign dies mid-drain.
    """

    def write_row(self, row: Dict[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "RowSink":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


class BufferedSink(RowSink):
    """The in-memory sink: collects rows in a list (completion order)."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, object]] = []

    def write_row(self, row: Dict[str, object]) -> None:
        self.rows.append(row)


class JsonlSink(RowSink):
    """Append-only, line-buffered JSONL file sink.

    Each row is written as one sorted-key JSON line and flushed
    immediately, so the file on disk is always a valid prefix of the
    campaign (plus at most one truncated tail line if the process died
    mid-``write``) — exactly what :func:`repro.campaign.resume.read_rows`
    is built to re-ingest.  ``append=True`` continues an existing file
    (the resume path); the default truncates.

    Opening in append mode first drops a non-newline-terminated tail line —
    the artifact of a previous process dying mid-``write``.  Appending the
    first resumed row straight after such a tail would splice two rows into
    one corrupt *mid-stream* line, which ``parse_rows`` rejects (its one
    tolerated defect is a truncated *final* line) and the next resume would
    then fail on.
    """

    def __init__(self, path: str, append: bool = False) -> None:
        self.path = path
        self.append = append
        self._fh: Optional[TextIO] = None

    def _ensure_open(self) -> TextIO:
        if self._fh is None:
            if self.append:
                _truncate_partial_tail(self.path)
            self._fh = open(
                self.path, "a" if self.append else "w", buffering=1, encoding="utf-8"
            )
        return self._fh

    def write_row(self, row: Dict[str, object]) -> None:
        fh = self._ensure_open()
        fh.write(row_line(row) + "\n")
        fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __getstate__(self) -> Dict[str, object]:
        if self._fh is not None:
            raise TypeError("cannot pickle a JsonlSink with an open file handle")
        return self.__dict__.copy()


def write_lines_atomic(path: str, lines: Iterable[str]) -> None:
    """Replace ``path`` with ``lines`` atomically (temp file + ``os.replace``).

    The campaign's final job-order rewrite (and the collector's merge dump)
    must never be able to destroy completed rows: the old file — the
    crash-safe completion-order stream — stays untouched until the new
    bytes are fully on disk, so a crash mid-rewrite leaves a file
    ``--resume`` can still finish from.  ``lines`` may be a generator; an
    exception while it is being consumed (including ``KeyboardInterrupt``)
    removes the temp file and leaves the target as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rows-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - already gone
            pass
        raise


def _truncate_partial_tail(path: str) -> None:
    """Cut a file back to its last complete (newline-terminated) line.

    The same recovery :func:`repro.campaign.resume.parse_rows` applies on
    read — drop the one row that was mid-write when the process died —
    performed in place so the file can be safely appended to.
    """
    try:
        fh = open(path, "rb+")
    except FileNotFoundError:
        return
    with fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        position = size
        while position > 0:
            step = min(4096, position)
            fh.seek(position - step)
            chunk = fh.read(step)
            newline = chunk.rfind(b"\n")
            if newline != -1:
                fh.truncate(position - step + newline + 1)
                return
            position -= step
        fh.truncate(0)  # the whole file was one partial line


class AckingSocketSink(RowSink):
    """The shard transport: rows over TCP or a Unix socket, acked and reconnecting.

    ``address`` is ``"tcp:HOST:PORT"`` or ``"unix:PATH"``.  The connection
    is opened lazily on the first exchange, so construction stays cheap and
    picklable.  This is the transport between a campaign shard and a
    `repro.campaign.shard` collector, so delivery is confirmed and failure
    is loud:

    * every outbound line expects exactly one NDJSON reply line — a row is
      only considered delivered once the collector's ``{"op": "ack", ...}``
      for its job index arrives;
    * a broken connection is rebuilt (fresh socket, ``hello`` handshake
      replayed, the in-flight line re-sent) up to ``retries`` times with a
      short linear backoff — re-sending after a lost ack can hand the
      collector a duplicate row, which is safe because rows are
      deterministic and the collector keeps the latest copy per job index;
    * once the reconnect budget is spent, :class:`ConnectionError` is
      raised — a shard that lost its collector must die loudly so the
      collector re-dispatches its unacknowledged range, not stream rows
      into the void.

    ``hello`` (optional) is a control message sent first on every (re)connect;
    the collector must answer ``{"op": "welcome", ...}`` or the handshake
    raises :class:`ShardProtocolError` (a rejection is permanent — it means
    the shard's matrix does not match the collector's).
    """

    def __init__(
        self,
        address: str,
        hello: Optional[Dict[str, object]] = None,
        retries: int = 3,
        retry_delay: float = 0.2,
    ) -> None:
        self.address = address
        self._family, self._target = parse_address(address)
        self.hello = dict(hello) if hello is not None else None
        self.retries = retries
        self.retry_delay = retry_delay
        self.welcome: Optional[Dict[str, object]] = None
        self._sock: Optional[socket.socket] = None
        self._reader = None

    def _ensure_connected(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.socket(self._family, socket.SOCK_STREAM)
            try:
                self._sock.connect(self._target)
                self._reader = self._sock.makefile("r", encoding="utf-8")
                if self.hello is not None:
                    self._sock.sendall(
                        (json.dumps(self.hello, sort_keys=True) + "\n").encode("utf-8")
                    )
                    self.welcome = self._read_reply()
                    if self.welcome.get("op") != "welcome":
                        raise ShardProtocolError(
                            f"collector at {self.address} did not welcome the "
                            f"shard: {self.welcome!r}"
                        )
            except BaseException:
                self.close()
                raise
        return self._sock

    def _read_reply(self) -> Dict[str, object]:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("collector closed the connection")
        try:
            reply = json.loads(line)
        except ValueError as exc:
            raise ShardProtocolError(
                f"collector at {self.address} sent a non-JSON reply: {line!r}"
            ) from exc
        if not isinstance(reply, dict):
            raise ShardProtocolError(
                f"collector at {self.address} sent a non-object reply: {reply!r}"
            )
        if reply.get("op") == "reject":
            raise ShardProtocolError(
                f"collector at {self.address} rejected the shard: {reply.get('error')}"
            )
        return reply

    def _exchange(self, line: str) -> Dict[str, object]:
        """Send one line, read one reply, reconnecting on transport failure."""
        last: Optional[OSError] = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.retry_delay * attempt)
            try:
                self._ensure_connected()
                self._sock.sendall(line.encode("utf-8"))
                return self._read_reply()
            except OSError as exc:
                last = exc
                self.close()
        raise ConnectionError(
            f"lost the collector at {self.address} after {self.retries + 1} "
            f"attempt(s): {last}"
        )

    def request(self, message: Dict[str, object]) -> Dict[str, object]:
        """Send a control message (``pull``, ...) and return the reply."""
        return self._exchange(json.dumps(message, sort_keys=True) + "\n")

    def write_row(self, row: Dict[str, object]) -> None:
        reply = self._exchange(row_line(row) + "\n")
        if reply.get("op") != "ack" or reply.get("job") != row.get("job"):
            raise ShardProtocolError(
                f"collector at {self.address} answered row {row.get('job')!r} "
                f"with {reply!r} instead of its ack"
            )

    def close(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:  # pragma: no cover - best-effort release
                pass
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __getstate__(self) -> Dict[str, object]:
        if self._sock is not None:
            raise TypeError("cannot pickle an AckingSocketSink with an open connection")
        return self.__dict__.copy()


class TeeSink(RowSink):
    """Fan one row stream out to several sinks (e.g. JSONL file + socket)."""

    def __init__(self, sinks: Sequence[RowSink]) -> None:
        self.sinks = list(sinks)

    def write_row(self, row: Dict[str, object]) -> None:
        for sink in self.sinks:
            sink.write_row(row)

    def close(self) -> None:
        # Every sink gets its close() even when an earlier one raises —
        # stopping at the first error would leak every later handle/socket.
        first: Optional[Exception] = None
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as exc:
                if first is None:
                    first = exc
        if first is not None:
            raise first

