"""Row sinks: where campaign rows go *while the campaign is still running*.

PR 4's campaign buffered every row in memory and wrote the JSONL once, at
the end — so a crash at job 9,999 of 10,000 lost everything.  A
:class:`RowSink` receives each row from the driver's collect stage **in
completion order**, the moment its job finishes; the ``"job"`` index
travels in-row, so any consumer (or the resume module) can map a partial
stream back to the matrix.  The driver never reorders before the sink —
job-order output is restored by the *final rewrite* of the finalize stage
once the campaign completes (see :mod:`repro.campaign.resume` and
docs/ARCHITECTURE.md, "Persistence & resume").  A campaign, or one
``--shard`` slice of it, streams into a :class:`JsonlSink` (``--out``).

Sinks are deliberately dumb: ``write_row(row)`` then ``close()``.  An
*unopened* :class:`JsonlSink` pickles (so a sink configuration can travel
to another process before any file handle exists); an **active** one
refuses to pickle instead of silently dropping its handle.
``tests/test_campaign_persistence.py`` pins both.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Iterable, List, Optional, TextIO


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

    The campaign's final job-order rewrite must never be able to destroy
    completed rows: the old file — the crash-safe completion-order stream —
    stays untouched until the new bytes are fully on disk, so a crash
    mid-rewrite leaves a file ``--resume`` can still finish from.
    ``lines`` may be a generator; an
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
