"""Content-addressed run cache and the per-cell fold of campaign rows.

Two structures over finished rows:

* :class:`CellStats` — folds rows into per-(scenario, algorithm)
  :class:`Cell` aggregates (runs, violations, errors, steps, Jain spread),
  the one aggregation behind the campaign summary table and
  ``repro-cc stats``.

* :class:`RunCache` — a content-addressed cache of completed rows, keyed
  by :func:`run_cache_key`: a sha256 over the row's identity block
  (:data:`CACHE_KEY_ATTRS` — every ``ROW_IDENTITY_ATTRS`` field except the
  ``"job"`` index, which is the row's *position* in a matrix, not part of
  the run's identity).  Because each row is a pure function of its
  :class:`~repro.campaign.jobs.RunJob`, a cache hit IS the row the run
  would produce: :class:`~repro.campaign.driver.CampaignPlan` consults the
  cache before dispatch, and hits short-circuit execution with rows that
  are byte-identical by construction.  Excluding the index from the key
  means the same run shape hits even when it sits at a different position
  (a reshaped matrix, an adaptive re-run appendix, another shard's slice).

Cache safety rules: error rows are never stored (they are transient worker
failures, not run results); ``steps_per_sec`` is stripped before storage
(timing is machine state, not run identity); a corrupt or
identity-mismatched entry is treated as a miss, never as a result —
:func:`~repro.campaign.resume.validate_row_matches_job` re-checks every
hit against the job it is about to stand in for.
``tests/test_campaign_store.py`` asserts the key covers exactly the identity
fields, one field at a time, so a new :class:`~repro.campaign.jobs.RunJob`
axis cannot silently alias cache entries across different runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.campaign.jobs import JobResult, ROW_IDENTITY_ATTRS, RunJob
from repro.campaign.resume import ResumeError, as_job_result, validate_row_matches_job
from repro.campaign.sinks import row_line

#: row key -> :class:`RunJob` attribute hashed into :func:`run_cache_key`.
#: Everything in ``ROW_IDENTITY_ATTRS`` except ``"job"``: the index says
#: *where* a run sits in one particular matrix, while the cache answers
#: "has this run shape ever been executed" across matrices.
#: ``tests/test_campaign_store.py::TestRunCache`` pins this equality and
#: probes per-field key sensitivity, so identity drift bites in tier-1.
CACHE_KEY_ATTRS: Dict[str, str] = {
    key: attr for key, attr in ROW_IDENTITY_ATTRS.items() if key != "job"
}


def run_cache_key(job: RunJob) -> str:
    """sha256 hex over the job's identity block, serialized canonically.

    The hashed text is the :func:`~repro.campaign.sinks.row_line` of the
    identity fields (sorted-key JSON) — the same canonical form the rows
    themselves and the resume validator agree on.
    """
    identity = {key: getattr(job, attr) for key, attr in CACHE_KEY_ATTRS.items()}
    return hashlib.sha256(row_line(identity).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# per-cell fold
# --------------------------------------------------------------------------- #


@dataclass
class Cell:
    """The aggregates of one ``(scenario, algorithm)`` cell."""

    scenario: object
    algorithm: object
    runs: int = 0
    violations: int = 0
    errors: int = 0
    steps: int = 0
    jain_min: Optional[float] = None
    jain_max: Optional[float] = None

    @property
    def jain_spread(self) -> str:
        """The ``min..max`` Jain-index text of the cell's tables, ``-`` if none."""
        if self.jain_min is None:
            return "-"
        return f"{self.jain_min:.3f}..{self.jain_max:.3f}"


class CellStats:
    """Rows folded into per-(scenario, algorithm) :class:`Cell` aggregates.

    The one aggregation behind the campaign summary table and
    ``repro-cc stats``.  Cells keep first-appearance order.  Fields are read
    with ``row.get``: a row missing ``scenario`` or ``algorithm`` folds into
    a ``None`` cell, a missing or null ``steps`` counts 0, and the Jain
    spread covers completed runs with a float ``jain`` only (error rows
    carry no metrics).
    """

    def __init__(self) -> None:
        self._cells: Dict[Tuple[object, object], Cell] = {}

    def write_row(self, row: Dict[str, object]) -> None:
        key = (row.get("scenario"), row.get("algorithm"))
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = Cell(*key)
        cell.runs += 1
        status = row.get("status")
        if status == "violation":
            cell.violations += 1
        elif status == "error":
            cell.errors += 1
        cell.steps += int(row.get("steps") or 0)
        jain = row.get("jain")
        if status != "error" and isinstance(jain, float):
            if cell.jain_min is None or jain < cell.jain_min:
                cell.jain_min = jain
            if cell.jain_max is None or jain > cell.jain_max:
                cell.jain_max = jain

    @classmethod
    def from_rows(cls, rows: Iterable[Dict[str, object]]) -> "CellStats":
        stats = cls()
        for row in rows:
            stats.write_row(row)
        return stats

    def cells(self) -> List[Cell]:
        return list(self._cells.values())


#: ``perfbench/tracer.py`` times ``ColumnStore.write_row`` as its
#: ``store.column`` span, and files under ``perfbench/`` change only with
#: the benchmark: the alias keeps that hook resolving until the benchmark's
#: next revision renames the span.
ColumnStore = CellStats


# --------------------------------------------------------------------------- #
# content-addressed run cache
# --------------------------------------------------------------------------- #


class RunCache:
    """Completed rows on disk, addressed by :func:`run_cache_key`.

    Layout mirrors git's object store: ``root/<key[:2]>/<key[2:]>.json``,
    one canonical :func:`~repro.campaign.sinks.row_line` per file, written
    atomically (temp file + ``os.replace``) so a crash mid-store can never
    leave a half-written entry behind.  The stored payload omits ``"job"``
    — :meth:`lookup` patches the index of the job being answered back in,
    which is exactly why one entry serves the same run shape at any matrix
    position.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self.stored = 0
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key[2:] + ".json")

    def lookup(self, job: RunJob) -> Optional[Dict[str, object]]:
        """The cached row for ``job`` (index patched in), or ``None``.

        Defensive by design: a missing file, unparseable JSON, a non-dict
        payload or an identity block that fails
        :func:`~repro.campaign.resume.validate_row_matches_job` all count
        as misses — a damaged cache degrades to re-execution, never to a
        wrong row.
        """
        try:
            with open(self._path(run_cache_key(job)), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(payload, dict):
            self.misses += 1
            return None
        row = dict(payload)
        row["job"] = job.index
        try:
            validate_row_matches_job(job, row)
        except ResumeError:
            self.misses += 1
            return None
        self.hits += 1
        return row

    def result_for(self, job: RunJob) -> Optional[JobResult]:
        """A cache hit lifted into a :class:`JobResult`, or ``None``."""
        row = self.lookup(job)
        return as_job_result(row) if row is not None else None

    def store(self, result: JobResult) -> bool:
        """Persist one executed result; returns ``True`` if written.

        Error rows are refused (transient failures must re-execute, not
        replay), and ``steps_per_sec`` is stripped — the cached bytes are
        the deterministic row, identical to an untimed campaign's output.
        """
        if result.status == "error":
            return False
        row = result.output_row(include_timing=False)
        payload = {key: value for key, value in row.items() if key != "job"}
        path = self._path(run_cache_key_for_row(row))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(row_line(payload) + "\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stored += 1
        return True


def run_cache_key_for_row(row: Dict[str, object]) -> str:
    """The cache key of an already-assembled row (identity fields only).

    Equals :func:`run_cache_key` of the row's job because the identity
    block is copied verbatim from the job into every row
    (``ROW_IDENTITY_ATTRS`` is the single source of truth for both).
    """
    identity = {key: row[key] for key in CACHE_KEY_ATTRS}
    return hashlib.sha256(row_line(identity).encode("utf-8")).hexdigest()

