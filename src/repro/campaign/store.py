"""Columnar row store and content-addressed run cache.

Two structures that scale the campaign layer past "reparse the JSONL":

* :class:`ColumnStore` — an array-backed columnar store behind the
  :class:`~repro.campaign.sinks.RowSink` protocol.  Schema'd row fields
  (``ROW_FIELDS`` / ``ERROR_ROW_FIELDS``) land in typed ``array.array``
  columns; aggregate queries (violations by cell, Jain spread, steps
  totals) scan those columns instead of re-parsing JSON per row.  JSONL
  stays the interchange and resume format: any row round-trips through the
  store **byte-identically** under :func:`~repro.campaign.sinks.row_line`,
  which is enforced by a per-value exactness rule — a value that does not
  fit its column's declared type (an int in a float column would re-emit
  as ``0`` instead of ``0.0``) is kept verbatim in an overlay instead of
  being coerced.

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
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.campaign.jobs import (
    ERROR_ROW_FIELDS,
    JobResult,
    ROW_FIELDS,
    ROW_IDENTITY_ATTRS,
    RunJob,
)
from repro.campaign.resume import ResumeError, as_job_result, validate_row_matches_job
from repro.campaign.sinks import RowSink, row_line

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
    themselves, the resume validator and the shard
    :func:`~repro.campaign.shard.matrix_fingerprint` all agree on.
    """
    identity = {key: getattr(job, attr) for key, attr in CACHE_KEY_ATTRS.items()}
    return hashlib.sha256(row_line(identity).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# columnar row store
# --------------------------------------------------------------------------- #

#: Declared column type per schema'd row field.  ``bool`` before ``int``
#: matters when classifying values (bool is an int subclass in Python, but
#: ``true`` and ``1`` are different JSON bytes).
_FIELD_TYPES: Dict[str, type] = {
    "job": int,
    "scenario": str,
    "random_seed": int,
    "algorithm": str,
    "token": str,
    "engine": str,
    "daemon": str,
    "environment": str,
    "discussion_steps": int,
    "seed": int,
    "max_steps": int,
    "arbitrary": bool,
    "fault_every": int,
    "fault_fraction": float,
    "grace_steps": int,
    "steps": int,
    "rounds": int,
    "stop_reason": str,
    "meetings": int,
    "peak_conc": int,
    "mean_conc": float,
    "min_part": int,
    "max_part": int,
    "jain": float,
    "starved_professors": int,
    "starved_committees": int,
    "exclusion": bool,
    "synchronization": bool,
    "progress": bool,
    "essential_discussion": bool,
    "voluntary_discussion": bool,
    "violations": int,
    "first_violation": int,
    "status": str,
    "error": str,
    "ok": bool,
    "steps_per_sec": float,
}

#: array.array typecodes for the numeric column kinds.
_TYPECODES = {int: "q", float: "d", bool: "b"}

#: Per-row, per-column value states (one byte each in ``_Column.states``).
_MISSING, _NULL, _TYPED, _EXACT = 0, 1, 2, 3


class _Column:
    """One field's values across all rows: typed storage + exactness overlay.

    ``states[i]`` records how row ``i`` relates to this field — the key was
    absent (`_MISSING`, e.g. metric fields on an error row), present as
    JSON ``null`` (`_NULL`, e.g. ``grace_steps``), a value of the declared
    type (`_TYPED`, in ``values``), or an off-type value kept verbatim in
    ``exact`` (`_EXACT`) so re-serialization cannot change its bytes.
    Typed storage stays index-aligned with the rows (fillers for non-typed
    states), so reads are O(1) and column scans are branch-light.
    """

    __slots__ = ("kind", "states", "values", "exact")

    def __init__(self, kind: Optional[type], length: int) -> None:
        self.kind = kind
        self.states = array("b", bytes(length))  # leading rows: _MISSING
        typecode = _TYPECODES.get(kind) if kind is not None else None
        self.values = array(typecode) if typecode else []
        if length:
            self.values.extend([""] * length if typecode is None else [0] * length)
        self.exact: Dict[int, object] = {}

    def _fits(self, value: object) -> bool:
        if self.kind is None:
            return False  # no declared type: keep everything exact
        if self.kind is bool:
            return isinstance(value, bool)
        if self.kind is int:
            return isinstance(value, int) and not isinstance(value, bool)
        if self.kind is float:
            return isinstance(value, float)
        return isinstance(value, self.kind)

    def append(self, index: int, present: bool, value: object) -> None:
        if not present:
            state, stored = _MISSING, None
        elif value is None:
            state, stored = _NULL, None
        elif self._fits(value):
            state, stored = _TYPED, value
        else:
            state, stored = _EXACT, None
            self.exact[index] = value
        self.states.append(state)
        if isinstance(self.values, array):
            if state != _TYPED:
                self.values.append(0)  # index-aligned filler, never read back
            elif self.kind is bool:
                self.values.append(int(stored))
            else:
                self.values.append(stored)
        else:
            self.values.append(stored if state == _TYPED else "")

    def get(self, index: int) -> Tuple[bool, object]:
        """``(present, value)`` for row ``index``."""
        state = self.states[index]
        if state == _MISSING:
            return False, None
        if state == _NULL:
            return True, None
        if state == _EXACT:
            return True, self.exact[index]
        value = self.values[index]
        return True, bool(value) if self.kind is bool else value


class ColumnStore(RowSink):
    """Campaign rows as typed columns, queryable without reparsing.

    A :class:`~repro.campaign.sinks.RowSink`, so it can sit anywhere a
    JSONL sink does (including inside a :class:`~repro.campaign.sinks.TeeSink`
    next to one).  Rows of any schema'd shape — completed, error, timed —
    round-trip byte-identically: ``row_line(store.row(i))`` equals the line
    the original row would serialize to.
    """

    def __init__(self) -> None:
        self._columns: Dict[str, _Column] = {}
        self._fields: List[str] = []  # first-appearance order
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def write_row(self, row: Dict[str, object]) -> None:
        for field in self._fields:
            if field not in row:
                self._columns[field].append(self._length, False, None)
        for field, value in row.items():
            column = self._columns.get(field)
            if column is None:
                column = _Column(_FIELD_TYPES.get(field), self._length)
                self._columns[field] = column
                self._fields.append(field)
            column.append(self._length, True, value)
        self._length += 1

    @classmethod
    def from_rows(cls, rows: Iterable[Dict[str, object]]) -> "ColumnStore":
        store = cls()
        for row in rows:
            store.write_row(row)
        return store

    @classmethod
    def from_jsonl(cls, path: str) -> "ColumnStore":
        from repro.campaign.resume import read_rows

        return cls.from_rows(read_rows(path))

    def row(self, index: int) -> Dict[str, object]:
        """Reconstruct row ``index`` exactly (key set and values verbatim)."""
        if not 0 <= index < self._length:
            raise IndexError(f"row index {index} out of range [0, {self._length})")
        row: Dict[str, object] = {}
        for field in self._fields:
            present, value = self._columns[field].get(index)
            if present:
                row[field] = value
        return row

    def rows(self) -> List[Dict[str, object]]:
        return [self.row(index) for index in range(self._length)]

    def lines(self) -> List[str]:
        """The rows' canonical JSONL lines (the byte-identity surface)."""
        return [row_line(row) for row in self.rows()]

    def column(self, field: str, default: object = None) -> List[object]:
        """One field across all rows (``default`` where the key is absent)."""
        col = self._columns.get(field)
        if col is None:
            return [default] * self._length
        out = []
        for index in range(self._length):
            present, value = col.get(index)
            out.append(value if present else default)
        return out

    # -- aggregate queries (columnar: no JSON reparse, no dict per row) ----- #

    def total_steps(self) -> int:
        col = self._columns.get("steps")
        if col is None:
            return 0
        total = sum(
            value for state, value in zip(col.states, col.values) if state == _TYPED
        )
        return total + sum(
            value
            for value in col.exact.values()
            if isinstance(value, int) and not isinstance(value, bool)
        )

    def status_counts(self) -> Dict[str, int]:
        """``status -> row count`` (``"ok"`` / ``"violation"`` / ``"error"``)."""
        counts: Dict[str, int] = {}
        for status in self.column("status"):
            key = str(status)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def violation_count(self) -> int:
        return self.status_counts().get("violation", 0)

    def error_count(self) -> int:
        return self.status_counts().get("error", 0)

    def cell_stats(self) -> List[Dict[str, object]]:
        """Per-(scenario, algorithm) aggregates, in first-appearance order.

        The columnar core of the campaign summary table: run/violation/error
        counts, step totals and the Jain-index spread (completed runs only —
        error rows carry no metrics) per cell, computed in one pass over
        five columns.
        """
        scenarios = self.column("scenario")
        algorithms = self.column("algorithm")
        statuses = self.column("status")
        steps = self.column("steps", 0)
        jains = self.column("jain")
        cells: Dict[Tuple[object, object], Dict[str, object]] = {}
        for index in range(self._length):
            key = (scenarios[index], algorithms[index])
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = {
                    "scenario": scenarios[index],
                    "algorithm": algorithms[index],
                    "runs": 0,
                    "violations": 0,
                    "errors": 0,
                    "steps": 0,
                    "jain_min": None,
                    "jain_max": None,
                }
            cell["runs"] += 1
            status = statuses[index]
            if status == "violation":
                cell["violations"] += 1
            elif status == "error":
                cell["errors"] += 1
            cell["steps"] += int(steps[index] or 0)
            jain = jains[index]
            if status != "error" and isinstance(jain, float):
                if cell["jain_min"] is None or jain < cell["jain_min"]:
                    cell["jain_min"] = jain
                if cell["jain_max"] is None or jain > cell["jain_max"]:
                    cell["jain_max"] = jain
        return list(cells.values())


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


#: Every schema'd field is typed (so the columnar fast path, not the exact
#: overlay, is what campaigns exercise).  Import-time assert: a new row
#: field that forgets its column type fails the first test that imports
#: the store.
_SCHEMA_FIELDS = set(ROW_FIELDS) | set(ERROR_ROW_FIELDS) | {"steps_per_sec"}
assert _SCHEMA_FIELDS <= set(_FIELD_TYPES), (
    f"untyped schema fields: {sorted(_SCHEMA_FIELDS - set(_FIELD_TYPES))}"
)
