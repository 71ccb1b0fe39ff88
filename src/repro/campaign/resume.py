"""Resume an interrupted campaign from its partial JSONL stream.

The JSONL sink (:class:`repro.campaign.sinks.JsonlSink`) flushes one row
per completed job, in completion order, with the job index carried in-row.
This module turns such a partial file back into campaign state:

* :func:`read_rows` re-ingests the file, tolerating exactly the artifact a
  crash leaves behind — one truncated, non-JSON *final* line (the row that
  was mid-``write`` when the process died).  Corruption anywhere else is an
  error: the file is not a campaign stream.
* :func:`validate_rows_match_jobs` cross-checks every row's identity
  fields against the job at its index, so ``--resume`` with a mismatched
  matrix (different scenarios, seeds, axes — i.e. somebody else's file)
  fails loudly instead of silently merging garbage.
* :func:`remaining_jobs` returns the jobs with no row yet — the work a
  resumed campaign still has to do.  ``retry_errors=True`` additionally
  re-queues jobs whose row is an error row (transient worker failures).
* :func:`as_job_result` / :func:`merge_results` lift prior rows back into
  :class:`~repro.campaign.jobs.JobResult`s and merge them with the resumed
  run's results into one full :class:`~repro.campaign.driver.CampaignResult`,
  so the summary table and the final job-order rewrite cover *all* rows.

Identity is type-strict: a field matches only when its type and value both
match (``bool``, ``int`` and ``float`` are distinct, so ``50.0`` is not a
``max_steps`` of ``50``), and a job index is an ``int`` that is not a
``bool`` (:func:`is_job_index`).  Every consumer that maps a row back to a
job — resume (and so the merge of ``--shard`` slices), the run cache —
goes through :func:`validate_row_matches_job`, so none can adopt a row
whose JSON merely compares equal.

Byte-identity contract: rows are written by
:func:`repro.campaign.sinks.row_line` (sorted-key JSON) and parsed back by
:func:`parse_rows`; re-dumping a parsed row reproduces its line exactly
(Python float repr round-trips), which is why an interrupted campaign,
resumed and finally rewritten in job order, matches an uninterrupted
``--jobs 1`` run byte for byte.  ``tests/test_campaign_persistence.py``
(``TestKillAndResume``) pins this for plain and ``--timing`` rows.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Sequence

from repro.campaign.jobs import ROW_IDENTITY_ATTRS, JobResult, RunJob


class ResumeError(ValueError):
    """A partial JSONL file that cannot belong to the campaign being resumed."""


def is_job_index(value: object) -> bool:
    """``True`` iff ``value`` can be a row's ``"job"`` index: an int, not a bool.

    ``True == 1`` in Python, so ``isinstance(value, int)`` would file a row
    carrying ``"job": true`` as job 1 and write it back out as ``true``.
    """
    return type(value) is int


def parse_rows(lines: Iterable[str], source: str = "<stream>") -> List[Dict[str, object]]:
    """Parse JSONL lines into row dicts, tolerating one truncated tail line.

    A line that fails to parse (or is not an object with an integer
    ``"job"``) is dropped *iff* it is the last non-blank line — the
    signature of a process killed mid-write.  The same defect earlier in
    the stream raises :class:`ResumeError`.
    """
    entries = [
        (number, line)
        for number, line in enumerate(lines, start=1)
        if line.strip()
    ]
    rows: List[Dict[str, object]] = []
    for position, (number, line) in enumerate(entries):
        try:
            row = json.loads(line)
            if not isinstance(row, dict) or not is_job_index(row.get("job")):
                raise ValueError("not a row object with an integer 'job' index")
        except ValueError as exc:
            if position == len(entries) - 1:
                break  # truncated tail from an interrupted write: re-run that job
            raise ResumeError(
                f"{source}:{number}: corrupt row before end of stream ({exc})"
            ) from exc
        rows.append(row)
    return rows


def read_rows(path: str) -> List[Dict[str, object]]:
    """Rows of a (possibly interrupted) campaign JSONL file; [] if absent.

    A path that cannot be read as UTF-8 text (a directory, a binary file)
    raises :class:`ResumeError` naming the path and the cause.
    """
    if not os.path.exists(path):
        return []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_rows(fh, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ResumeError(f"{path}: not a readable campaign stream ({exc})") from exc


def completed_rows(rows: Iterable[Dict[str, object]]) -> Dict[int, Dict[str, object]]:
    """Map ``job index -> row``; on duplicates the latest row wins."""
    return {int(row["job"]): row for row in rows}


def validate_rows_match_jobs(
    jobs: Sequence[RunJob], rows: Iterable[Dict[str, object]]
) -> None:
    """Raise :class:`ResumeError` unless every row matches its job's identity.

    Rows with indices beyond ``len(jobs)`` are ignored: they are adaptive
    re-run rows appended after the base matrix (their identity cannot be
    checked against the spec alone).
    """
    by_index = {job.index: job for job in jobs}
    for row in rows:
        job = by_index.get(int(row["job"]))
        if job is None:
            continue
        validate_row_matches_job(job, row)


def validate_row_matches_job(job: RunJob, row: Dict[str, object]) -> None:
    """Raise :class:`ResumeError` unless ``row``'s identity matches ``job``.

    The single-row core of :func:`validate_rows_match_jobs`, exposed so a
    consumer holding one job (a run-cache hit) can validate in O(1)
    instead of rebuilding the job index per call.
    The checked fields are the row emitters' own
    (``repro.campaign.jobs.ROW_IDENTITY_ATTRS``), so they can never drift
    from the persisted ones.  A field matches only when its type and value
    both match; ``"job"`` is compared too, so a ``true`` index is refused.
    """
    for key, attr in ROW_IDENTITY_ATTRS.items():
        expected = getattr(job, attr)
        if key in row and (type(row[key]) is not type(expected) or row[key] != expected):
            raise ResumeError(
                f"row for job {job.index} does not match the campaign matrix: "
                f"{key}={row[key]!r} in the file vs {expected!r} "
                "expanded from the spec (is this another campaign's output file?)"
            )


def reconcile_extra_rows(
    extra_jobs: Sequence[RunJob],
    rows: Iterable[Dict[str, object]],
) -> "tuple[List[Dict[str, object]], List[Dict[str, object]]]":
    """Split beyond-matrix rows into ``(valid, stale)`` against re-run jobs.

    :func:`validate_rows_match_jobs` deliberately ignores rows with indices
    beyond the base matrix — their jobs are not derivable from the spec
    alone.  On ``--resume --rerun-disagreements`` they *are* derivable: the
    adaptive layer regenerates the same deterministic ``extra_jobs``, and
    every prior extra row must be identity-checked against the job now at
    its index.  A row whose index no longer exists (the disagreement set
    changed, e.g. ``--retry-errors`` flipped a base verdict) or whose
    identity block mismatches the regenerated job is *stale*: keeping it
    would silently attribute a result to a different run.  Stale rows are
    returned for reporting; their jobs re-run.
    """
    by_index = {job.index: job for job in extra_jobs}
    valid: List[Dict[str, object]] = []
    stale: List[Dict[str, object]] = []
    for row in rows:
        job = by_index.get(int(row["job"]))
        if job is None:
            stale.append(row)
            continue
        try:
            validate_row_matches_job(job, row)
        except ResumeError:
            stale.append(row)
        else:
            valid.append(row)
    return valid, stale


def remaining_jobs(
    jobs: Sequence[RunJob],
    rows: Iterable[Dict[str, object]],
    retry_errors: bool = False,
) -> List[RunJob]:
    """The jobs a resumed campaign still has to execute, in job order."""
    done = completed_rows(rows)
    remaining = []
    for job in jobs:
        row = done.get(job.index)
        if row is None or (retry_errors and row.get("status") == "error"):
            remaining.append(job)
    return remaining


def as_job_result(row: Dict[str, object]) -> JobResult:
    """Lift a previously persisted row back into a :class:`JobResult`.

    Wall-clock never enters the row (unless ``--timing`` opted in), so the
    elapsed time is reconstructed from a stored ``steps_per_sec`` when
    present and zero otherwise — :attr:`JobResult.steps_per_sec` then
    reports 0.0, and summary tables render ``-`` for throughput that was
    never measured in this process.  A stored ``steps_per_sec`` stays *in*
    the row: resuming a ``--timing`` campaign must rewrite prior rows with
    their original measured value, byte for byte, not a lossy
    reconstruction (and certainly not without the field).
    """
    row = dict(row)
    steps = int(row.get("steps", 0) or 0)
    steps_per_sec = row.get("steps_per_sec")
    elapsed = steps / float(steps_per_sec) if steps_per_sec else 0.0
    return JobResult(
        index=int(row["job"]),
        row=row,
        steps=steps,
        elapsed_seconds=elapsed,
        ok=bool(row.get("ok", False)),
    )


def merge_results(
    prior_rows: Iterable[Dict[str, object]],
    executed: Sequence[JobResult],
) -> List[JobResult]:
    """Prior rows + freshly executed results, deduplicated, in job order.

    A freshly executed result wins over a prior row with the same index
    (the ``retry_errors`` path re-runs jobs whose prior row was an error).
    """
    by_index: Dict[int, JobResult] = {
        int(row["job"]): as_job_result(row) for row in prior_rows
    }
    for result in executed:
        by_index[result.index] = result
    return [by_index[index] for index in sorted(by_index)]
