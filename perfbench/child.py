"""One ``repro-cc campaign`` in a fresh interpreter, timed or traced.

Started by ``run.py`` as ``python3 -s child.py '<json>'``.  The JSON names
the checkout root, the campaign arguments, the report path and whether to
trace.  The process imports ``repro.cli`` from the checkout's ``src/``,
runs ``repro.cli.main(["campaign", ...])`` and writes a JSON report:

* ``dispatch`` -- ``time.perf_counter()`` when the first job starts, i.e.
  when the serial executor is entered (the parent subtracts its own spawn
  time, which shares the monotonic clock, to get ``setup_s``);
* ``finished`` -- ``time.perf_counter()`` when ``main`` returned, after the
  ``--out`` file was rewritten in job order;
* ``segments`` -- the campaign time from the first job start to
  ``finished``, cut at the pauses (below): the seconds between them;
* ``import_s`` and ``main_s`` -- the two intervals the traced wall covers;
* ``peak_rss_mb`` -- the process's peak resident set size;
* ``fallback_groups`` and ``fallback_runs`` -- batched groups, and their
  runs, whose batched attempt raised, so that ``execute_job_group`` re-ran
  them solo (only probed when ``probe_batched`` is set);
* ``layers`` -- the tracer's per-layer report, when tracing.

Untraced, the only wrappers are the dispatch mark and, for batched
workloads, the fallback probe: one call per campaign plus one per batched
group.

When the JSON names two pipe descriptors (``pause_fds``), the campaign
pauses at the first job start, and then after the first row collected
once ``PAUSE_EVERY_S`` of campaign time have passed since the last pause:
it writes one byte to the first pipe and waits for one byte on the second,
while the parent times its reference loop on this CPU.  The parent can
then scale each segment by the host speed measured at its two ends; the
pauses themselves lie outside every segment.
"""

import json
import os
import resource
import sys
import time

#: Campaign time after which the next collected row pauses the campaign.
PAUSE_EVERY_S = 0.4


def _install_dispatch_mark(marks, probe_batched, pause):
    from repro.campaign import driver

    run = driver.SerialExecutor.run

    def marked_run(self, todo, collector):
        if "dispatch" not in marks:
            marks["dispatch"] = time.perf_counter()
            if pause is not None:
                pause()
            marks["segment_start"] = time.perf_counter()
            if probe_batched:
                _install_fallback_probe(marks)
        return run(self, todo, collector)

    driver.SerialExecutor.run = marked_run


def _install_pauses(marks, fds):
    """Pause the campaign for the parent's reference loop; returns the
    pause function the dispatch mark calls first."""
    from repro.campaign import driver

    request, answer = fds

    def pause():
        os.write(request, b"p")
        if os.read(answer, 1) != b"p":
            raise SystemExit("the benchmark process went away")

    collect = driver.RowCollector.collect

    def pausing_collect(self, result):
        out = collect(self, result)
        now = time.perf_counter()
        # Rows served from the run cache are collected before the first job.
        if "segment_start" in marks and now - marks["segment_start"] >= PAUSE_EVERY_S:
            marks["segments"].append(now - marks["segment_start"])
            pause()
            marks["segment_start"] = time.perf_counter()
        return out

    driver.RowCollector.collect = pausing_collect
    return pause


def _install_fallback_probe(marks):
    # Installed at the first job start, so the batched module is imported
    # where the campaign itself would import it.  ``execute_job_group`` looks
    # ``_run_group`` up on each call and re-runs the group solo whenever it
    # raises -- in the lockstep run or in the row assembly after it.
    from repro.campaign import batched

    marks["fallback_groups"] = marks["fallback_runs"] = 0
    run_group = batched._run_group

    def probed_run_group(jobs):
        try:
            return run_group(jobs)
        except Exception:
            marks["fallback_groups"] += 1
            marks["fallback_runs"] += len(jobs)
            raise

    batched._run_group = probed_run_group


def main():
    task = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(task["root"], "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    tracer = None
    if task["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    import_start = time.perf_counter_ns()
    import repro.cli

    import_end = time.perf_counter_ns()
    if not os.path.abspath(repro.cli.__file__).startswith(os.path.abspath(task["root"])):
        raise SystemExit(f"repro imported from outside the checkout: {repro.cli.__file__}")
    marks = {"segments": []}
    pause = _install_pauses(marks, task["pause_fds"]) if task.get("pause_fds") else None
    _install_dispatch_mark(marks, task["probe_batched"], pause)
    if tracer is not None:
        tracer.record("cli.import", "cli.import", import_start, import_end)
        tracer.install()
    main_start = time.perf_counter_ns()
    code = repro.cli.main(["campaign", *task["argv"]])
    main_end = time.perf_counter_ns()
    finished = time.perf_counter()
    if "segment_start" in marks:
        marks["segments"].append(finished - marks["segment_start"])
    wall_s = (import_end - import_start + main_end - main_start) * 1e-9
    report = {
        "exit_code": code,
        "dispatch": marks.get("dispatch"),
        "finished": finished,
        "segments": marks["segments"],
        "import_s": (import_end - import_start) * 1e-9,
        "main_s": (main_end - main_start) * 1e-9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fallback_groups": marks.get("fallback_groups", 0),
        "fallback_runs": marks.get("fallback_runs", 0),
    }
    if tracer is not None:
        report["layers"] = tracer.report(wall_s, report["fallback_groups"], report["fallback_runs"])
        if task.get("spans"):
            tracer.write_spans(task["spans"], import_start)
    with open(task["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
