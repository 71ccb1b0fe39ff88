#!/usr/bin/env python3
"""Campaign benchmark: end-to-end and per-layer metrics of ``repro-cc campaign``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stress-long [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs one campaign of the workload (``workloads.json``) in a
fresh single-process interpreter (``child.py``, ``--jobs 1``) against the
checkout's ``src/``, pinned to the usable CPUs in turn.  Repetitions
continue until ``--seconds`` are used (at least three; by default
``run_seconds`` of ``BENCHMARK.json``), and every metric is the median over
them.

The workload seed ``N`` stands for ``INSTANCES`` campaigns, at campaign
seeds ``(N * INSTANCES + i) * SEED_STRIDE`` for ``i`` from 0 to
``INSTANCES - 1``; repetitions take them in turn.  How much work one
campaign seed makes varies (on ``stress-long`` its guard evaluations range
over +-6% between seeds), so a median over several campaigns keeps one
seed's luck out of a run.

The host's speed drifts with other tenants' load by up to 2x, in
stretches of a fraction of a second to minutes (``calibrate.py``).  So the
benchmark times a fixed reference loop of its own on the campaign's CPU
right before each campaign process starts, at its first job start, every
``PAUSE_EVERY_S`` of campaign time at the next row (the campaign waits
meanwhile; see ``child.py``) and after it exits.  Every time it reports is
in reference seconds: each stretch of measured time times
``REFERENCE_UNIT_S`` over the mean loop time per unit at its two ends.  The
measured times and loop times of every repetition are kept in the stamped
result.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s`` -- interpreter start to the first job start: importing
  ``repro.cli``, argument parsing, ``CampaignSpec`` validation,
  ``expand_jobs`` and the ``CampaignPlan`` cache probe;
* ``wall_s`` -- first job start until ``main`` returned, after the
  ``--out`` file was rewritten in job order, less the pauses;
* ``steps_per_s`` -- committed steps summed over the rows (lane-steps on
  ``batched-lanes``) divided by ``wall_s``;
* ``peak_rss_mb`` -- peak resident memory of the campaign process.

``--trace 1`` prints the per-layer metrics of ``tracer.py``: two traced
campaigns of the first campaign seed (whose exact counts must agree), plus
untraced repetitions of it for ``trace.overhead_frac``.  These campaigns
do not pause; their times are scaled by the loop before and after them.

Every campaign's ``--out`` file is checked: one row per expanded job, each
passing ``validate_row_matches_job``, no error row, no batched group that
fell back to solo runs, and -- at the default seed -- the file's sha256
equal to the one recorded for its campaign seed in ``digests.json``
(captured by ``capture.py`` through an engine cross-check).  A run that
fails any check counts in ``failed``; ``failed_frac`` is printed beside the
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
stamped with the source revision, the usable CPUs and the Python and numpy
versions, is also written to ``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
from child import PAUSE_EVERY_S
from tracer import EXACT_COUNTS, unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

#: Campaigns one workload seed stands for (see the module docstring).
INSTANCES = 8
#: Distance between campaign seeds.  A campaign's random scenarios and its
#: runs take consecutive seeds from its campaign seed (at most 256 here),
#: so no two campaigns share one.
SEED_STRIDE = 1000
#: Fewest repetitions a run makes, even past ``--seconds``.
MIN_REPS = 3
#: Untraced repetitions a ``--trace 1`` run makes besides its two traced ones.
MIN_TRACE_BASELINE = 2
#: A single campaign that takes longer than this is a failure, not a sample.
CHILD_TIMEOUT_S = 120
#: No repetition starts that would end later than this into the run.
HARD_LIMIT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "peak_rss_mb": "MiB",
}

#: What the stamped result keeps of each repetition besides its metrics.
SAMPLE_KEYS = ("campaign_seed", "measured_setup_s", "measured_wall_s", "loop_unit_s")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def load_data(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def campaign_seed(seed, instance):
    """The campaign seed of the ``instance``-th campaign of workload seed ``seed``."""
    return (seed * INSTANCES + instance) * SEED_STRIDE


def campaign_argv(workload, seed, out=None, cache=None):
    """The ``repro-cc campaign`` arguments of one campaign of ``workload``."""
    argv = []
    for flag, value in workload["flags"].items():
        for item in value if isinstance(value, list) else [value]:
            argv += [f"--{flag}", str(item)]
    for flag in workload["seed_flags"]:
        argv += [f"--{flag}", str(seed)]
    argv += ["--jobs", "1"]
    if out:
        argv += ["--out", out]
    if cache:
        argv += ["--cache", cache]
    return argv


def expected_jobs(argv):
    """The job list ``repro-cc campaign argv`` must answer, expanded by the CLI."""
    from repro.cli import _expand_matrix, build_parser

    return _expand_matrix(build_parser().parse_args(["campaign", *argv]))[1]


def check_rows(jobs, out, recorded, fallback_runs, exit_code):
    """``(failed run count, committed steps, problems)`` of one ``--out`` file."""
    from repro.campaign.jobs import ROW_IDENTITY_FIELDS
    from repro.campaign.resume import ResumeError, validate_row_matches_job

    problems = []
    if exit_code not in (0, 1):
        problems.append(f"campaign exited {exit_code}")
    if recorded is not None and recorded["jobs"] != len(jobs):
        return len(jobs), 0, problems + ["digests.json was recorded for another job list"]
    try:
        with open(out, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return len(jobs), 0, problems + [f"no --out file: {exc}"]
    lines = data.decode("utf-8").splitlines()
    by_index = {}
    failed = set()
    steps = 0
    for position, line in enumerate(lines):
        try:
            row = json.loads(line)
            index = int(row["job"])
        except (ValueError, KeyError, TypeError):
            problems.append(f"unparseable row at line {position + 1}")
            continue
        if index in by_index or not 0 <= index < len(jobs):
            problems.append(f"duplicate or foreign row for job {index}")
            failed.add(index)
            continue
        by_index[index] = line
        if row.get("status") == "error":
            problems.append(f"job {index}: error row: {row.get('error')}")
            failed.add(index)
            continue
        try:
            if any(key not in row for key in ROW_IDENTITY_FIELDS):
                raise ResumeError("identity fields missing")
            validate_row_matches_job(jobs[index], row)
        except ResumeError as exc:
            problems.append(f"job {index}: identity: {exc}")
            failed.add(index)
            continue
        steps += int(row["steps"])
    missing = [job.index for job in jobs if job.index not in by_index]
    if missing:
        problems.append(f"{len(missing)} job(s) without a row")
        failed.update(missing)
    if recorded is not None and hashlib.sha256(data).hexdigest() != recorded["sha256"]:
        # The digest covers the whole file, so no single run can be blamed.
        problems.append(f"--out file of campaign seed {recorded['campaign_seed']} differs from the recorded digest")
        failed.update(job.index for job in jobs)
    if fallback_runs:
        problems.append(f"{fallback_runs} run(s) fell back from the batched engine")
    count = min(len(jobs), len(failed) + fallback_runs)
    if exit_code not in (0, 1):
        count = len(jobs)
    return count, steps, problems


class Bench:
    """One benchmark run: repetitions of one workload at one seed."""

    def __init__(self, name, seed, seconds):
        catalogue = load_data("workloads.json")
        if name not in catalogue["workloads"]:
            raise BenchError(f"unknown workload {name!r}")
        self.name = name
        self.workload = catalogue["workloads"][name]
        self.seed = catalogue["default_seed"] if seed is None else seed
        self.seconds = seconds
        # Files are compared byte for byte only at the seed they were
        # recorded at; any other seed gets the structural checks alone.
        self.recorded = None
        if self.seed == catalogue["default_seed"]:
            recorded = load_data("digests.json").get(name)
            if recorded is None or recorded["seed"] != self.seed or len(recorded["instances"]) != INSTANCES:
                raise BenchError(f"no recorded rows for {name} at seed {self.seed}; run capture.py")
            self.recorded = recorded["instances"]
        self.out = os.path.join(WORK, f"{name}.rows.jsonl")
        self.cache = os.path.join(WORK, f"{name}.cache") if self.workload["cache"] else None
        self.instances = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # Each campaign gets its own random string-hash seed, as it would
        # from the shell, so rows or counts that follow hash order show up.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        # Host contention comes and goes per CPU, so repetitions take turns
        # on every usable CPU rather than letting one CPU's phase set a run.
        # This process moves with them: it times the reference loop on the
        # campaign's CPU, and the campaign inherits the CPU from it.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.count = 0
        os.makedirs(WORK, exist_ok=True)

    def instance(self, number):
        """``(campaign seed, argv, expected jobs, recorded digest)`` of one campaign."""
        if number not in self.instances:
            seed = campaign_seed(self.seed, number)
            argv = campaign_argv(self.workload, seed, self.out, self.cache)
            recorded = self.recorded[number] if self.recorded else None
            if recorded is not None and recorded["campaign_seed"] != seed:
                raise BenchError(f"digests.json lists campaign seed {recorded['campaign_seed']}, not {seed}")
            self.instances[number] = (seed, argv, expected_jobs(argv), recorded)
        return self.instances[number]

    def spawn(self, task, log, loop_units):
        """Run the campaign process; returns its spawn time and exit code.

        With a ``loop_units`` list the campaign pauses (see ``child.py``),
        and each pause appends the reference loop's time per unit to it.
        """
        parent_ends, child_ends = [], []
        if loop_units is not None:
            request_r, request_w = os.pipe()
            answer_r, answer_w = os.pipe()
            parent_ends, child_ends = [request_r, answer_w], [request_w, answer_r]
            task = dict(task, pause_fds=child_ends)
        try:
            spawned = time.perf_counter()
            deadline = spawned + CHILD_TIMEOUT_S
            try:
                proc = subprocess.Popen(
                    [sys.executable, "-s", CHILD, json.dumps(task)],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    cwd=ROOT,
                    env=self.env,
                    pass_fds=child_ends,
                )
            finally:
                for fd in child_ends:
                    os.close(fd)
            try:
                while parent_ends:
                    left = deadline - time.perf_counter()
                    if not select.select([request_r], [], [], max(left, 0.0))[0]:
                        raise BenchError(f"campaign took longer than {CHILD_TIMEOUT_S} s")
                    if not os.read(request_r, 1):
                        break
                    loop_units.append(calibrate.unit_s())
                    os.write(answer_w, b"p")
                proc.wait(timeout=max(deadline - time.perf_counter(), 0.0))
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"campaign took longer than {CHILD_TIMEOUT_S} s") from exc
            except OSError as exc:
                raise BenchError(f"lost the campaign process: {exc}") from exc
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        finally:
            for fd in parent_ends:
                os.close(fd)
        return spawned, proc.returncode

    def repetition(self, number, trace=False, spans=None, pauses=False):
        """One campaign of instance ``number`` in a fresh interpreter; returns its measurements."""
        seed, argv, jobs, recorded = self.instance(number)
        report_path = os.path.join(WORK, f"{self.name}.report.json")
        log_path = os.path.join(WORK, f"{self.name}.log")
        for path in (self.out, report_path):
            if os.path.exists(path):
                os.remove(path)
        if self.cache:
            shutil.rmtree(self.cache, ignore_errors=True)
        task = {
            "root": ROOT,
            "argv": argv,
            "trace": trace,
            "spans": spans,
            "report": report_path,
            "probe_batched": "batched" in self.workload["flags"].get("engine", ()),
        }
        os.sched_setaffinity(0, {self.cpus[self.count % len(self.cpus)]})
        self.count += 1
        loop_units = [calibrate.unit_s()]
        with open(log_path, "w", encoding="utf-8") as log:
            spawned, code = self.spawn(task, log, loop_units if pauses else None)
        loop_units.append(calibrate.unit_s())
        if code != 0 or not os.path.exists(report_path):
            with open(log_path, encoding="utf-8") as log:
                tail = log.read()[-2000:]
            raise BenchError(f"campaign process failed ({code}):\n{tail}")
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        failed, steps, problems = check_rows(
            jobs, self.out, recorded, report["fallback_runs"], report["exit_code"]
        )
        self.attempted += len(jobs)
        self.failed += failed
        self.problems += problems
        # The loop before the spawn and the one at the first job start
        # enclose the set-up; with pauses, the loops at the pauses and the
        # one after the exit enclose the segments, else the first and last.
        segments = report["segments"]
        edges = loop_units[1:] if pauses else loop_units
        if len(edges) != len(segments) + 1:
            raise BenchError(f"{len(segments)} campaign segment(s) for {len(loop_units)} loop time(s)")
        setup = report["dispatch"] - spawned
        wall = sum(segments)
        reference_wall = sum(
            length * calibrate.REFERENCE_UNIT_S * 2 / (edges[i] + edges[i + 1])
            for i, length in enumerate(segments)
        )
        scale = reference_wall / wall
        layers = report.get("layers")
        if layers is not None:
            layers = {key: value * scale if unit_of(key) in ("s", "ms") else value for key, value in layers.items()}
        return {
            "setup_s": setup * calibrate.REFERENCE_UNIT_S * 2 / (loop_units[0] + loop_units[1]),
            "wall_s": reference_wall,
            "steps_per_s": steps / reference_wall,
            "peak_rss_mb": report["peak_rss_mb"],
            "campaign_seed": seed,
            "measured_setup_s": setup,
            "measured_wall_s": wall,
            "loop_unit_s": loop_units,
            "traced_wall_s": (report["import_s"] + report["main_s"]) * scale,
            "layers": layers,
        }

    def _more(self, start, count, least, longest):
        """Whether another repetition fits: ``least`` are always made,
        unless that would overrun ``HARD_LIMIT_S``."""
        finish = time.perf_counter() - start + longest
        return finish < HARD_LIMIT_S and (count < least or finish <= self.seconds)

    def timed(self):
        start = time.perf_counter()
        reps = []
        longest = 0.0
        while not reps or self._more(start, len(reps), MIN_REPS, longest):
            began = time.perf_counter()
            reps.append(self.repetition(len(reps) % INSTANCES, pauses=True))
            longest = max(longest, time.perf_counter() - began)
        metrics = {
            key: {"value": statistics.median(rep[key] for rep in reps), "unit": unit}
            for key, unit in END_TO_END_UNITS.items()
        }
        samples = [{key: rep[key] for key in (*END_TO_END_UNITS, *SAMPLE_KEYS)} for rep in reps]
        return metrics, {"repetitions": len(reps), "samples": samples}

    def traced(self):
        start = time.perf_counter()
        baseline = [self.repetition(0)]
        began = time.perf_counter()
        first = self.repetition(0, trace=True)["layers"]
        longest = time.perf_counter() - began
        spans = os.path.join(WORK, f"{self.name}.spans.tsv")
        second = self.repetition(0, trace=True, spans=spans)["layers"]
        differ = [key for key in EXACT_COUNTS if first[key] != second[key]]
        if differ:
            self.problems.append(
                "exact counts differ between two traced runs: "
                + ", ".join(f"{key} {first[key]} != {second[key]}" for key in differ)
            )
            self.failed = max(self.failed, 1)
        while self._more(start, len(baseline), MIN_TRACE_BASELINE, longest):
            baseline.append(self.repetition(0))
        untraced = statistics.median(rep["traced_wall_s"] for rep in baseline)
        # Timings are the mean of the two traced runs; counts are exact.
        layers = {
            key: first[key] if isinstance(first[key], int) else (first[key] + second[key]) / 2
            for key in first
        }
        layers["trace.overhead_frac"] = layers["trace.wall_s"] / untraced - 1.0
        metrics = {key: {"value": value, "unit": unit_of(key)} for key, value in layers.items()}
        return metrics, {"repetitions": len(baseline), "traced_runs": 2, "spans": spans}


def stamp():
    """Where a result was measured: source revision, CPUs, interpreter, numpy."""
    # A checkout need not be a git repository; git must not find an
    # enclosing one above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in sorted(os.walk(src)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode("utf-8") + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
    }


def run_seconds():
    """``run_seconds`` of the checkout's ``BENCHMARK.json``: how long a run measures."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)["run_seconds"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no run_seconds in BENCHMARK.json: {exc}") from exc


def last_overhead(name):
    path = os.path.join(WORK, "results", f"{name}.trace.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["metrics"]["trace.overhead_frac"]["value"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: workloads.json)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, "-s", "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    try:
        seconds = args.seconds if args.seconds is not None else run_seconds()
        bench = Bench(args.workload, args.seed, seconds)
        metrics, info = bench.traced() if args.trace else bench.timed()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    stamped = dict(result)
    stamped.update(
        workload=args.workload,
        seed=bench.seed,
        digest_checked=bench.recorded is not None,
        trace=args.trace,
        instances=INSTANCES,
        reference_unit_s=calibrate.REFERENCE_UNIT_S,
        pause_every_s=PAUSE_EVERY_S,
        stamp=stamp(),
        problems=bench.problems[:50],
        **info,
    )
    if not args.trace:
        stamped["trace.overhead_frac"] = last_overhead(args.workload)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}.{'trace' if args.trace else 'timed'}.json"), "w") as fh:
        json.dump(stamped, fh, indent=1, sort_keys=True)
    for problem in bench.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {bench.seed}, {info['repetitions']} repetition(s), "
          f"digest {'checked' if bench.recorded else 'not checked'}")
    print(f"stamp {json.dumps(stamped['stamp'], sort_keys=True)}")
    for key, metric in metrics.items():
        print(f"  {key:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':34s} {bench.failed / max(bench.attempted, 1):.6g} runs "
          f"({bench.failed} of {bench.attempted})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
