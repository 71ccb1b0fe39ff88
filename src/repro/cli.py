"""Command-line interface.

``python -m repro`` (or the installed ``repro-cc`` script) exposes the most
common operations:

* ``run``      -- simulate one algorithm on a named scenario and print metrics,
* ``check``    -- run with the streaming spec monitors attached and print the
  Exclusion/Synchronization/Progress verdicts plus a fairness summary (works
  on sparse ``--sparse`` runs of any length; exits non-zero if any of the
  three checked properties is violated — fairness is informational),
* ``bounds``   -- print the analytical quantities (minMM, AMM bounds, ...) of a scenario,
* ``compare``  -- run CC1/CC2/CC3 and all baselines on a scenario and print one table,
* ``campaign`` -- expand a scenario × algorithm × engine × daemon × fault ×
  seed matrix (named and/or randomized scenarios) into seeded runs, execute
  them across ``--jobs`` worker processes with all streaming monitors
  attached, print the summary table and optionally write one JSONL row per
  run — streamed crash-safely as jobs complete and rewritten in job order
  at the end, byte-identical for any ``--jobs``.  ``--resume`` continues an
  interrupted ``--out`` file, ``--rerun-disagreements`` re-expands cells
  whose verdicts differ across seeds, ``--collector`` (optionally with
  ``--shard I/N``) turns the process into one shard of a multi-machine
  campaign feeding a ``collect`` service.  Exit codes: 1 a checked property was violated, 2
  malformed matrix, 3 a worker raised (error rows present), 4 the
  collector was lost or rejected this shard,
* ``collect``  -- the merge point of a sharded campaign: listen on a
  TCP/Unix socket, lease job ranges to connecting shards (static
  ``--shard`` ranges and pull-based batches over the same protocol),
  validate and ack every row against the identically expanded matrix, and
  write the merged JSONL in job order — byte-identical to running the
  matrix locally with ``--jobs 1``.  A dead shard's undelivered range is
  re-dispatched to the surviving shards through the resume machinery,
* ``stats``    -- per-cell aggregates over an existing campaign rows file
  (run/violation/error counts, step totals, Jain spread), the fold the
  campaign summary table uses,
* ``scenarios``-- list the available scenarios.

Every command that takes ``--scenario`` prints ``<command>: unknown
scenario 'NAME'`` and exits 2 on an unknown one.

Examples::

    repro-cc scenarios
    repro-cc run --scenario figure1 --algorithm cc2 --steps 2000
    repro-cc check --scenario cycle-100 --engine incremental --sparse --steps 1000000
    repro-cc check --scenario figure1 --arbitrary --stop-on-violation
    repro-cc bounds --scenario figure2-impossibility
    repro-cc compare --scenario grid-3x3 --rounds 300
    repro-cc campaign --scenario figure1 --scenario grid-3x3 \\
        --algorithm cc1 --algorithm cc2 --random 4 --seeds 3 \\
        --jobs 4 --out rows.jsonl
    repro-cc collect --listen tcp:0.0.0.0:7777 --out merged.jsonl \\
        --scenario figure1 --seeds 8                  # on the head node
    repro-cc campaign --collector tcp:head:7777 --shard 1/3 \\
        --scenario figure1 --seeds 8 --jobs 4         # on each worker node
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.analysis.theory import bounds_for
from repro.baselines import (
    CentralizedGreedyCoordinator,
    DiningPhilosophersCoordinator,
    DrinkingPhilosophersCoordinator,
    KumarTokenCoordinator,
    ManagerTokenCoordinator,
)
from repro.campaign import (
    CampaignDriver,
    CampaignResult,
    CampaignSpec,
    CellStats,
    Collector,
    FaultSchedule,
    Finalizer,
    JsonlSink,
    ResumeError,
    RunCache,
    ShardProtocolError,
    as_job_result,
    expand_jobs,
    read_rows,
    validate_rows_match_jobs,
)
from repro.campaign.resume import completed_rows
from repro.campaign.sinks import row_line, write_lines_atomic
from repro.core.runner import CommitteeCoordinator
from repro.metrics.throughput import measure_throughput
from repro.workloads.scenarios import all_scenarios, scenario_by_name


def _cmd_scenarios(_: argparse.Namespace) -> int:
    rows = [
        {"name": s.name, "n": s.n, "m": s.m, "description": s.description}
        for s in all_scenarios()
    ]
    print(format_table(rows, title="Scenarios"))
    return 0


class _UnknownScenario(Exception):
    """An unknown ``--scenario``: :func:`main` prints it and exits 2."""


def _scenario(args: argparse.Namespace):
    try:
        return scenario_by_name(args.scenario)
    except KeyError as exc:
        raise _UnknownScenario(exc.args[0]) from None


def _coordinate(args: argparse.Namespace, **run_options):
    """``(scenario, outcome)``: the one coordinator ``run`` and ``check`` build."""
    scenario = _scenario(args)
    coordinator = CommitteeCoordinator(
        scenario.hypergraph,
        algorithm=args.algorithm,
        token=args.token,
        seed=args.seed,
        engine=args.engine,
    )
    outcome = coordinator.run(
        max_steps=args.steps,
        discussion_steps=args.discussion,
        from_arbitrary=args.arbitrary,
        **run_options,
    )
    return scenario, outcome


def _cmd_run(args: argparse.Namespace) -> int:
    scenario, outcome = _coordinate(args)
    row = {"scenario": scenario.name, "algorithm": args.algorithm}
    row.update(outcome.metrics.as_row())
    print(format_table([row], title=f"{args.algorithm.upper()} on {scenario.name}"))
    if args.verbose:
        for event in outcome.events[:50]:
            print(f"  {event.kind:9s} {tuple(event.committee.members)} at configuration {event.configuration_index}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    scenario, outcome = _coordinate(
        args,
        record_configurations=not args.sparse,
        check=True,
        stop_on_violation=args.stop_on_violation,
        grace_steps=args.grace,
        check_discussion=args.discussion_spec,
    )
    spec = outcome.spec
    assert spec is not None
    rows = spec.as_rows()
    fairness = spec.fairness
    # Fairness is a liveness notion rendered as counts on a finite run, so
    # it is reported informationally ("holds" stays blank) and does not
    # drive the exit code — only Exclusion/Synchronization/Progress do.
    rows.append(
        {
            "property": "Fairness",
            "holds": "-",
            "violations": (
                f"{len(fairness.starved_professors)}p/"
                f"{len(fairness.starved_committees)}c starved"
            ),
            "first": f"jain={fairness.professor_jain_index():.3f}",
        }
    )
    mode = "sparse" if args.sparse else "dense"
    title = (
        f"Spec check: {args.algorithm.upper()} on {scenario.name} "
        f"({args.engine} engine, {mode}, {outcome.steps} steps)"
    )
    print(format_table(rows, title=title))
    if outcome.result.stop_reason == "violation":
        print(f"run halted at first violation (step {spec.first_violation.step_index}):")
    if spec.first_violation is not None:
        print(spec.first_violation.describe())
    if fairness.starved_professors:
        print(f"starved professors: {fairness.starved_professors}")
    if fairness.starved_committees:
        print(f"starved committees: {fairness.starved_committees}")
    return 0 if spec.all_hold else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    bounds = bounds_for(scenario.hypergraph)
    row = {"scenario": scenario.name, "n": scenario.n, "m": scenario.m}
    row.update(bounds.as_row())
    print(format_table([row], title=f"Analytical bounds for {scenario.name}"))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    hypergraph = scenario.hypergraph
    rows = []
    for name in ("cc1", "cc2", "cc3"):
        coordinator = CommitteeCoordinator(hypergraph, algorithm=name, seed=args.seed)
        result = measure_throughput(coordinator.algorithm, max_steps=args.steps, seed=args.seed)
        row = {"algorithm": name}
        row.update(result.as_row())
        rows.append(row)
    baselines = [
        CentralizedGreedyCoordinator(hypergraph, seed=args.seed),
        DiningPhilosophersCoordinator(hypergraph, seed=args.seed),
        DrinkingPhilosophersCoordinator(hypergraph, seed=args.seed),
        ManagerTokenCoordinator(hypergraph, seed=args.seed),
        KumarTokenCoordinator(hypergraph, seed=args.seed),
    ]
    for baseline in baselines:
        result = baseline.run(rounds=args.rounds)
        row = {"algorithm": baseline.name}
        row.update(result.as_row())
        rows.append(row)
    print(format_table(rows, title=f"Comparison on {scenario.name}"))
    return 0


#: ``campaign`` flags that only shape *named*-scenario jobs; randomized
#: scenarios draw their own token/daemon/environment/fault dimensions from
#: their seed, so a random-only campaign silently ignoring these would be a
#: footgun — the CLI warns instead (see _warn_ignored_random_axes).
_NAMED_ONLY_AXES = ("--token", "--daemon", "--faults", "--environment", "--arbitrary")


def _warn_ignored_random_axes(args: argparse.Namespace) -> None:
    given = {
        "--token": bool(args.token),
        "--daemon": bool(args.daemon),
        "--faults": bool(args.faults),
        "--environment": args.environment != "always",
        "--arbitrary": args.arbitrary,
    }
    ignored = [flag for flag in _NAMED_ONLY_AXES if given[flag]]
    if ignored:
        print(
            f"campaign: warning: ignoring {', '.join(ignored)} — randomized "
            "scenarios draw their own token/daemon/environment/fault "
            "dimensions from their seed; these flags only apply to named "
            "scenarios (add --scenario to use them)",
            file=sys.stderr,
        )


def _expand_matrix(args: argparse.Namespace):
    """``(spec, jobs)`` from the shared matrix flags (campaign/collect).

    Every participant of a sharded campaign calls this with the same flag
    values, so everyone expands the identical job list — the property the
    collector's handshake fingerprint then enforces.  Raises
    ``_UnknownScenario`` for an unknown ``--scenario`` and ``ValueError``
    for other malformed matrices (the CLI maps both to exit 2).
    """
    scenarios = tuple(args.scenario or ())
    if not scenarios and not args.random:
        # Mirror the run/check default so a bare `repro-cc campaign` works.
        scenarios = ("figure1",)
    if not scenarios and args.random:
        _warn_ignored_random_axes(args)
    try:
        spec = CampaignSpec(
            scenarios=scenarios,
            random_count=args.random,
            random_base_seed=args.random_seed,
            algorithms=tuple(args.algorithm or ("cc2",)),
            tokens=tuple(args.token or ("tree",)),
            engines=tuple(args.engine or ("incremental",)),
            daemons=tuple(args.daemon or ("weakly_fair",)),
            faults=tuple(FaultSchedule.parse(text) for text in (args.faults or ("none",))),
            seeds=tuple(range(args.seed, args.seed + args.seeds)),
            max_steps=args.steps,
            discussion_steps=args.discussion,
            environment=args.environment,
            grace_steps=args.grace,
            arbitrary_start=args.arbitrary,
        )
    except KeyError as exc:  # an unknown --scenario
        raise _UnknownScenario(exc.args[0]) from None
    return spec, expand_jobs(spec)


def _parse_shard(text: str):
    """``"I/N"`` (1-based) -> 0-based ``(index, count)``; raises ValueError."""
    head, sep, tail = text.partition("/")
    if not sep or not head.isdigit() or not tail.isdigit():
        raise ValueError(f"bad --shard {text!r}: expected I/N, e.g. 2/3")
    index, count = int(head), int(tail)
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"bad --shard {text!r}: need 1 <= I <= N")
    return index - 1, count


def _check_campaign_flags(args: argparse.Namespace, shard_spec) -> None:
    """Reject flag combinations the pipeline cannot honor (CLI exit 2)."""
    if shard_spec is not None and not args.collector and not args.out:
        raise ValueError(
            "--shard without --collector needs --out (somewhere to "
            "keep the slice's rows for a later merge)"
        )
    if args.resume and not args.out:
        raise ValueError("--resume requires --out (the JSONL file to continue)")


def _warn(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Flag-parsing adapter over the layered campaign driver.

    Everything campaign-shaped — resume reconciliation, cache probing,
    dispatch, row fan-out, the summary and the atomic job-order rewrite —
    lives in :class:`repro.campaign.CampaignDriver`; this function only
    parses flags, builds the ``--out`` sink (resume appends, so prior rows
    are validated *before* the sink may touch the file) and maps the
    driver's exceptions onto exit codes.
    """
    sink = None
    try:
        shard_spec = _parse_shard(args.shard) if args.shard else None
        _check_campaign_flags(args, shard_spec)
        _spec, all_jobs = _expand_matrix(args)
        prior_rows: List[dict] = []
        if args.resume:
            prior_rows = read_rows(args.out)
            validate_rows_match_jobs(all_jobs, prior_rows)
        if args.out:
            sink = JsonlSink(args.out, append=args.resume)
        driver = CampaignDriver(
            all_jobs,
            jobs=args.jobs,
            mp_context=args.mp_context,
            sink=sink,
            timing=args.timing,
            cache=RunCache(args.cache) if args.cache else None,
            prior_rows=prior_rows,
            retry_errors=args.retry_errors,
            rerun_disagreements=args.rerun_disagreements,
            shard=shard_spec,
            collector=args.collector,
            out=args.out,
            info=print,
            warn=_warn,
        )
    except (ValueError, ResumeError) as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    try:
        driver.execute()
    except (ConnectionError, ShardProtocolError) as exc:
        # The collector vanished past the reconnect budget, or rejected this
        # shard outright (mismatched matrix).  Locally completed rows are in
        # --out (if given); the collector re-dispatches the rest.
        print(f"campaign: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        if args.out:
            print(
                f"\ncampaign: interrupted — completed rows are in {args.out}; "
                "rerun with --resume to finish the remaining jobs",
                file=sys.stderr,
            )
        return 130
    finally:
        if sink is not None:
            sink.close()
    try:
        return driver.finalize().exit_code
    except KeyboardInterrupt:
        if args.out:
            print(
                f"\ncampaign: interrupted during the final rewrite — "
                f"completed rows are in {args.out}; rerun with --resume "
                "to finish",
                file=sys.stderr,
            )
        return 130


def _write_rows(path: str, rows) -> None:
    """Atomically write rows via the canonical serializer (byte-identity).

    ``write_lines_atomic`` means a crash mid-write can never destroy the
    rows already collected at ``path`` — the collector's merge dump shares
    the campaign rewrite's atomicity guarantee.
    """
    write_lines_atomic(path, (row_line(row) for row in rows))


def _cmd_collect(args: argparse.Namespace) -> int:
    try:
        _spec, all_jobs = _expand_matrix(args)
    except ValueError as exc:
        print(f"collect: {exc}", file=sys.stderr)
        return 2
    prior_rows: List[dict] = []
    if args.resume:
        try:
            prior_rows = read_rows(args.out)
        except ResumeError as exc:
            print(f"collect: {exc}", file=sys.stderr)
            return 2
    try:
        collector = Collector(all_jobs, args.listen, prior_rows=prior_rows)
    except (ResumeError, ValueError) as exc:
        print(f"collect: {exc}", file=sys.stderr)
        return 2
    try:
        collector.start()
    except OSError as exc:
        print(f"collect: cannot listen on {args.listen}: {exc}", file=sys.stderr)
        return 2
    pending = collector.state.pending_count()
    resumed = len(all_jobs) - pending
    print(
        f"collect: listening on {collector.address} — "
        f"{pending} of {len(all_jobs)} job(s) to collect"
        + (f" ({resumed} resumed)" if resumed else "")
    )
    try:
        rows = collector.run(timeout=args.timeout)
    except KeyboardInterrupt:
        collector.close()
        _write_rows(args.out, collector.state.merged_rows())
        print(
            f"\ncollect: interrupted — collected rows are in {args.out}; "
            "rerun with --resume to collect the remaining jobs",
            file=sys.stderr,
        )
        return 130
    except TimeoutError as exc:
        _write_rows(args.out, collector.state.merged_rows())
        print(
            f"collect: {exc} — collected rows are in {args.out}; "
            "rerun with --resume to collect the remaining jobs",
            file=sys.stderr,
        )
        return 4
    results = [as_job_result(row) for row in rows]
    campaign = CampaignResult(
        jobs=list(all_jobs),
        results=results,
        workers=max(1, len(collector.state.shards)),
        elapsed_seconds=0.0,
    )
    # ``rows``: the merged rows are written verbatim (not re-derived), so
    # whatever the shards sent — including --timing fields — survives
    # byte-for-byte.
    outcome = Finalizer(out=args.out, info=print, prefix="collect").finalize(
        campaign,
        title=(
            f"Collected campaign: {len(rows)} rows via "
            f"{len(collector.state.shards)} shard connection(s) "
            f"({campaign.violations} with violations, {campaign.errors} errors)"
        ),
        rows=rows,
    )
    return outcome.exit_code


def _cmd_stats(args: argparse.Namespace) -> int:
    """Per-cell aggregates over an existing rows file, without re-running.

    Folds the rows through :class:`~repro.campaign.store.CellStats`, the
    fold the campaign summary table uses; the TOTAL row sums the cells.
    Like ``--resume``, it keeps the latest row of each job, in job order: a
    ``--retry-errors`` stream stopped before its final rewrite holds both
    the error row and its retry.
    """
    try:
        rows = read_rows(args.rows)
    except ResumeError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print(f"stats: no rows in {args.rows}", file=sys.stderr)
        return 2
    latest = [row for _, row in sorted(completed_rows(rows).items())]
    table = [
        {
            "scenario": cell.scenario,
            "algorithm": cell.algorithm,
            "runs": cell.runs,
            "violations": cell.violations,
            "errors": cell.errors,
            "steps": cell.steps,
            "jain min..max": cell.jain_spread,
        }
        for cell in CellStats.from_rows(latest).cells()
    ]
    total = {"scenario": "TOTAL", "algorithm": "-"}
    for key in ("runs", "violations", "errors", "steps"):
        total[key] = sum(row[key] for row in table)
    total["jain min..max"] = "-"
    table.append(total)
    print(format_table(table, title=f"Stats: {len(latest)} rows from {args.rows}"))
    return 0


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def _non_negative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return parsed


def _add_matrix_arguments(parser: argparse.ArgumentParser) -> None:
    """The campaign-matrix flags, shared verbatim by ``campaign`` and
    ``collect`` — both must expand the identical job list (the collector's
    handshake fingerprint rejects shards whose matrix drifted)."""
    parser.add_argument(
        "--scenario",
        action="append",
        help="named scenario (repeatable; default figure1 unless --random > 0)",
    )
    parser.add_argument(
        "--random",
        type=_non_negative_int,
        default=0,
        help="number of randomized scenarios to add (seeded, see "
        "repro.workloads.random_scenarios)",
    )
    parser.add_argument(
        "--random-seed",
        type=int,
        default=0,
        help="base seed for the randomized scenarios",
    )
    parser.add_argument(
        "--algorithm",
        action="append",
        choices=["cc1", "cc2", "cc3"],
        help="algorithm axis (repeatable; default cc2)",
    )
    parser.add_argument(
        "--token",
        action="append",
        choices=["tree", "ring", "oracle"],
        help="token substrate axis for named scenarios (repeatable; default tree)",
    )
    parser.add_argument(
        "--engine",
        action="append",
        choices=["dense", "incremental", "batched"],
        help="engine axis (repeatable; default incremental; 'batched' runs a "
        "cell's seed sweep in numpy lockstep at --jobs 1, but under a pool "
        "each seed runs as a one-lane batch — rows stay byte-identical to "
        "solo runs, requires the repro-cc[batched] extra)",
    )
    parser.add_argument(
        "--daemon",
        action="append",
        choices=["weakly_fair", "synchronous"],
        help="daemon axis for named scenarios (repeatable; default weakly_fair)",
    )
    parser.add_argument(
        "--faults",
        action="append",
        help="fault-schedule axis for named scenarios: 'none' or "
        "'EVERY:FRACTION', e.g. 50:0.4 (repeatable; default none)",
    )
    parser.add_argument(
        "--seeds",
        type=_positive_int,
        default=1,
        help="number of run seeds per matrix cell (consecutive from --seed)",
    )
    parser.add_argument("--seed", type=int, default=1, help="base run seed")
    parser.add_argument("--steps", type=_positive_int, default=2000, help="step budget per run")
    parser.add_argument("--discussion", type=_positive_int, default=1, help="voluntary discussion length, >= 1")
    parser.add_argument(
        "--environment",
        default="always",
        help="request model for named scenarios: always, probabilistic[:P] "
        "or bursty[:ACTIVE:QUIET]",
    )
    parser.add_argument(
        "--grace",
        type=_positive_int,
        default=None,
        help="Progress tail window, >= 1 (default: half the trace)",
    )
    parser.add_argument(
        "--arbitrary",
        action="store_true",
        help="start named-scenario runs from arbitrary configurations",
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The one-run flags, shared verbatim by ``run`` and ``check``."""
    parser.add_argument("--scenario", default="figure1")
    parser.add_argument("--algorithm", default="cc2", choices=["cc1", "cc2", "cc3"])
    parser.add_argument("--token", default="tree", choices=["tree", "ring", "oracle"])
    parser.add_argument(
        "--engine",
        default="incremental",
        choices=["dense", "incremental"],
        help="execution engine (default: incremental — copy-on-write + "
        "delta-driven enabled-set reuse; traces and verdicts are identical "
        "to the reference double-sweep dense engine for any seed)",
    )
    parser.add_argument(
        "--steps",
        type=_positive_int,
        default=2000,
        help="step budget, >= 1 (a zero-step check would vacuously 'hold')",
    )
    parser.add_argument("--discussion", type=_positive_int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--arbitrary", action="store_true", help="start from an arbitrary configuration")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-cc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios", help="list available scenarios").set_defaults(func=_cmd_scenarios)

    run = sub.add_parser("run", help="run one algorithm on a scenario")
    _add_run_arguments(run)
    run.add_argument("--verbose", action="store_true", help="print meeting events")
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser(
        "check",
        help="run with streaming spec monitors and print property verdicts",
    )
    _add_run_arguments(check)
    check.add_argument(
        "--sparse",
        action="store_true",
        help="record_configurations=False: verdicts are computed online, in "
        "memory constant in the run length (O(n + m))",
    )
    check.add_argument(
        "--stop-on-violation",
        action="store_true",
        help="halt at the first safety violation and print the counterexample window",
    )
    check.add_argument(
        "--grace",
        type=_positive_int,
        default=None,
        help="Progress tail window in configurations, >= 1 (default: half the trace)",
    )
    check.add_argument(
        "--discussion-spec",
        action="store_true",
        help="also stream the 2-phase discussion checkers (EssentialDiscussion/"
        "VoluntaryDiscussion rows; their verdicts then drive the exit code too)",
    )
    check.set_defaults(func=_cmd_check)

    bounds = sub.add_parser("bounds", help="print analytical bounds for a scenario")
    bounds.add_argument("--scenario", default="figure1")
    bounds.set_defaults(func=_cmd_bounds)

    compare = sub.add_parser("compare", help="compare CC1/CC2/CC3 and the baselines")
    compare.add_argument("--scenario", default="figure1")
    compare.add_argument("--steps", type=_positive_int, default=2000)
    compare.add_argument("--rounds", type=_positive_int, default=400)
    compare.add_argument("--seed", type=int, default=1)
    compare.set_defaults(func=_cmd_compare)

    campaign = sub.add_parser(
        "campaign",
        help="run a scenario matrix across worker processes with all "
        "streaming monitors attached",
    )
    _add_matrix_arguments(campaign)
    campaign.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes (rows are byte-identical for any value)",
    )
    campaign.add_argument(
        "--out",
        default=None,
        help="write one JSON row per run to this file; rows are flushed as "
        "jobs complete (crash-safe) and rewritten in job order at the end",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted campaign: read the --out file, keep "
        "its completed rows and execute only the missing jobs (the final "
        "file is byte-identical to an uninterrupted run)",
    )
    campaign.add_argument(
        "--retry-errors",
        action="store_true",
        help="with --resume: also re-execute jobs whose previous row was an "
        "error row (transient worker failures)",
    )
    campaign.add_argument(
        "--rerun-disagreements",
        action="store_true",
        help="after the matrix completes, re-run every cell whose verdicts "
        "disagree across seeds with as many fresh seeds (appended "
        "deterministically)",
    )
    campaign.add_argument(
        "--timing",
        action="store_true",
        help="include per-run steps/sec in --out rows (machine-dependent: "
        "breaks byte-for-byte reproducibility)",
    )
    campaign.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run only the I-th of N contiguous job ranges (1-based); with "
        "--collector the range is announced and acked, without it --out "
        "keeps the slice for a later merge",
    )
    campaign.add_argument(
        "--collector",
        default=None,
        metavar="ADDRESS",
        help="deliver rows (acked, reconnecting) to a `repro-cc collect` "
        "service at 'tcp:HOST:PORT' or 'unix:PATH'; without --shard, pull "
        "job batches from it until the campaign is done",
    )
    campaign.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="content-addressed run cache: jobs whose identity block "
        "already has a cached row skip execution and emit the stored row "
        "(byte-identical — rows are pure functions of their jobs); every "
        "freshly executed non-error row is stored back",
    )
    campaign.add_argument(
        "--mp-context",
        choices=["spawn", "fork"],
        default="spawn",
        help="multiprocessing start method for the --jobs worker pool "
        "(default spawn — available everywhere and the strictest about "
        "what a worker receives; fork skips the per-worker interpreter "
        "start-up that dominates very small campaigns on POSIX; rows are "
        "byte-identical either way)",
    )
    campaign.set_defaults(func=_cmd_campaign)

    collect = sub.add_parser(
        "collect",
        help="collector service for sharded campaigns: lease job ranges to "
        "shards, validate and merge their rows byte-identically",
    )
    collect.add_argument(
        "--listen",
        required=True,
        help="address to listen on: 'tcp:HOST:PORT' (PORT 0 picks a free "
        "port) or 'unix:PATH'",
    )
    collect.add_argument(
        "--out",
        required=True,
        help="write the merged campaign JSONL here, in job order "
        "(byte-identical to running the same matrix with --jobs 1)",
    )
    collect.add_argument(
        "--resume",
        action="store_true",
        help="preload the rows already present in --out; shards are only "
        "handed the missing jobs",
    )
    collect.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up after this many seconds without completion (collected "
        "rows are written for a --resume retry; exit 4)",
    )
    _add_matrix_arguments(collect)
    collect.set_defaults(func=_cmd_collect)

    stats = sub.add_parser(
        "stats",
        help="per-cell aggregates over an existing campaign rows file "
        "(counts, step totals, Jain spread) without re-running",
    )
    stats.add_argument(
        "rows",
        help="campaign JSONL file (a campaign/collect --out artifact)",
    )
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UnknownScenario as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
