#!/usr/bin/env python3
"""Record the rows every workload must produce at the default seed.

Usage, from the root of a checkout::

    python3 perfbench/capture.py

For every workload this runs each of the default seed's ``INSTANCES``
campaigns once, then cross-checks its rows against another engine before
recording them:

* ``engine: batched`` workloads: every row must equal the row of the same
  campaign run with ``--engine incremental``, with ``engine`` rewritten;
* every other workload: every ``SAMPLE_EVERY``-th job is re-run solo with
  ``engine="dense"``, and its row (``engine`` rewritten) must equal the
  campaign's row.

Only when every cross-check passes is ``digests.json`` rewritten, with each
file's sha256 and row count per campaign seed, which ``run.py`` compares
against.  Re-run it only when a change is meant to alter rows.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import INSTANCES, campaign_argv, campaign_seed, expected_jobs, load_data  # noqa: E402

#: Every how many jobs a solo workload is re-run on the dense engine.
SAMPLE_EVERY = 4


def campaign_rows(workload, seed, workdir, engine=None):
    """Run one campaign in-process; returns its ``--out`` file's bytes."""
    import repro.cli

    workload = json.loads(json.dumps(workload))
    if engine is not None:
        workload["flags"]["engine"] = [engine]
    out = os.path.join(workdir, "rows.jsonl")
    cache = os.path.join(workdir, f"cache-{engine}") if workload["cache"] else None
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(["campaign", *campaign_argv(workload, seed, out, cache)])
    if code not in (0, 1):
        raise SystemExit(f"campaign exited {code}")
    with open(out, "rb") as fh:
        return fh.read()


def cross_check(name, workload, seed, data, workdir):
    """Raise ``SystemExit`` unless the rows agree with another engine."""
    from repro.campaign.jobs import execute_job
    from repro.campaign.sinks import row_line

    rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    if "batched" in workload["flags"].get("engine", ()):
        other = campaign_rows(workload, seed, workdir, engine="incremental")
        reference = [json.loads(line) for line in other.decode("utf-8").splitlines()]
        checked = list(range(len(rows)))
        how = "every row equals its --engine incremental row"
    else:
        jobs = expected_jobs(campaign_argv(workload, seed))
        checked = list(range(0, len(jobs), SAMPLE_EVERY))
        reference = {
            index: execute_job(dataclasses.replace(jobs[index], engine="dense")).row
            for index in checked
        }
        how = f"every {SAMPLE_EVERY}th row equals its solo engine=dense row"
    for index in checked:
        expected = dict(reference[index])
        expected["engine"] = rows[index]["engine"]
        if row_line(expected) != row_line(rows[index]):
            raise SystemExit(f"{name}: job {index} differs between engines")
    return f"{how} ({len(checked)} of {len(rows)} rows)"


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    catalogue = load_data("workloads.json")
    seed = catalogue["default_seed"]
    digests = {}
    for name, workload in sorted(catalogue["workloads"].items()):
        instances = []
        for number in range(INSTANCES):
            instance_seed = campaign_seed(seed, number)
            with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-capture-") as workdir:
                data = campaign_rows(workload, instance_seed, workdir)
                how = cross_check(name, workload, instance_seed, data, workdir)
            instances.append({
                "campaign_seed": instance_seed,
                "jobs": len(data.splitlines()),
                "sha256": hashlib.sha256(data).hexdigest(),
            })
            print(f"{name} campaign seed {instance_seed}: {how}", flush=True)
        digests[name] = {"seed": seed, "cross_check": how, "instances": instances}
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
