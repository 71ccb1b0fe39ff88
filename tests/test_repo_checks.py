"""Tier-1 wiring for ``tools/check_repo.py``.

Runs the repo hygiene checks as part of the ordinary test suite so that
tracked ``.pyc`` files, broken ``docs/`` links/module references, and
``docs/CLI.md`` flag drift against ``repro.cli`` fail CI, not a reader.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_repo():
    spec = importlib.util.spec_from_file_location(
        "check_repo", REPO_ROOT / "tools" / "check_repo.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_repo = _load_check_repo()


def test_no_tracked_bytecode():
    assert check_repo.check_no_tracked_bytecode() == []


def test_docs_links_and_module_references_resolve():
    assert check_repo.check_doc_links() == []


def test_cli_docs_match_parser():
    assert check_repo.check_cli_docs() == []


def test_perf_rows_match_schemas():
    assert check_repo.check_perf_rows() == []


def test_spawn_entry_points_resolvable():
    assert check_repo.check_spawn_entry_points() == []


def test_cli_stays_a_thin_adapter():
    assert check_repo.check_cli_thin_adapter() == []


def test_cli_thin_adapter_checker_catches_drift(tmp_path, monkeypatch):
    # Every forbidden spelling must bite: plain imports, aliased imports,
    # submodule imports and both from-forms of the batched module — while
    # the driver import (the sanctioned path) stays clean.
    bad = tmp_path / "cli.py"
    bad.write_text(
        "import multiprocessing\n"
        "import multiprocessing.pool\n"
        "import socket as s\n"
        "from repro.campaign import batched\n"
        "from repro.campaign.batched import group_jobs\n"
        "from repro.campaign.driver import CampaignDriver\n"  # allowed
        "from repro.campaign import driver\n"                 # allowed
    )
    monkeypatch.setattr(check_repo, "CLI_PATH", bad)
    errors = check_repo.check_cli_thin_adapter()
    assert len(errors) == 5
    assert all("thin-adapter" in e for e in errors)
    assert any(":4:" in e and "batched" in e for e in errors)
    assert not any(":6:" in e or ":7:" in e for e in errors)


def test_perf_row_checker_catches_drift(tmp_path, monkeypatch):
    # The schema checker must actually bite: unknown bench names, missing
    # fields and malformed lines all surface as errors.
    rows = tmp_path / "perf_rows.jsonl"
    rows.write_text(
        '{"bench": "engine_scaling", "engine": "dense", "n": 1, "steps": 2, '
        '"steps_per_sec": 3.0, "timestamp": 1.0}\n'          # ok
        '{"bench": "mystery_bench", "timestamp": 1.0}\n'     # unknown bench
        '{"bench": "campaign_scaling", "timestamp": 1.0}\n'  # missing fields
        "not json at all\n"                                  # malformed
        '{"engine": "dense", "timestamp": 1.0}\n'            # no bench
    )
    monkeypatch.setattr(check_repo, "PERF_ROWS_PATH", rows)
    errors = check_repo.check_perf_rows()
    assert len(errors) == 4
    assert any("mystery_bench" in e for e in errors)
    assert any("missing field" in e for e in errors)
    assert any("not valid JSON" in e for e in errors)
    assert any("missing string 'bench'" in e for e in errors)


def test_checks_catch_drift():
    # The flag checker must actually bite: an undocumented-but-real flag set
    # and a documented-but-fake flag both surface as errors.
    flags = check_repo._parser_flags()
    assert "--stop-on-violation" in flags["check"]
    assert "--engine" in flags["run"]
    # Flag completeness is per subcommand section: --engine appearing only
    # in the check section must still flag the run section as incomplete.
    sections = check_repo._subcommand_sections(
        "## `repro-cc run`\n\nsome text, no flags\n\n"
        "## `repro-cc check`\n\n| `--engine` | ... |\n"
    )
    assert "--engine" in sections["check"] and "--engine" not in sections["run"]
    assert not check_repo._module_resolves("repro.does_not_exist")
    assert check_repo._module_resolves("repro")  # bare package name
    assert check_repo._module_resolves("repro.kernel.scheduler")
    assert check_repo._module_resolves("repro.kernel.trace")
    # Class-qualified references resolve through the attribute fallback ...
    assert check_repo._module_resolves("repro.kernel.trace.StepDelta")
    assert check_repo._module_resolves("repro.kernel.StepDelta")
    assert check_repo._module_resolves("repro.kernel.scheduler.Scheduler")
    # ... and typos in either half still fail.
    assert not check_repo._module_resolves("repro.kernel.trace.StepDeltaX")
    assert not check_repo._module_resolves("repro.kernel.tracee.StepDelta")
    # The docs regex captures class-qualified names so they are validated.
    assert "repro.kernel.trace.StepDelta" in check_repo._MODULE_RE.findall(
        "see `repro.kernel.trace.StepDelta` for details"
    )
    # Attribute chains resolve through methods and dataclass fields (a field
    # without a default is no class attribute), and typos still fail.
    assert check_repo._module_resolves("repro.campaign.driver.CampaignDriver.execute")
    assert check_repo._module_resolves("repro.campaign.jobs.JobResult.elapsed_seconds")
    assert not check_repo._module_resolves("repro.campaign.jobs.JobResult.elapsed")
    assert not check_repo._module_resolves("repro.campaign.jobs.JobResult.row.keys")
    # Code docstring cross-references are checked too, with their line.
    errors = check_repo._xref_errors(
        "src/repro/example.py",
        '"""Doc.\n\nSee :func:`~repro.campaign.driver.run_everything` and\n'
        ':class:`repro.campaign.driver.CampaignDriver`, :meth:`Local.name`.\n"""\n',
    )
    assert errors == [
        "src/repro/example.py:3: unknown cross-reference "
        ":func:`repro.campaign.driver.run_everything`"
    ]
