"""Drift tests for the RC0xx repo-hygiene passes (``tools/staticcheck/repo_checks.py``).

Each pass must actually bite: a seeded defect in a scratch repo layout (or
a scratch document) surfaces as a
:class:`~tools.staticcheck.diagnostics.Diagnostic` at the file and line of
the defect, with the pass's code.  That the live tree is clean under every
pass is asserted once, through the registry, in
``tests/test_staticcheck.py::test_full_registry_clean_including_repo_checks``.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.staticcheck import Diagnostic, Project
from tools.staticcheck import repo_checks
from tools.staticcheck.repo_checks import CliAdapterPass, CliDocsPass, DocLinksPass


def _located(diagnostics):
    return [(d.path, d.line, d.code) for d in diagnostics]


def test_cli_thin_adapter_checker_catches_drift(tmp_path):
    # Every forbidden spelling must bite: plain imports, aliased imports,
    # submodule imports and both from-forms of the batched module — while
    # the driver import (the sanctioned path) stays clean.
    cli = tmp_path / "src" / "repro" / "cli.py"
    cli.parent.mkdir(parents=True)
    cli.write_text(
        "import multiprocessing\n"
        "import multiprocessing.pool\n"
        "import socket as s\n"
        "from repro.campaign import batched\n"
        "from repro.campaign.batched import group_jobs\n"
        "from repro.campaign.driver import CampaignDriver\n"  # allowed
        "from repro.campaign import driver\n"                 # allowed
    )
    found = CliAdapterPass().run(Project.load(tmp_path))
    assert _located(found) == [("src/repro/cli.py", line, "RC010") for line in range(1, 6)]
    assert all("thin-adapter" in d.message for d in found)
    assert "batched" in found[3].message


def test_document_names_in_sources_must_exist(tmp_path):
    # A NAME.md mentioned in a src/ or benchmarks/ source must exist at the
    # repo root or under docs/; each dangling one is reported at its line.
    (tmp_path / "README.md").write_text("# Readme\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "GUIDE.md").write_text("# Guide\n")
    module = tmp_path / "src" / "repro" / "example.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        '"""See README.md and docs/GUIDE.md.\n'
        "\n"
        'The substitution is recorded in DESIGN.md \u00a73.\n"""\n'
    )
    bench = tmp_path / "benchmarks" / "bench_example.py"
    bench.parent.mkdir()
    bench.write_text('"""Regenerates a table of EXPERIMENTS.md."""\n')
    found = sorted(DocLinksPass().run(Project.load(tmp_path)))
    assert _located(found) == [
        ("benchmarks/bench_example.py", 1, "RC002"),
        ("src/repro/example.py", 3, "RC002"),
    ]
    assert [d.message for d in found] == [
        "unknown document EXPERIMENTS.md",
        "unknown document DESIGN.md",
    ]


def test_cli_docs_are_checked_per_subcommand_section(tmp_path):
    # The flag checker must actually bite: an undocumented-but-real flag set
    # and a documented-but-fake flag both surface as errors.
    flags = repo_checks._parser_flags()
    assert "--stop-on-violation" in flags["check"]
    assert "--engine" in flags["run"]
    # Flag completeness is per subcommand section: --engine appearing only
    # in the check section must still flag the run section as incomplete,
    # at the line of the run section's heading.
    text = (
        "## `repro-cc run`\n\nsome text, no flags\n\n"
        "## `repro-cc check`\n\n| `--engine` | ... |\n| `--no-such-flag` | ... |\n"
    )
    sections = repo_checks._subcommand_sections(text)
    assert sections["run"][0] == 1 and sections["check"][0] == 5
    assert "--engine" in sections["check"][1] and "--engine" not in sections["run"][1]
    doc = tmp_path / "docs" / "CLI.md"
    doc.parent.mkdir()
    doc.write_text(text)
    found = CliDocsPass().run(Project.load(tmp_path))
    assert all(d.path == "docs/CLI.md" and d.code == "RC003" for d in found)
    assert Diagnostic(
        "docs/CLI.md", 1, "RC003", "section `repro-cc run` does not document its flag --engine"
    ) in found
    assert Diagnostic(
        "docs/CLI.md", 8, "RC003", "names a flag the CLI does not define: --no-such-flag"
    ) in found
    assert not any("`repro-cc check` does not document its flag --engine" in d.message
                   for d in found)


def test_doc_references_report_their_real_line(tmp_path):
    # A broken relative link, an unknown module reference and an unknown
    # benchmark reference are each reported at the line that holds them;
    # the good link and the importable module on the same lines are not.
    doc = tmp_path / "docs" / "GUIDE.md"
    doc.parent.mkdir()
    doc.write_text(
        "# Guide\n"
        "\n"
        "See [this guide](GUIDE.md) and [the missing one](nowhere.md#top).\n"
        "The scheduler is `repro.kernel.scheduler`, not `repro.kernel.no_such`.\n"
        "Reproduce it with `benchmarks/bench_no_such.py`.\n"
        "Run `repro.campaign.driver.CampaignDriver.execute`, not\n"
        "`repro.campaign.driver.CampaignDriver.no_such`.\n"
    )
    found = DocLinksPass().run(Project.load(tmp_path))
    assert _located(found) == [
        ("docs/GUIDE.md", 3, "RC002"),
        ("docs/GUIDE.md", 4, "RC002"),
        ("docs/GUIDE.md", 7, "RC002"),
        ("docs/GUIDE.md", 5, "RC002"),
    ]
    assert [d.message for d in found] == [
        "broken relative link -> nowhere.md",
        "unknown module reference `repro.kernel.no_such`",
        "unknown module reference `repro.campaign.driver.CampaignDriver.no_such`",
        "unknown benchmark reference benchmarks/bench_no_such.py",
    ]


def test_module_member_and_xref_resolution():
    resolves = repo_checks._module_resolves
    assert not resolves("repro.does_not_exist")
    assert resolves("repro")  # bare package name
    assert resolves("repro.kernel.scheduler")
    assert resolves("repro.kernel.trace")
    # Class-qualified references resolve through the attribute fallback ...
    assert resolves("repro.kernel.trace.StepDelta")
    assert resolves("repro.kernel.StepDelta")
    assert resolves("repro.kernel.scheduler.Scheduler")
    # ... and typos in either half still fail.
    assert not resolves("repro.kernel.trace.StepDeltaX")
    assert not resolves("repro.kernel.tracee.StepDelta")
    # The docs regex captures class- and member-qualified names so they are
    # validated.
    assert "repro.kernel.trace.StepDelta" in repo_checks._MODULE_RE.findall(
        "see `repro.kernel.trace.StepDelta` for details"
    )
    assert repo_checks._MODULE_RE.findall(
        "`repro.campaign.driver.CampaignDriver.no_such` and `repro.kernel.StopRun.reason`"
    ) == ["repro.campaign.driver.CampaignDriver.no_such", "repro.kernel.StopRun.reason"]
    # Attribute chains resolve through methods and dataclass fields (a field
    # without a default is no class attribute), and typos still fail.
    assert resolves("repro.campaign.driver.CampaignDriver.execute")
    assert resolves("repro.campaign.jobs.JobResult.elapsed_seconds")
    assert not resolves("repro.campaign.jobs.JobResult.elapsed")
    assert not resolves("repro.campaign.jobs.JobResult.row.keys")
    # Code docstring cross-references are checked too, with their line.
    errors = repo_checks._xref_errors(
        "src/repro/example.py",
        '"""Doc.\n\nSee :func:`~repro.campaign.driver.run_everything` and\n'
        ':class:`repro.campaign.driver.CampaignDriver`, :meth:`Local.name`.\n"""\n',
    )
    assert errors == [
        Diagnostic(
            "src/repro/example.py", 3, "RC002",
            "unknown cross-reference :func:`repro.campaign.driver.run_everything`",
        )
    ]
    # Bare `Class.member` references in docs resolve against the public
    # classes defined under repro: a removed method (even when called with
    # arguments) fails, dataclass fields count, and names that are no repro
    # class are left alone.
    errors = repo_checks._member_ref_errors(
        "docs/EXAMPLE.md",
        "Use `Scheduler.set_configuration` and `JobResult.elapsed_seconds`.\n"
        "Call `Scheduler.run(max_rounds=5)`, not `Scheduler.rewind(5)`;\n"
        "`config.get` and `Local.name` are not repro classes.\n",
        repo_checks._public_classes(Project.load(REPO_ROOT)),
    )
    assert errors == [
        Diagnostic("docs/EXAMPLE.md", 2, "RC002", "unknown member reference `Scheduler.rewind`")
    ]
