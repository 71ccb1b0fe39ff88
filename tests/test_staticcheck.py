"""Tier-1 wiring for the ``repro-lint`` static-analysis suite.

Four layers of assurance:

* **corpus** — ``tests/fixtures/staticcheck/`` holds deliberately-bad (and
  deliberately-clean) snippets; every offending line carries an
  ``# expect: CODE`` marker (``# expect-suppressed: CODE`` for lines whose
  suppression must be honored).  The tests assert the AST passes emit
  *exactly* the marked diagnostics — each pass both fires and suppresses;
* **live tree** — the full pass registry (AST + RC0xx repo checks) runs
  clean on the repository itself, which is the acceptance bar every future
  PR inherits;
* **mutation** — seeding a known-bad mutation (an undeclared writer
  variable in ``CC1Algorithm``) into a copy of the tree is caught
  statically, proving the writer-set pass guards the real algorithms, not
  just the corpus;
* **CLI** — exit codes, ``--format json`` determinism, pass selection.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.staticcheck import ALL_CODES, Project, active, ast_passes, run_passes
from tools.staticcheck.cli import main as lint_main
from tools.staticcheck.diagnostics import (
    Diagnostic,
    apply_suppressions,
    parse_suppressions,
    render_json,
)
from tools.staticcheck.registry import REPO_PASSES, all_passes, known_pass_names
from tools.staticcheck.writer_sets import WriterSetConformancePass

FIXTURES = REPO_ROOT / "tests" / "fixtures" / "staticcheck"

#: ``# expect: RL101`` / ``# expect-suppressed: RL106, RL102`` markers.
_MARKER_RE = re.compile(r"#\s*expect(?P<suppressed>-suppressed)?:\s*(?P<codes>[A-Z0-9_,\s]+)")


def _expected_markers():
    """``(filename, line, code, suppressed)`` for every corpus marker."""
    expected = set()
    for path in sorted(FIXTURES.glob("*.py")):
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = _MARKER_RE.search(line)
            if not match:
                continue
            for code in match.group("codes").split(","):
                code = code.strip()
                if code:
                    expected.add(
                        (path.name, lineno, code, bool(match.group("suppressed")))
                    )
    return expected


def _corpus_project() -> Project:
    return Project.from_files(sorted(FIXTURES.glob("*.py")), root=FIXTURES)


# --------------------------------------------------------------------------- #
# corpus: every pass fires exactly where the markers say, and nowhere else
# --------------------------------------------------------------------------- #
def test_corpus_matches_markers_exactly():
    expected = _expected_markers()
    assert expected, "fixture corpus has no markers — corpus broken"
    diagnostics = run_passes(_corpus_project(), ast_passes())
    emitted = {(d.path, d.line, d.code, d.suppressed) for d in diagnostics}
    assert emitted == expected


def test_corpus_covers_every_ast_code():
    """Each RL code both fires somewhere and (for a core code per pass family)
    is proven suppressible — a pass whose bug class the corpus cannot
    reproduce is a pass nobody can trust."""
    expected = _expected_markers()
    fired = {code for (_f, _l, code, _s) in expected}
    ast_codes = {code for factory in ast_passes() for code in factory.codes}
    assert fired == ast_codes
    suppressed = {code for (_f, _l, code, sup) in expected if sup}
    # one honored suppression per pass family (RL1/RL2/RL4) plus the
    # multi-code comma form
    assert {"RL101", "RL102", "RL106", "RL201", "RL401"} <= suppressed


def test_good_files_are_clean():
    diagnostics = run_passes(_corpus_project(), ast_passes())
    clean_files = {"good.py", "writer_good.py", "listener_good.py"}
    assert not [d for d in diagnostics if d.path in clean_files]


# --------------------------------------------------------------------------- #
# suppression mechanics
# --------------------------------------------------------------------------- #
def test_parse_suppressions_forms():
    text = (
        "x = 1  # repro-lint: disable=RL101 -- why\n"
        "y = 2  # repro-lint: disable=RL102,RL106\n"
        "z = 3  # unrelated comment\n"
    )
    assert parse_suppressions(text) == {1: {"RL101"}, 2: {"RL102", "RL106"}}


def test_apply_suppressions_marks_not_drops():
    diags = [Diagnostic("f.py", 1, "RL101", "a"), Diagnostic("f.py", 2, "RL101", "b")]
    marked = apply_suppressions(diags, {1: {"RL101"}})
    assert [d.suppressed for d in marked] == [True, False]
    assert [d.code for d in active(marked)] == ["RL101"]


def test_render_json_is_deterministic_and_sorted():
    diags = [
        Diagnostic("b.py", 9, "RL102", "later"),
        Diagnostic("a.py", 1, "RL101", "first"),
        Diagnostic("a.py", 1, "RL101", "suppressed", suppressed=True),
    ]
    rows = json.loads(render_json(diags))
    assert [r["path"] for r in rows] == ["a.py", "b.py"]
    assert all(not r["suppressed"] for r in rows)
    rows_all = json.loads(render_json(diags, show_suppressed=True))
    assert len(rows_all) == 3


# --------------------------------------------------------------------------- #
# live tree: the acceptance bar
# --------------------------------------------------------------------------- #
def test_live_tree_suppressions_are_justified():
    """Every suppression in the tree carries a ``--`` justification — the
    convention that keeps ``disable=`` from becoming a blanket mute."""
    project = Project.load(REPO_ROOT)
    bare = []
    for source in project.files:
        for lineno, line in enumerate(source.text.splitlines(), start=1):
            if "repro-lint: disable=" in line and "--" not in line.split("disable=", 1)[1]:
                bare.append(f"{source.rel}:{lineno}")
    assert bare == []


def test_full_registry_clean_including_repo_checks():
    project = Project.load(REPO_ROOT)
    diagnostics = run_passes(project, all_passes())
    assert active(diagnostics) == []


def test_repo_check_passes_skip_fixture_projects():
    project = _corpus_project()
    for factory in REPO_PASSES:
        assert factory().run(project) == []


# --------------------------------------------------------------------------- #
# mutation: the known-bad seed the writer-set pass must catch
# --------------------------------------------------------------------------- #
def test_undeclared_writer_mutation_is_caught(tmp_path):
    mutated_root = tmp_path / "repo"
    shutil.copytree(
        REPO_ROOT / "src",
        mutated_root / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cc1 = mutated_root / "src" / "repro" / "core" / "cc1.py"
    text = cc1.read_text(encoding="utf-8")
    needle = 'ctx.write(STATUS, LOOKING)'
    assert needle in text
    cc1.write_text(
        text.replace(needle, needle + '\n            ctx.write("Z9", 1)', 1),
        encoding="utf-8",
    )
    project = Project.load(mutated_root)
    findings = active(run_passes(project, [WriterSetConformancePass()]))
    assert any(
        d.code == "RL201" and d.path.endswith("core/cc1.py") and "'Z9'" in d.message
        for d in findings
    ), findings


def test_undeclared_neighbour_read_mutation_is_caught(tmp_path):
    mutated_root = tmp_path / "repo"
    shutil.copytree(
        REPO_ROOT / "src",
        mutated_root / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cc1 = mutated_root / "src" / "repro" / "core" / "cc1.py"
    text = cc1.read_text(encoding="utf-8")
    # CC1's guards only declare S/P/T of neighbours; reading the CC2/CC3
    # lock flag "L" of a neighbour is exactly the drift RL202 exists for.
    # The read indexes FreeEdges' ``states = ctx.states`` row mapping.
    needle = "if states[q][STATUS] != LOOKING:"
    assert needle in text
    cc1.write_text(
        text.replace(needle, 'if states[q]["L"] != LOOKING:', 1),
        encoding="utf-8",
    )
    project = Project.load(mutated_root)
    findings = active(run_passes(project, [WriterSetConformancePass()]))
    assert any(
        d.code == "RL202" and d.path.endswith("core/cc1.py") and "'L'" in d.message
        for d in findings
    ), findings


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def test_cli_file_mode_exit_codes(capsys):
    assert lint_main([str(FIXTURES / "good.py")]) == 0
    assert "clean" in capsys.readouterr().out
    assert lint_main([str(FIXTURES / "det_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "det_bad.py:20: RL101" in out


def test_cli_json_format(capsys):
    assert lint_main(["--format", "json", str(FIXTURES / "det_bad.py")]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert all(set(r) == {"path", "line", "code", "message", "suppressed"} for r in rows)
    codes = {r["code"] for r in rows}
    assert codes == {"RL101", "RL102", "RL103", "RL104", "RL105", "RL106"}


def test_cli_suppressed_only_file_is_clean_but_visible(capsys):
    assert lint_main([str(FIXTURES / "det_suppressed.py")]) == 0
    assert lint_main(["--show-suppressed", str(FIXTURES / "det_suppressed.py")]) == 0
    out = capsys.readouterr().out
    assert "[suppressed]" in out


def test_cli_pass_selection(capsys):
    # determinism-only over the writer corpus: nothing to report
    assert lint_main(["--passes", "determinism", str(FIXTURES / "writer_bad.py")]) == 0
    capsys.readouterr()
    assert lint_main(["--passes", "writer-sets", str(FIXTURES / "writer_bad.py")]) == 1
    assert "RL201" in capsys.readouterr().out


def test_cli_unknown_pass_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        lint_main(["--passes", "no-such-pass"])
    assert excinfo.value.code == 2


def test_cli_list_passes(capsys):
    assert lint_main(["--list-passes"]) == 0
    out = capsys.readouterr().out
    for name in known_pass_names():
        assert name in out
    for code in ALL_CODES:
        assert code in out


# --------------------------------------------------------------------------- #
# registry hygiene
# --------------------------------------------------------------------------- #
def test_codes_are_unique_across_passes():
    seen = {}
    for pass_ in all_passes():
        for code in pass_.codes:
            assert code not in seen, f"{code} claimed by {seen.get(code)} and {pass_.name}"
            seen[code] = pass_.name
    assert set(seen) == set(ALL_CODES)


def test_every_code_is_documented():
    doc = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text(encoding="utf-8")
    for code in ALL_CODES:
        assert code in doc, f"{code} missing from docs/STATIC_ANALYSIS.md"
    for name in known_pass_names():
        assert name in doc, f"pass {name!r} missing from docs/STATIC_ANALYSIS.md"
