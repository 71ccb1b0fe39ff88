"""RL4xx — scheduler listener / observer protocol conformance.

Scheduler step listeners (``observe_step(configuration, record)`` methods
attached via ``step_listener=``) run *inside* the scheduler loop,
``Scheduler.run`` is the one loop that steps a run, and
``DistributedAlgorithm.enabled_action`` is the one entry point that walks
guards.  The contract (docs/ARCHITECTURE.md, "observer protocol", "one run
loop" and "action tables") has four load-bearing clauses this pass checks
statically:

========  ==================================================================
RL401     ``observe_step`` may raise only :class:`repro.kernel.StopRun` (or
          a subclass, e.g. ``SpecViolationError``) — anything else aborts
          the scheduler mid-step and, under a campaign worker, poisons the
          whole job batch instead of recording a clean early stop
RL402     an epoch-sensitive listener: ``observe_step`` consumes the
          incremental ``record.delta`` but neither handles configuration
          epochs itself (no ``epoch`` bookkeeping anywhere in the class)
          nor delegates the delta to a stream that does — after
          ``set_configuration`` its incremental state silently desyncs
RL403     a ``.step()`` call outside ``repro/kernel/scheduler.py``: a
          hand-written run loop, which skips ``Scheduler.run``'s fault
          schedule, stop predicate, idle ticks and ``StopRun`` handling
RL404     a ``.guard(`` call outside ``repro/kernel/algorithm.py`` and
          ``repro/kernel/composition.py``: a hand-written guard walk, which
          skips the status-keyed action tables and ``enabled_action``, the
          one entry point a tracer counts
========  ==================================================================

RL401 resolves raised names through the project class index, so a local
``class SpecViolationError(StopRun)`` is accepted without importing
anything; a bare ``raise`` (re-raise inside ``except``) is always fine.
RL402 accepts either ``epoch`` bookkeeping in the class body or passing the
delta onward as a call argument (delegation to ``MeetingEventStream``-style
helpers, which own the epoch resync).  RL403 matches any argument-free
``.step()`` call by name and RL404 any ``.guard(...)`` call; tests and
benchmarks are out of scope and may keep their own reference loops and
walks.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from tools.staticcheck.diagnostics import Diagnostic, apply_suppressions
from tools.staticcheck.project import Project, SourceFile

#: Exception names that are (or alias) the sanctioned scheduler stop signal.
STOP_RUN_NAMES = {"StopRun"}

#: Builtin control-flow exceptions a listener may legitimately let escape.
ALWAYS_ALLOWED = {"StopIteration", "KeyboardInterrupt", "NotImplementedError"}

CODES: Dict[str, str] = {
    "RL401": "observe_step raises a non-StopRun exception inside the scheduler loop",
    "RL402": "delta-consuming listener has no epoch handling and does not delegate",
    "RL403": "a .step() call outside repro/kernel/scheduler.py (a hand-written run loop)",
    "RL404": "a .guard( call outside repro/kernel/algorithm.py and composition.py (a hand-written guard walk)",
}

LISTENER_METHOD = "observe_step"

#: The one module whose loop may call ``Scheduler.step()``.
RUN_LOOP_FILE = "repro/kernel/scheduler.py"

#: The modules that may call an action's guard: ``enabled_action`` (and
#: ``Action.enabled``) and the namespacing wrapper of a composed action.
GUARD_WALK_FILES = ("repro/kernel/algorithm.py", "repro/kernel/composition.py")


class ListenerProtocolPass:
    name = "listeners"
    codes = CODES
    scope = ("src/repro/",)

    def run(self, project: Project) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for source in project.files_in_scope(self.scope):
            file_diags: List[Diagnostic] = []
            for cls in source.classes.values():
                method = self._own_method(cls, LISTENER_METHOD)
                if method is None:
                    continue
                file_diags.extend(self._check_raises(project, source, cls, method))
                file_diags.extend(self._check_epoch_handling(source, cls, method))
            if not source.rel.endswith(RUN_LOOP_FILE):
                file_diags.extend(self._check_step_calls(source))
            if not source.rel.endswith(GUARD_WALK_FILES):
                file_diags.extend(self._check_guard_calls(source))
            diagnostics.extend(apply_suppressions(file_diags, source.suppressions))
        return diagnostics

    @staticmethod
    def _own_method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return node
        return None

    # ------------------------------------------------------------------ #
    # RL401
    # ------------------------------------------------------------------ #
    def _check_raises(
        self, project: Project, source: SourceFile, cls: ast.ClassDef, method: ast.FunctionDef
    ) -> List[Diagnostic]:
        found: List[Diagnostic] = []
        for node in ast.walk(method):
            if not isinstance(node, ast.Raise):
                continue
            if node.exc is None:
                continue  # bare re-raise inside except: fine
            name = self._raised_name(node.exc)
            if name is None:
                # ``raise exc_variable`` / dynamic — assume it re-raises a
                # caught exception; the scheduler-loop contract is about
                # exceptions *originated* here.
                continue
            if name in STOP_RUN_NAMES or name in ALWAYS_ALLOWED:
                continue
            if self._derives_from_stop_run(project, source, name):
                continue
            found.append(
                Diagnostic(
                    source.rel,
                    node.lineno,
                    "RL401",
                    f"{cls.name}.observe_step raises {name}, which does not derive "
                    "from StopRun; inside the scheduler loop this aborts the run "
                    "instead of recording a clean early stop (raise StopRun or a "
                    "subclass, or handle the condition)",
                )
            )
        return found

    @staticmethod
    def _raised_name(exc: ast.expr) -> Optional[str]:
        node = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def _derives_from_stop_run(self, project: Project, source: SourceFile, name: str) -> bool:
        cls = source.classes.get(name)
        defining_source = source
        if cls is None and name in source.from_imports:
            module_name, original = source.from_imports[name]
            target = project.modules.get(module_name)
            if target is not None:
                cls = target.classes.get(original)
                defining_source = target
        if cls is None:
            return False
        return bool(project.base_names(defining_source, cls) & STOP_RUN_NAMES)

    # ------------------------------------------------------------------ #
    # RL402
    # ------------------------------------------------------------------ #
    def _check_epoch_handling(
        self, source: SourceFile, cls: ast.ClassDef, method: ast.FunctionDef
    ) -> List[Diagnostic]:
        if not self._consumes_delta(method):
            return []
        if self._mentions_epoch(cls):
            return []
        if self._delegates_delta(method):
            return []
        return [
            Diagnostic(
                source.rel,
                method.lineno,
                "RL402",
                f"{cls.name}.observe_step consumes record.delta but the class "
                "neither tracks configuration epochs nor delegates the delta to "
                "an epoch-aware stream; after set_configuration its incremental "
                "state silently desyncs (compare delta.epoch, resync on mismatch)",
            )
        ]

    @staticmethod
    def _consumes_delta(method: ast.FunctionDef) -> bool:
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute) and node.attr == "delta":
                return True
            if isinstance(node, ast.Name) and node.id == "delta":
                return True
        return False

    @staticmethod
    def _mentions_epoch(cls: ast.ClassDef) -> bool:
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and "epoch" in node.attr:
                return True
            if isinstance(node, ast.Name) and "epoch" in node.id:
                return True
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                continue
        return False

    @staticmethod
    def _delegates_delta(method: ast.FunctionDef) -> bool:
        """``self._stream.observe(configuration, delta)`` — delta handed on."""
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name) and arg.id == "delta":
                    return True
                if isinstance(arg, ast.Attribute) and arg.attr == "delta":
                    return True
        return False

    # ------------------------------------------------------------------ #
    # RL403
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_step_calls(source: SourceFile) -> List[Diagnostic]:
        return [
            Diagnostic(
                source.rel,
                node.lineno,
                "RL403",
                "a .step() call outside repro/kernel/scheduler.py is a "
                "hand-written run loop; call Scheduler.run (its injector=/"
                "fault_every= schedule and stop_predicate cover what the loop "
                "adds)",
            )
            for node in ast.walk(source.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "step"
            and not node.args
            and not node.keywords
        ]

    # ------------------------------------------------------------------ #
    # RL404
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_guard_calls(source: SourceFile) -> List[Diagnostic]:
        return [
            Diagnostic(
                source.rel,
                node.lineno,
                "RL404",
                "a .guard( call outside repro/kernel/algorithm.py and "
                "repro/kernel/composition.py is a hand-written guard walk; call "
                "DistributedAlgorithm.enabled_action (it walks the status-keyed "
                "action table, and it is the one entry point a tracer counts)",
            )
            for node in ast.walk(source.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "guard"
        ]
