"""RL2xx — writer-set / read-dependency conformance for the delta protocol.

The incremental engine's correctness contract (docs/ARCHITECTURE.md) is:

* every variable a statement **writes** is part of the algorithm's declared
  state (it appears in the initial-state layout), so the scheduler's
  ``(writer, variable) -> readers`` map, whose ``None`` entries expand to
  that layout, can name it;
* every variable a guard **reads of another process** is declared in the
  class's read-dependency declaration (``neighbour_guard_variables`` for the
  committee layer, the tuples inside ``read_dependency_variables`` for the
  token modules), so a write to it actually re-evaluates the reader.

Until now these contracts were only caught *probabilistically*, by the seeded
fuzz differential tests; this pass checks them at lint time, per class, for
every ``DistributedAlgorithm`` / ``TokenModule`` subclass in the tree:

========  ==================================================================
RL201     a statement writes a variable that is not part of the class's
          statically-resolvable state layout (undeclared writer variable)
RL202     a guard-evaluable method reads a variable of *another* process
          that the class's read-dependency declaration does not cover
RL204     a write's variable name is dynamic (not statically resolvable)
          inside an algorithm class — the conformance of that write cannot
          be verified; prefer a named constant
========  ==================================================================

The analysis is deliberately conservative and *closed-world per class*: a
class whose state layout or dependency declaration cannot be resolved to
literal tuples/dict keys (e.g. it delegates wholesale to a wrapped module)
is skipped for the corresponding check rather than guessed at.  Reads are
over-approximated — a read of another process in *any* method of the class
counts as guard-relevant, because helper predicates are freely shared
between guards and statements in this codebase.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from tools.staticcheck.diagnostics import Diagnostic, apply_suppressions
from tools.staticcheck.project import Project, SourceFile

#: Class names that make a class an "algorithm" for this pass (matched along
#: the statically-resolved base chain, by simple name, so fixture files can
#: subclass a local stub).
ALGORITHM_ROOTS = {"DistributedAlgorithm"}
TOKEN_MODULE_ROOTS = {"TokenModule"}

#: Methods whose returned dict keys define the per-process state layout, in
#: preference order: the most specific one found along the lineage wins.
STATE_LAYOUT_METHODS = ("own_initial_state", "initial_variables", "initial_state")

#: Methods read-dependency tuples are harvested from.
DECLARATION_METHODS = ("read_dependency_variables",)

CODES: Dict[str, str] = {
    "RL201": "statement writes an undeclared state variable",
    "RL202": "guard reads an undeclared variable of another process",
    "RL204": "dynamic write target cannot be checked against the writer-set protocol",
}


class _ClassModel:
    """Everything statically extracted about one algorithm/token class."""

    def __init__(self) -> None:
        self.state_vars: Set[str] = set()
        self.state_closed = False
        self.declared_read_vars: Set[str] = set()
        self.declaration_found = False
        self.declaration_closed = False


class WriterSetConformancePass:
    name = "writer-sets"
    codes = CODES
    scope = ("src/repro/",)

    def run(self, project: Project) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for source in project.files_in_scope(self.scope):
            file_diags: List[Diagnostic] = []
            for cls in source.classes.values():
                base_names = project.base_names(source, cls)
                is_algorithm = bool(base_names & ALGORITHM_ROOTS) and cls.name not in ALGORITHM_ROOTS
                is_token = bool(base_names & TOKEN_MODULE_ROOTS) and cls.name not in TOKEN_MODULE_ROOTS
                if not (is_algorithm or is_token):
                    continue
                file_diags.extend(self._check_class(project, source, cls))
            diagnostics.extend(apply_suppressions(file_diags, source.suppressions))
        return diagnostics

    # ------------------------------------------------------------------ #
    # model extraction
    # ------------------------------------------------------------------ #
    def _build_model(self, project: Project, source: SourceFile, cls: ast.ClassDef) -> _ClassModel:
        model = _ClassModel()

        # -- state layout ------------------------------------------------ #
        for method_name in STATE_LAYOUT_METHODS:
            definitions = project.class_methods(source, cls, method_name)
            if not definitions:
                continue
            closed = True
            for def_source, definition in definitions:
                variables, is_closed = self._harvest_state_method(project, def_source, definition, method_name)
                model.state_vars.update(variables)
                closed = closed and is_closed
            model.state_closed = closed and bool(model.state_vars)
            break  # most specific layout method wins

        # -- read-dependency declaration ---------------------------------- #
        attr = project.resolve_class_attr(source, cls, "neighbour_guard_variables")
        if attr is not None:
            attr_source, attr_value = attr
            resolved = project.resolve_str_tuple(attr_source, attr_value)
            if resolved is not None:
                model.declared_read_vars.update(resolved)
                model.declaration_found = True
                model.declaration_closed = True

        for method_name in DECLARATION_METHODS:
            for def_source, definition in project.class_methods(source, cls, method_name):
                tuples, saw_open = self._harvest_declaration_tuples(project, def_source, definition)
                if tuples:
                    model.declared_read_vars.update(tuples)
                    model.declaration_found = True
                    # ``None`` values ("any variable of that source") do not
                    # open the declaration: they only widen specific sources.
                    model.declaration_closed = model.declaration_closed or not saw_open

        return model

    def _harvest_state_method(
        self, project: Project, source: SourceFile, method: ast.FunctionDef, method_name: str
    ) -> Tuple[Set[str], bool]:
        """Dict-literal keys and ``state[CONST] = ...`` targets; closed-ness."""
        variables: Set[str] = set()
        closed = True
        for node in ast.walk(method):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is None:  # ``{**other}`` — opaque
                        closed = False
                        continue
                    value = project.resolve_str(source, key)
                    if value is None:
                        closed = False
                    else:
                        variables.add(value)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Subscript):
                    value = project.resolve_str(source, target.slice)
                    if value is not None:
                        variables.add(value)
                    else:
                        closed = False
                elif isinstance(node.value, ast.Call):
                    closed = closed and self._is_super_delegation(node.value, method_name)
            elif isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
                closed = False  # returns something built elsewhere
            elif isinstance(node, ast.Call):
                # ``state.update(<anything but a dict literal>)`` — opaque.
                if isinstance(node.func, ast.Attribute) and node.func.attr == "update":
                    if not (node.args and isinstance(node.args[0], ast.Dict)):
                        closed = False
        return variables, closed

    @staticmethod
    def _is_super_delegation(call: ast.Call, method_name: str) -> bool:
        """``super().own_initial_state(pid)`` — covered by lineage harvesting."""
        func = call.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == method_name
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        )

    def _harvest_declaration_tuples(
        self, project: Project, source: SourceFile, method: ast.FunctionDef
    ) -> Tuple[Set[str], bool]:
        """Every resolvable string tuple in the method body, plus whether any
        unresolvable ("any variable") value appeared."""
        declared: Set[str] = set()
        saw_open = False
        for node in ast.walk(method):
            if isinstance(node, (ast.Tuple, ast.List)):
                resolved = project.resolve_str_tuple(source, node)
                if resolved is not None:
                    declared.update(resolved)
        return declared, saw_open

    # ------------------------------------------------------------------ #
    # checks
    # ------------------------------------------------------------------ #
    def _check_class(self, project: Project, source: SourceFile, cls: ast.ClassDef) -> List[Diagnostic]:
        model = self._build_model(project, source, cls)
        diagnostics: List[Diagnostic] = []
        for method in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
            own_pids = self._own_pid_names(method)
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                kind = self._call_kind(node)
                if kind == "write":
                    diagnostics.extend(
                        self._check_write(project, source, cls, model, node)
                    )
                elif kind == "read":
                    diagnostics.extend(
                        self._check_read(project, source, cls, model, node, own_pids)
                    )
            for line, target, variable_node in self._row_reads(method):
                diagnostics.extend(
                    self._check_variable_read(
                        project, source, cls, model, line, target, variable_node, own_pids
                    )
                )
        return diagnostics

    @staticmethod
    def _row_reads(method: ast.FunctionDef) -> List[Tuple[int, ast.expr, ast.expr]]:
        """``(line, pid, variable)`` of every read of a snapshot row.

        A row is ``<states>[<pid>]``, or a name ``<row>`` bound to one in
        the method; ``<states>`` is ``ctx.states``, a local bound to it, or
        a parameter named ``states`` (a token module's ``Token(p)`` takes
        the rows).  A read is a subscript ``<row>[<VAR>]`` or a call
        ``<row>.get(<VAR>)``.  A row name bound more than once reads
        through every process it was bound to.
        """
        assigns = [
            node
            for node in ast.walk(method)
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ]
        states_names = {
            node.targets[0].id
            for node in assigns
            if isinstance(node.value, ast.Attribute) and node.value.attr == "states"
        }
        states_names.update(arg.arg for arg in method.args.args if arg.arg == "states")

        def row_pid(expr: ast.expr) -> Optional[ast.expr]:
            """The pid of ``<states>[<pid>]``, else ``None``."""
            if not isinstance(expr, ast.Subscript):
                return None
            value = expr.value
            if (isinstance(value, ast.Attribute) and value.attr == "states") or (
                isinstance(value, ast.Name) and value.id in states_names
            ):
                return expr.slice
            return None

        row_names: Dict[str, List[ast.expr]] = {}
        for node in assigns:
            pid = row_pid(node.value)
            if pid is not None:
                row_names.setdefault(node.targets[0].id, []).append(pid)

        reads: List[Tuple[int, ast.expr, ast.expr]] = []
        for node in ast.walk(method):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                row, variable = node.value, node.slice
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and node.args
            ):
                row, variable = node.func.value, node.args[0]
            else:
                continue
            pid = row_pid(row)
            if pid is not None:
                reads.append((node.lineno, pid, variable))
            elif isinstance(row, ast.Name) and row.id in row_names:
                reads.extend((node.lineno, bound, variable) for bound in row_names[row.id])
        return reads

    @staticmethod
    def _call_kind(node: ast.Call) -> Optional[str]:
        """Classify ``*.write(var, value)`` and ``*.read``/``*.own`` reads."""
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "write" and len(node.args) >= 2:
                return "write"
            if func.attr in {"read", "own"} and node.args:
                return "read"
        return None

    @staticmethod
    def _variable(project: Project, source: SourceFile, node: ast.expr) -> Optional[str]:
        """The variable a read or write names: a resolvable constant, or
        ``<prefix> + CONST`` (a token module's names under the composition's
        prefix), which names ``CONST``."""
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return project.resolve_str(source, node.right)
        return project.resolve_str(source, node)

    @staticmethod
    def _own_pid_names(method: ast.FunctionDef) -> Set[str]:
        """Names that denote the executing process inside ``method``."""
        own = {"pid"}
        own.update(arg.arg for arg in method.args.args if arg.arg in {"pid", "p"})
        return own

    def _check_write(
        self,
        project: Project,
        source: SourceFile,
        cls: ast.ClassDef,
        model: _ClassModel,
        node: ast.Call,
    ) -> List[Diagnostic]:
        variable = self._variable(project, source, node.args[0])
        if variable is None:
            return [
                Diagnostic(
                    source.rel,
                    node.lineno,
                    "RL204",
                    f"{cls.name}: write target is not a resolvable constant; the "
                    "writer-set protocol cannot be checked for this write "
                    "(use a module-level variable-name constant)",
                )
            ]
        if model.state_closed and variable not in model.state_vars:
            return [
                Diagnostic(
                    source.rel,
                    node.lineno,
                    "RL201",
                    f"{cls.name} writes undeclared state variable {variable!r}; it is "
                    f"missing from the state layout ({', '.join(sorted(model.state_vars))}) "
                    "— an undeclared write silently defeats incremental invalidation",
                )
            ]
        return []

    def _check_read(
        self,
        project: Project,
        source: SourceFile,
        cls: ast.ClassDef,
        model: _ClassModel,
        node: ast.Call,
        own_pids: Set[str],
    ) -> List[Diagnostic]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "own":
            return []  # own-variable read: pid itself is always a full dependency
        if len(node.args) < 2:
            return []
        return self._check_variable_read(
            project, source, cls, model, node.lineno, node.args[0], node.args[1], own_pids
        )

    def _check_variable_read(
        self,
        project: Project,
        source: SourceFile,
        cls: ast.ClassDef,
        model: _ClassModel,
        line: int,
        target: ast.expr,
        variable_node: ast.expr,
        own_pids: Set[str],
    ) -> List[Diagnostic]:
        """RL202 for one read of ``variable_node`` of process ``target``."""
        if self._is_own_target(target, own_pids):
            return []
        if not model.declaration_closed:
            return []  # declaration is "any variable" / unresolvable: nothing to check
        variable = self._variable(project, source, variable_node)
        if variable is None:
            return []  # a dynamic variable name — not checkable
        if variable not in model.declared_read_vars:
            return [
                Diagnostic(
                    source.rel,
                    line,
                    "RL202",
                    f"{cls.name} reads {variable!r} of another process but its "
                    "read-dependency declaration only covers "
                    f"({', '.join(sorted(model.declared_read_vars))}) — a write to "
                    f"{variable!r} would not re-evaluate this guard incrementally",
                )
            ]
        return []

    @staticmethod
    def _is_own_target(target: ast.expr, own_pids: Set[str]) -> bool:
        if isinstance(target, ast.Name) and target.id in own_pids:
            return True
        if isinstance(target, ast.Attribute) and target.attr == "pid":
            return True  # ``ctx.pid`` / ``self.pid``
        return False
