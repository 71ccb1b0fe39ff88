"""The parsed-project model shared by every AST pass.

One :class:`Project` holds every analyzed file parsed exactly once, plus the
cheap symbol information the passes need to resolve things *statically* (no
imports are executed):

* per-file **constants** — top-level ``NAME = "literal"`` / tuple-of-literal
  assignments (``STATUS = "S"``, ``CC1_STATUSES = (IDLE, ...)``), chased
  through ``from module import NAME`` into the defining module;
* per-file **imports** — ``import x as y`` aliases and ``from x import a``
  bindings, restricted to modules that are part of the project;
* a **class index** with base-chain resolution across modules, so a pass can
  ask "does ``CC3Algorithm`` descend from something named
  ``DistributedAlgorithm``?" and "what is the nearest definition of
  ``neighbour_guard_variables`` along that chain?" without importing
  anything.

Fixture corpora (self-contained bad/good snippets) build a project from an
explicit file list with ``enforce_scopes=False``; the CLI builds one from
the repo layout, where each pass additionally filters by its default scope
(e.g. the determinism pass looks at ``src/repro/**`` and ``benchmarks/**``
but not tests).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from tools.staticcheck.diagnostics import parse_suppressions

#: Default analysis roots, relative to the repo root.
DEFAULT_ROOTS = ("src/repro", "benchmarks")


@dataclass
class SourceFile:
    """One parsed python file plus its line-level suppressions."""

    path: Path  # absolute
    rel: str  # repo-relative, posix separators
    module: Optional[str]  # dotted module name when under a source root
    text: str
    tree: ast.Module
    suppressions: Dict[int, Set[str]]

    # Lazily-built symbol tables (see Project helpers).
    constants: Dict[str, ast.expr] = field(default_factory=dict)
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    module_aliases: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)

    def index_symbols(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self.constants[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self.constants[node.target.id] = node.value
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node


#: A file no pass can analyze: ``(repo-relative path, line, reason)``.
Unparsed = Tuple[str, int, str]


class Project:
    """Every analyzed file, parsed once, with static symbol resolution.

    A file that cannot be read or parsed is not in :attr:`files`; it is
    listed in :attr:`unparsed` instead, which the ``parse`` pass reports.
    """

    def __init__(
        self,
        root: Path,
        files: Sequence[SourceFile],
        enforce_scopes: bool = True,
        unparsed: Sequence[Unparsed] = (),
    ) -> None:
        self.root = root
        self.files = list(files)
        self.enforce_scopes = enforce_scopes
        self.unparsed: List[Unparsed] = list(unparsed)
        self.modules: Dict[str, SourceFile] = {
            f.module: f for f in self.files if f.module is not None
        }

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _load_file(
        path: Path, root: Path, src_root: Optional[Path], unparsed: List[Unparsed]
    ) -> Optional[SourceFile]:
        """``path`` parsed, or ``None`` after appending why not to ``unparsed``."""
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            unparsed.append((rel, exc.lineno or 1, f"syntax error: {exc.msg}"))
            return None
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, NUL bytes
            unparsed.append((rel, 1, f"cannot parse: {exc}"))
            return None
        module: Optional[str] = None
        if src_root is not None:
            try:
                parts = list(path.relative_to(src_root).with_suffix("").parts)
                if parts and parts[-1] == "__init__":
                    parts = parts[:-1]
                module = ".".join(parts) if parts else None
            except ValueError:
                module = None
        source = SourceFile(
            path=path,
            rel=rel,
            module=module,
            text=text,
            tree=tree,
            suppressions=parse_suppressions(text),
        )
        source.index_symbols()
        return source

    @classmethod
    def load(cls, root: Path, roots: Sequence[str] = DEFAULT_ROOTS) -> "Project":
        """The repo-layout project the CLI and tier-1 analyze."""
        root = root.resolve()
        src_root = root / "src"
        files: List[SourceFile] = []
        unparsed: List[Unparsed] = []
        for rel_root in roots:
            base = root / rel_root
            if not base.exists():
                continue
            for path in sorted(base.rglob("*.py")):
                loaded = cls._load_file(
                    path,
                    root,
                    src_root if src_root in path.parents or src_root == path.parent else None,
                    unparsed,
                )
                if loaded is not None:
                    files.append(loaded)
        return cls(root, files, enforce_scopes=True, unparsed=unparsed)

    @classmethod
    def from_files(
        cls, paths: Sequence[Path], root: Optional[Path] = None, src_root: Optional[Path] = None
    ) -> "Project":
        """A fixture project: the given files, every pass applies to all of them."""
        paths = [Path(p).resolve() for p in paths]
        base = (root or paths[0].parent).resolve()
        files = []
        unparsed: List[Unparsed] = []
        for path in paths:
            loaded = cls._load_file(path, base, src_root, unparsed)
            if loaded is None:
                continue
            if loaded.module is None:
                loaded.module = path.stem
            files.append(loaded)
        return cls(base, files, enforce_scopes=False, unparsed=unparsed)

    # ------------------------------------------------------------------ #
    # scope
    # ------------------------------------------------------------------ #
    def files_in_scope(self, prefixes: Sequence[str]) -> List[SourceFile]:
        """The files a pass should analyze.

        With ``enforce_scopes`` (repo layout) only files whose repo-relative
        path starts with one of ``prefixes``; fixture projects return
        everything, so the corpus exercises each pass directly.
        """
        if not self.enforce_scopes:
            return self.files
        return [f for f in self.files if any(f.rel.startswith(p) for p in prefixes)]

    # ------------------------------------------------------------------ #
    # constant resolution
    # ------------------------------------------------------------------ #
    def resolve_str(self, source: SourceFile, node: ast.expr, _seen: Optional[Set[str]] = None) -> Optional[str]:
        """``"S"`` from a string literal or a (possibly imported) constant name."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            resolved = self._resolve_name(source, node.id, _seen or set())
            if resolved is not None:
                value_source, value = resolved
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    return value.value
                # one more indirection (NAME = OTHER_NAME)
                if isinstance(value, ast.Name):
                    return self.resolve_str(value_source, value, (_seen or set()) | {node.id})
        return None

    def resolve_str_tuple(self, source: SourceFile, node: ast.expr) -> Optional[Tuple[str, ...]]:
        """``("S", "P")`` from a tuple/list of resolvable strings, or a named constant."""
        if isinstance(node, ast.Name):
            resolved = self._resolve_name(source, node.id, set())
            if resolved is None:
                return None
            source, node = resolved
        if isinstance(node, (ast.Tuple, ast.List)):
            values: List[str] = []
            for element in node.elts:
                value = self.resolve_str(source, element)
                if value is None:
                    return None
                values.append(value)
            return tuple(values)
        return None

    def _resolve_name(
        self, source: SourceFile, name: str, seen: Set[str]
    ) -> Optional[Tuple[SourceFile, ast.expr]]:
        key = f"{source.rel}:{name}"
        if key in seen:
            return None
        seen.add(key)
        if name in source.constants:
            return source, source.constants[name]
        if name in source.from_imports:
            module_name, original = source.from_imports[name]
            target = self.modules.get(module_name)
            if target is not None:
                return self._resolve_name(target, original, seen)
        return None

    # ------------------------------------------------------------------ #
    # class resolution
    # ------------------------------------------------------------------ #
    def class_lineage(self, source: SourceFile, cls: ast.ClassDef) -> List[Tuple[SourceFile, ast.ClassDef]]:
        """``cls`` plus every project-resolvable ancestor, nearest first."""
        lineage: List[Tuple[SourceFile, ast.ClassDef]] = []
        queue: List[Tuple[SourceFile, ast.ClassDef]] = [(source, cls)]
        seen: Set[str] = set()
        while queue:
            current_source, current = queue.pop(0)
            key = f"{current_source.rel}:{current.name}"
            if key in seen:
                continue
            seen.add(key)
            lineage.append((current_source, current))
            for base in current.bases:
                resolved = self._resolve_class(current_source, base)
                if resolved is not None:
                    queue.append(resolved)
        return lineage

    def _resolve_class(
        self, source: SourceFile, base: ast.expr
    ) -> Optional[Tuple[SourceFile, ast.ClassDef]]:
        if isinstance(base, ast.Attribute):
            # ``abc.ABC`` and friends — external, ignore.
            return None
        if not isinstance(base, ast.Name):
            return None
        name = base.id
        if name in source.classes:
            return source, source.classes[name]
        if name in source.from_imports:
            module_name, original = source.from_imports[name]
            target = self.modules.get(module_name)
            if target is not None and original in target.classes:
                return target, target.classes[original]
        return None

    def base_names(self, source: SourceFile, cls: ast.ClassDef) -> Set[str]:
        """All (simple) class names along the lineage, plus unresolvable base names.

        An unresolvable base such as ``DistributedAlgorithm`` imported from
        the kernel still contributes its *name*, which is what the passes
        match on — so fixture files can subclass a local stub of the same
        name and exercise the pass without importing the kernel.
        """
        names: Set[str] = set()
        for lineage_source, lineage_cls in self.class_lineage(source, cls):
            names.add(lineage_cls.name)
            for base in lineage_cls.bases:
                if isinstance(base, ast.Name):
                    names.add(base.id)
                elif isinstance(base, ast.Attribute):
                    names.add(base.attr)
        return names

    def resolve_class_attr(
        self, source: SourceFile, cls: ast.ClassDef, attr: str
    ) -> Optional[Tuple[SourceFile, ast.expr]]:
        """The nearest class-body assignment of ``attr`` along the lineage."""
        for lineage_source, lineage_cls in self.class_lineage(source, cls):
            for node in lineage_cls.body:
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name) and target.id == attr:
                            return lineage_source, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if isinstance(node.target, ast.Name) and node.target.id == attr:
                        return lineage_source, node.value
        return None

    def class_methods(
        self, source: SourceFile, cls: ast.ClassDef, name: str
    ) -> List[Tuple[SourceFile, ast.FunctionDef]]:
        """Every definition of method ``name`` along the lineage (nearest first)."""
        found: List[Tuple[SourceFile, ast.FunctionDef]] = []
        for lineage_source, lineage_cls in self.class_lineage(source, cls):
            for node in lineage_cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == name:
                    found.append((lineage_source, node))
        return found


def iter_functions(node: ast.AST) -> Iterator[ast.FunctionDef]:
    """All function definitions under ``node``, nested ones included."""
    for child in ast.walk(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child  # type: ignore[misc]


def call_name(node: ast.Call) -> Optional[str]:
    """``foo`` for ``foo(...)``, ``attr`` for ``x.y.attr(...)``."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def dotted_call(node: ast.Call) -> Optional[str]:
    """``"x.y.attr"`` for simple attribute chains, else ``None``."""
    parts: List[str] = []
    current: ast.expr = node.func
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None
