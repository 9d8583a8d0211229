"""Project-wide call graph and per-function summaries.

For every function in the project this module computes:

* **escapes** — the set of exception class names that can leave the
  function: explicit ``raise`` statements (filtered through enclosing
  ``try`` handlers), re-raises, exceptions propagated from resolved project
  callees (fixpoint over the call graph), curated low-level raisers
  (``struct.unpack`` → ``struct.error``), and — for decoder-tree functions
  with a modelable CFG — an implicit ``IndexError`` for every unguarded
  direct buffer read found by the taint analysis.

Summaries are *plain data* — strings, ints, frozensets — never AST nodes or
solved lattices. That keeps them picklable, which is what lets the engine
fan the per-file local analysis (the expensive part: one CFG per function,
and a taint solve for each function whose taint facts a rule reads) out to
a process pool with ``--jobs`` and still assemble byte-identical results:
workers each run :func:`collect_module_flow` on ``(rel, source)`` pairs in
sorted order, and the single-threaded :func:`assemble` pass stitches the
records into the call-graph fixpoint.

Call resolution is best-effort and name-based: module-level functions,
``self.method`` through the class and its project-resolvable bases, and
imported symbols/modules. Unresolvable calls (dynamic dispatch, foreign
libraries) contribute nothing, which keeps the analysis quiet rather than
noisy — DESIGN.md §7.4 records the soundness trade.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.lint.common import (
    SyntaxIndex,
    caught_names,
    decode_side,
    dotted_name,
    in_decoder_tree,
    iter_functions,
)
from repro.lint.flow.cfg import build_cfg
from repro.lint.flow.dataflow import canonical_name
from repro.lint.flow.taint import (
    ReadSiteRec,
    SinkRec,
    analyze_taint,
    is_buffer_name,
    is_taint_source,
)

#: Builtin exception hierarchy (child -> parent), enough to decide whether a
#: handler for a base class absorbs a low-level raise.
_BUILTIN_BASES: Dict[str, str] = {
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "LookupError": "Exception",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "UnicodeError": "ValueError",
    "ValueError": "Exception",
    "TypeError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "ArithmeticError": "Exception",
    "MemoryError": "Exception",
    "FileNotFoundError": "OSError",
    "IsADirectoryError": "OSError",
    "PermissionError": "OSError",
    "IOError": "OSError",
    "OSError": "Exception",
    "EOFError": "Exception",
    "StopIteration": "Exception",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "NameError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RuntimeError": "Exception",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "Exception": "BaseException",
    "error": "Exception",  # struct.error resolves to terminal name "error"
}

#: Foreign calls with known low-level raise behaviour (terminal callee name).
_BUILTIN_RAISERS: Dict[str, Set[str]] = {
    "unpack": {"error"},
    "unpack_from": {"error"},
}

def rel_to_module(rel: str) -> str:
    """Repo-relative path -> dotted module name (``src/`` stripped)."""
    norm = rel[4:] if rel.startswith("src/") else rel
    if norm.endswith(".py"):
        norm = norm[:-3]
    if norm.endswith("/__init__"):
        norm = norm[: -len("/__init__")]
    return norm.replace("/", ".")


#: Enclosing handler groups, outermost first; each entry is the frozenset of
#: caught class names, with ``None`` meaning a catch-all handler.
Guards = Tuple[Optional[frozenset], ...]


@dataclass(frozen=True)
class CallRec:
    """One call site: the dotted target (if nameable) and its try-guards."""

    target: Optional[str]
    terminal: str
    lineno: int
    guards: Guards


@dataclass(frozen=True)
class RaiseRec:
    name: str
    lineno: int
    guards: Guards


@dataclass
class FunctionSummary:
    """Everything the flow rules need to know about one function.

    Plain data only — must stay picklable for ``--jobs`` workers.
    """

    qualname: str
    rel: str
    name: str
    cls: Optional[str]
    lineno: int
    #: Why the flow layer could not model the function ("" when it could:
    #: the CFG covers every construct and the taint solve converged).
    unsupported: str = ""
    read_sites: List[ReadSiteRec] = field(default_factory=list)
    sinks: List[SinkRec] = field(default_factory=list)
    escapes: Set[str] = field(default_factory=set)
    #: escaping exception -> (line, provenance chain "a -> b -> c").
    escape_traces: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    raises: List[RaiseRec] = field(default_factory=list)
    calls: List[CallRec] = field(default_factory=list)

    @property
    def supported(self) -> bool:
        return not self.unsupported

    @property
    def display(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


class ProjectSummaries:
    """Index of function summaries plus the exception class hierarchy."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionSummary] = {}
        #: (module rel, local qualname "func" / "Class.method") -> qualname
        self._local: Dict[Tuple[str, str], str] = {}
        #: module rel -> {local alias -> imported target}
        self._imports: Dict[str, Dict[str, str]] = {}
        #: dotted module name -> module rel
        self._module_rel: Dict[str, str] = {}
        #: (module rel, class name) -> list of base class dotted names
        self._class_bases: Dict[Tuple[str, str], List[str]] = {}
        #: Exception class name -> parent name (project classes + builtins).
        self.exception_bases: Dict[str, str] = dict(_BUILTIN_BASES)
        self.repro_errors: Set[str] = {"ReproError"}

    # -- queries -----------------------------------------------------------

    def lookup(self, rel: str, local: str) -> Optional[FunctionSummary]:
        qualname = self._local.get((rel, local))
        return self.functions.get(qualname) if qualname else None

    def function_at(self, rel: str, lineno: int) -> Optional[FunctionSummary]:
        """The summary of the function whose ``def`` sits at ``lineno``."""
        for summary in self.functions.values():
            if summary.rel == rel and summary.lineno == lineno:
                return summary
        return None

    def is_repro_error(self, name: str) -> bool:
        terminal = name.split(".")[-1]
        seen = set()
        while terminal and terminal not in seen:
            if terminal in self.repro_errors:
                return True
            seen.add(terminal)
            terminal = self.exception_bases.get(terminal, "")
        return False

    def catches(self, caught: Optional[frozenset], exc: str) -> bool:
        """Whether a handler group catching ``caught`` absorbs ``exc``."""
        if caught is None:
            return True  # bare except / except BaseException
        chain = set()
        name = exc.split(".")[-1]
        while name and name not in chain:
            chain.add(name)
            name = self.exception_bases.get(name, "")
        return bool({c.split(".")[-1] for c in caught} & chain)

    def resolve_call(
        self, rel: str, cls: Optional[str], target: Optional[str]
    ) -> Optional[FunctionSummary]:
        """Best-effort resolution of a dotted call target to a project function."""
        if target is None:
            return None
        parts = target.split(".")
        imports = self._imports.get(rel, {})
        if parts[0] == "self" and cls is not None:
            if len(parts) == 2:
                return self._resolve_method(rel, cls, parts[1])
            return None
        if len(parts) == 1:
            local = self.lookup(rel, parts[0])
            if local is not None:
                return local
            imported = imports.get(parts[0])
            if imported is not None:
                return self._resolve_imported(imported)
            return None
        # Module-qualified: resolve the longest importable prefix.
        head = imports.get(parts[0])
        if head is not None:
            return self._resolve_imported(".".join([head, *parts[1:]]))
        module_rel = self._module_rel.get(".".join(parts[:-1]))
        if module_rel is not None:
            return self.lookup(module_rel, parts[-1])
        # ``ClassName.method`` within the same module.
        if len(parts) == 2 and (rel, parts[0]) in self._class_bases:
            return self._resolve_method(rel, parts[0], parts[1])
        return None

    def _resolve_imported(self, target: str) -> Optional[FunctionSummary]:
        parts = target.split(".")
        # Try every split point: "pkg.mod.func" / "pkg.mod.Class.method".
        for cut in range(len(parts) - 1, 0, -1):
            module_rel = self._module_rel.get(".".join(parts[:cut]))
            if module_rel is None:
                continue
            local = ".".join(parts[cut:])
            found = self.lookup(module_rel, local)
            if found is not None:
                return found
            if len(parts) - cut == 2:
                return self._resolve_method(module_rel, parts[cut], parts[cut + 1])
        return None

    def _resolve_method(
        self, rel: str, cls: str, method: str, _seen: Optional[set] = None
    ) -> Optional[FunctionSummary]:
        _seen = _seen or set()
        if (rel, cls) in _seen:
            return None
        _seen.add((rel, cls))
        found = self.lookup(rel, f"{cls}.{method}")
        if found is not None:
            return found
        for base in self._class_bases.get((rel, cls), []):
            parts = base.split(".")
            base_name = parts[-1]
            # Base in the same module?
            if (rel, base_name) in self._class_bases:
                found = self._resolve_method(rel, base_name, method, _seen)
                if found is not None:
                    return found
            # Base imported from another module?
            imported = self._imports.get(rel, {}).get(parts[0])
            if imported is not None:
                target = ".".join([imported, *parts[1:]])
                for cut in range(len(target.split(".")) - 1, 0, -1):
                    tparts = target.split(".")
                    base_rel = self._module_rel.get(".".join(tparts[:cut]))
                    if base_rel is not None and cut == len(tparts) - 1:
                        found = self._resolve_method(base_rel, tparts[-1], method, _seen)
                        if found is not None:
                            return found
        return None


def _caught_set(handler: ast.ExceptHandler) -> Optional[frozenset]:
    """The names a handler catches, or ``None`` when it catches everything:
    a bare ``except:``, ``BaseException``, or a dynamic type expression."""
    names = caught_names(handler)
    if handler.type is None or any(
        name is None or name.split(".")[-1] == "BaseException" for name in names
    ):
        return None
    return frozenset(names)


class _EffectCollector(ast.NodeVisitor):
    """Collect raise statements and call sites with their try-guards."""

    def __init__(self) -> None:
        self.raises: List[RaiseRec] = []
        self.calls: List[CallRec] = []
        self._guards: List[Optional[frozenset]] = []
        self._handler_types: List[Optional[frozenset]] = []

    def visit_Raise(self, node: ast.Raise) -> None:
        guards = tuple(self._guards)
        if node.exc is None:
            # Bare re-raise: raises whatever the innermost handler caught.
            if self._handler_types:
                caught = self._handler_types[-1]
                for name in caught or ():
                    self.raises.append(RaiseRec(name, node.lineno, guards))
        else:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = dotted_name(target)
            if name is not None:
                self.raises.append(RaiseRec(name, node.lineno, guards))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        target = dotted_name(node.func)
        terminal = target.split(".")[-1] if target else ""
        self.calls.append(CallRec(target, terminal, node.lineno, tuple(self._guards)))
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        caught_union: Set[str] = set()
        catch_all = False
        for handler in node.handlers:
            caught = _caught_set(handler)
            if caught is None:
                catch_all = True
            else:
                caught_union |= set(caught)
        group: Optional[frozenset] = None if catch_all else frozenset(caught_union)
        self._guards.append(group)
        for stmt in node.body:
            self.visit(stmt)
        self._guards.pop()
        for handler in node.handlers:
            self._handler_types.append(_caught_set(handler))
            for stmt in handler.body:
                self.visit(stmt)
            self._handler_types.pop()
        for stmt in [*node.orelse, *node.finalbody]:
            self.visit(stmt)

    # Nested scopes are separate functions; do not descend into them.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def demands_taint(
    rel: str, cls: Optional[str], func: ast.AST, syntax: SyntaxIndex
) -> bool:
    """Whether a rule reads ``func``'s taint facts: the demand set.

    Taint starts only at a source call (:func:`~repro.lint.flow.taint.
    is_taint_source`), so a function that calls none has no sink. Its read
    sites matter only in the decoder tree: R009
    reads decode-side functions (and reports one whose solve diverges), and
    assembly charges an implicit ``IndexError`` to every unguarded buffer
    read there. The whole subtree is searched, lambdas and nested scopes
    included, so the set can only over-approximate.
    """
    decoder = in_decoder_tree(rel)
    if decoder and decode_side(func.name, cls):
        return True
    for node in syntax.walk(func):
        if isinstance(node, ast.Call) and is_taint_source(node):
            return True
        if decoder and isinstance(node, ast.Subscript):
            base = canonical_name(node.value)
            if base is not None and is_buffer_name(base):
                return True
    return False


def collect_module_flow(
    rel: str, source: str, syntax: Optional[SyntaxIndex] = None
) -> List[FunctionSummary]:
    """Per-file local analysis: one summary record per top-level function.

    Every function gets a CFG and its effect summary; only the
    :func:`demands_taint` set also gets a taint solve, replayed once for
    its sinks and read sites.
    Self-contained and deterministic on ``(rel, source)``, which makes it
    the unit of work for ``--jobs`` process-pool workers. ``syntax``, when
    given, is the index of ``source``'s already-parsed tree, which spares
    the serial pass a second parse. Files that fail to parse yield no
    records (the engine reports those as R000 already).
    """
    if syntax is None:
        try:
            syntax = SyntaxIndex(ast.parse(source))
        except SyntaxError:
            return []
    records: List[FunctionSummary] = []
    for cls_name, func in iter_functions(syntax.tree):
        obs.counter_add("lint.flow.functions", 1)
        local = f"{cls_name}.{func.name}" if cls_name else func.name
        cfg = build_cfg(func, syntax)
        summary = FunctionSummary(
            qualname=f"{rel}::{local}",
            rel=rel,
            name=func.name,
            cls=cls_name,
            lineno=func.lineno,
            unsupported=cfg.unsupported,
        )
        if cfg.supported and demands_taint(rel, cls_name, func, syntax):
            taint = analyze_taint(cfg)
            if not taint.converged:
                summary.unsupported = "a taint solve that did not converge"
            else:
                facts = taint.scan()
                summary.read_sites = facts.read_sites
                summary.sinks = facts.sinks
        collector = _EffectCollector()
        for stmt in func.body:
            collector.visit(stmt)
        summary.raises = collector.raises
        summary.calls = collector.calls
        records.append(summary)
    return records


def assemble(
    modules: Sequence, flows: Dict[str, List[FunctionSummary]]
) -> ProjectSummaries:
    """Stitch per-file records into the project-wide fixpoint.

    ``modules`` supplies the parsed trees and their syntax indexes for the
    cheap global passes
    (imports, class hierarchy); ``flows`` maps each module's ``rel`` to the
    records from :func:`collect_module_flow`. Single-threaded and
    deterministic, so parallel collection stays byte-identical to serial.
    """
    project = ProjectSummaries()

    # Pass 0: modules, imports, classes, exception hierarchy.
    for ctx in modules:
        project._module_rel[rel_to_module(ctx.rel)] = ctx.rel
        project._imports[ctx.rel] = ctx.syntax.imports
        for node in ctx.syntax.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                bases = [dotted_name(b) for b in node.bases]
                project._class_bases[(ctx.rel, node.name)] = [
                    b for b in bases if b is not None
                ]
                for base in bases:
                    if base is not None:
                        project.exception_bases.setdefault(
                            node.name, base.split(".")[-1]
                        )

    # The ReproError tree: every class transitively based on it.
    changed = True
    while changed:
        changed = False
        for name, base in project.exception_bases.items():
            if base in project.repro_errors and name not in project.repro_errors:
                project.repro_errors.add(name)
                changed = True

    # Pass 1: index the per-function records (already computed, maybe in
    # worker processes).
    for ctx in modules:
        for summary in flows.get(ctx.rel, []):
            local = f"{summary.cls}.{summary.name}" if summary.cls else summary.name
            project.functions[summary.qualname] = summary
            project._local[(ctx.rel, local)] = summary.qualname

    # Pass 2: direct escapes (explicit raises, builtin raisers, implicit
    # IndexError from unguarded reads in the decoder tree).
    for summary in project.functions.values():
        for raised in summary.raises:
            if not any(project.catches(g, raised.name) for g in raised.guards):
                _note_escape(summary, raised.name, raised.lineno, summary.display)
        for call in summary.calls:
            for exc in _BUILTIN_RAISERS.get(call.terminal, ()):
                if not any(project.catches(g, exc) for g in call.guards):
                    _note_escape(
                        summary, exc, call.lineno, f"{summary.display} -> {call.terminal}"
                    )
        if in_decoder_tree(summary.rel):
            for site in summary.read_sites:
                if not site.guarded:
                    _note_escape(
                        summary,
                        "IndexError",
                        site.lineno,
                        f"{summary.display} ({site.base}[...] unguarded)",
                    )

    # Pass 3: propagate callee escapes to a fixpoint.
    changed = True
    iterations = 0
    while changed and iterations < 100:
        changed = False
        iterations += 1
        for summary in project.functions.values():
            for call in summary.calls:
                callee = project.resolve_call(summary.rel, summary.cls, call.target)
                if callee is None or callee is summary:
                    continue
                for exc in sorted(callee.escapes):
                    if exc in summary.escapes:
                        continue
                    if any(project.catches(g, exc) for g in call.guards):
                        continue
                    origin = callee.escape_traces.get(exc, (call.lineno, callee.display))
                    _note_escape(
                        summary,
                        exc,
                        call.lineno,
                        f"{summary.display} -> {origin[1]}",
                    )
                    changed = True
    return project


def build_summaries(modules: Sequence) -> ProjectSummaries:
    """Serial convenience wrapper: collect every module's flow, then assemble.

    ``modules`` is any sequence of objects with ``rel`` (project-relative
    path), ``source``, ``tree`` (parsed ``ast.Module``) and ``syntax`` (its
    :class:`~repro.lint.common.SyntaxIndex`) — in practice the engine's
    :class:`~repro.lint.engine.ModuleContext` list. The engine uses
    :func:`collect_module_flow` + :func:`assemble` directly when running
    with ``--jobs``.
    """
    flows = {
        ctx.rel: collect_module_flow(ctx.rel, ctx.source, ctx.syntax) for ctx in modules
    }
    return assemble(modules, flows)


def _note_escape(summary: FunctionSummary, exc: str, lineno: int, trace: str) -> None:
    name = exc.split(".")[-1]
    if name not in summary.escapes:
        summary.escapes.add(name)
        summary.escape_traces[name] = (lineno, trace)

