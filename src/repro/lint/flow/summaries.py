"""Project-wide call graph and per-function summaries.

For every function in the project this module computes:

* **escapes** — the set of exception class names that can leave the
  function: explicit ``raise`` statements (filtered through enclosing
  ``try`` handlers), re-raises, exceptions propagated from resolved project
  callees (fixpoint over the call graph), curated low-level raisers
  (``struct.unpack`` → ``struct.error``), and — for decoder-tree functions
  with a modelable CFG — an implicit ``IndexError`` for every unguarded
  direct buffer read found by the taint analysis.
* **param_sinks** — integer-ish parameters that flow into a slice bound,
  ``range()`` limit, or allocation size without a dominating bounds check,
  so callers passing untrusted lengths can be flagged at the call site.
  Only R015 reads them, for the callees its tainted arguments resolve to,
  so :meth:`ProjectSummaries.param_sinks` solves them on first request.

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
    TaintedArgRec,
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

#: Parameter-name shapes that hold integer quantities worth taint-seeding.
_INT_PARAM_HINTS = (
    "count",
    "length",
    "len",
    "size",
    "limit",
    "num",
    "n",
    "bits",
    "extra",
    "width",
    "offset",
    "level",
    "expected",
)


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


@dataclass(frozen=True)
class ParamSinkRec:
    """One dangerous sink an integer *parameter* reaches unchecked.

    Produced by the seeded-taint pass (:meth:`ProjectSummaries.param_sinks`):
    the parameter is assumed untrusted on entry, and if no in-function cap
    dominates the sink, the function amplifies whatever its callers pass in. R015 joins these against
    tainted call arguments to bound allocation interprocedurally.
    """

    param: str
    kind: str  # "allocation" | "repeat" | "range-limit" | "slice-bound"
    lineno: int


@dataclass(frozen=True)
class GlobalWriteRec:
    """One write to module- or class-level mutable state.

    ``kind`` is ``"global"`` (a ``global``-declared rebind), ``"attr"``
    (attribute store through a non-local base), ``"item"`` (subscript store
    through a non-local base), or ``"mutation"`` (a mutating method call —
    ``append``/``update``/... — on a non-local base). ``root`` is the base
    identifier so rules can check it really is module-level in its module.
    """

    name: str
    root: str
    lineno: int
    kind: str


@dataclass(frozen=True)
class PoolArgRec:
    """One suspicious argument at a pool-dispatch site.

    ``kind`` classifies the value's picklability as proven by the def-use
    chains: ``"lambda"``, ``"genexp"``, ``"open"`` (file handle), ``"lock"``
    (synchronization primitive), ``"nested"`` (function defined inside the
    dispatcher), or ``"call"`` (a call whose target — ``detail`` — the rule
    must resolve to decide, e.g. a generator function).
    """

    index: int
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class PoolDispatchRec:
    """One ``pool.submit``/``pool.map``-family call site.

    ``target`` is the dotted name of the dispatched callable when nameable;
    ``target_kind`` is ``"name"``, ``"lambda"``, ``"nested"``, or
    ``"opaque"``. ``args`` lists only the arguments the def-use trace could
    prove suspicious — an empty tuple means the site's arguments look clean.
    """

    lineno: int
    col: int
    method: str
    target: Optional[str]
    target_kind: str
    args: Tuple[PoolArgRec, ...] = ()


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
    params: List[str] = field(default_factory=list)
    read_sites: List[ReadSiteRec] = field(default_factory=list)
    sinks: List[SinkRec] = field(default_factory=list)
    escapes: Set[str] = field(default_factory=set)
    #: escaping exception -> (line, provenance chain "a -> b -> c").
    escape_traces: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    #: Calls forwarding unchecked tainted values (R015's caller side).
    tainted_args: List[TaintedArgRec] = field(default_factory=list)
    raises: List[RaiseRec] = field(default_factory=list)
    calls: List[CallRec] = field(default_factory=list)
    #: Concurrency facts (R010-R013): ``async def``, generator body,
    #: module-state writes, pool-dispatch sites, pool initializer targets.
    is_async: bool = False
    is_generator: bool = False
    global_writes: List[GlobalWriteRec] = field(default_factory=list)
    pool_dispatches: List[PoolDispatchRec] = field(default_factory=list)
    pool_initializers: Tuple[str, ...] = ()

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
        #: module rel -> its syntax index, for the seeded pass.
        self._syntax: Dict[str, SyntaxIndex] = {}
        self._param_sinks: Dict[str, Tuple[ParamSinkRec, ...]] = {}

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

    def param_sinks(self, fn: FunctionSummary) -> Tuple[ParamSinkRec, ...]:
        """Sinks ``fn``'s integer-ish parameters reach uncapped (R015's
        callee side), solved on first request from the parsed module."""
        found = self._param_sinks.get(fn.qualname)
        if found is None:
            syntax = self._syntax.get(fn.rel)
            found = () if syntax is None or not fn.supported else _param_sinks(fn, syntax)
            self._param_sinks[fn.qualname] = found
        return found

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


def _param_names(node: ast.AST) -> List[str]:
    args = node.args
    names = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
    return [n for n in names if n != "self"]


def _int_param(arg: ast.arg) -> bool:
    annotation = ast.dump(arg.annotation) if arg.annotation is not None else ""
    if "'int'" in annotation or '"int"' in annotation or "id='int'" in annotation:
        return True
    name = arg.arg.lower()
    return any(hint == name or name.endswith("_" + hint) for hint in _INT_PARAM_HINTS)


def _caught_set(handler: ast.ExceptHandler) -> Optional[frozenset]:
    """The names a handler catches, or ``None`` when it catches everything:
    a bare ``except:``, ``BaseException``, or a dynamic type expression."""
    names = caught_names(handler)
    if handler.type is None or any(
        name is None or name.split(".")[-1] == "BaseException" for name in names
    ):
        return None
    return frozenset(names)


#: Method names that mutate their receiver in place; a call through a
#: non-local base is a module-state write (R011's ``"mutation"`` kind).
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)

#: Receiver roots that denote per-instance (not module-level) state.
_INSTANCE_ROOTS = frozenset({"self", "cls"})


def _chain_root(node: ast.AST) -> Optional[str]:
    """The base identifier of an ``a.b[c].d`` chain, or ``None``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _chain_display(node: ast.AST) -> str:
    """Best-effort source-ish rendering of a store target for messages."""
    name = dotted_name(node)
    if name is not None:
        return name
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value) or _chain_root(node) or "<expr>"
        return f"{base}[...]"
    return _chain_root(node) or "<expr>"


def _local_names(func: ast.AST, scoped: Sequence[ast.AST]) -> Set[str]:
    """Every name bound in ``func``'s own scope (params, stores, imports).

    ``scoped`` is ``func``'s :func:`_scoped_walk`: nested function/class
    bodies are separate scopes and are skipped. ``global``-declared names
    are removed (assigning them writes the module, not a local).
    """
    names: Set[str] = set()
    args = func.args
    for a in [
        *args.posonlyargs,
        *args.args,
        *([args.vararg] if args.vararg else []),
        *args.kwonlyargs,
        *([args.kwarg] if args.kwarg else []),
    ]:
        names.add(a.arg)
    declared_global: Set[str] = set()
    for node in scoped:
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not func:
                names.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
    return names - declared_global


def _scoped_walk(func: ast.AST, syntax: SyntaxIndex) -> List[ast.AST]:
    """Every node under ``func``, not descending into nested scopes (the
    nested ``def``/``class``/``lambda`` node itself is included)."""
    nodes: List[ast.AST] = []
    stack: List[ast.AST] = list(syntax.children(func))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(syntax.children(node))
    return nodes


class _EffectCollector(ast.NodeVisitor):
    """Collect raise statements and call sites with their try-guards."""

    def __init__(self, local_names: Optional[Set[str]] = None) -> None:
        self.raises: List[RaiseRec] = []
        self.calls: List[CallRec] = []
        self.global_writes: List[GlobalWriteRec] = []
        self.has_yield = False
        self._locals = local_names if local_names is not None else set()
        self._global_decls: Set[str] = set()
        self._guards: List[Optional[frozenset]] = []
        self._handler_types: List[Optional[frozenset]] = []

    def visit_Global(self, node: ast.Global) -> None:
        self._global_decls.update(node.names)

    def visit_Yield(self, node: ast.Yield) -> None:
        self.has_yield = True
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.has_yield = True
        self.generic_visit(node)

    def _note_store(self, target: ast.AST, lineno: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._note_store(element, lineno)
            return
        if isinstance(target, ast.Starred):
            self._note_store(target.value, lineno)
            return
        if isinstance(target, ast.Name):
            if target.id in self._global_decls:
                self.global_writes.append(
                    GlobalWriteRec(target.id, target.id, lineno, "global")
                )
            return
        root = _chain_root(target)
        if root is None or root in self._locals or root in _INSTANCE_ROOTS:
            return
        kind = "item" if isinstance(target, ast.Subscript) else "attr"
        self.global_writes.append(
            GlobalWriteRec(_chain_display(target), root, lineno, kind)
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_store(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_store(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._note_store(node.target, node.lineno)
        self.generic_visit(node)

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
        if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATOR_METHODS:
            root = _chain_root(node.func.value)
            if root is not None and root not in self._locals and root not in _INSTANCE_ROOTS:
                base = _chain_display(node.func.value)
                self.global_writes.append(
                    GlobalWriteRec(
                        f"{base}.{node.func.attr}(...)", root, node.lineno, "mutation"
                    )
                )
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


#: Constructor terminal names that produce a *process* pool (ThreadPool
#: variants share address space and never pickle, so they are out of scope).
_POOL_CTORS = frozenset({"ProcessPoolExecutor", "Pool"})

#: Dispatch methods that ship a callable (plus arguments) to pool workers.
_DISPATCH_METHODS = frozenset(
    {
        "submit",
        "map",
        "map_async",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
    }
)

#: Methods whose trailing arguments are *iterables of* arguments rather than
#: arguments themselves (a generator expression fed to ``map`` is consumed in
#: the parent and is fine; only its elements must pickle).
_ITERABLE_ARG_METHODS = frozenset(
    {"map", "map_async", "starmap", "starmap_async", "imap", "imap_unordered"}
)

#: Synchronization-primitive constructors: unpicklable by construction.
_LOCK_CTORS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event", "Barrier"}
)


def _is_pool_ctor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name is not None and name.split(".")[-1] in _POOL_CTORS


def _classify_unpicklable(
    expr: ast.AST,
    defs: Dict[str, List[ast.AST]],
    nested: Set[str],
    _depth: int = 0,
) -> Optional[Tuple[str, str]]:
    """``(kind, detail)`` when ``expr`` is provably unpicklable, else ``None``.

    Names are traced through the function's def-use chains: a name is only
    condemned when *every* definition reaching it classifies as the same
    unpicklable shape, so rebinding to something clean stays quiet. ``call``
    is returned for named calls so the rule can resolve generator functions
    through the project call graph.
    """
    if _depth > 4:
        return None
    if isinstance(expr, ast.Lambda):
        return ("lambda", "")
    if isinstance(expr, ast.GeneratorExp):
        return ("genexp", "")
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
        if name is None:
            return None
        terminal = name.split(".")[-1]
        if terminal == "open":
            return ("open", name)
        if terminal in _LOCK_CTORS:
            return ("lock", name)
        return ("call", name)
    if isinstance(expr, ast.Name):
        if expr.id in nested:
            return ("nested", expr.id)
        bindings = defs.get(expr.id)
        if not bindings:
            return None
        verdicts = {
            _classify_unpicklable(b, defs, nested, _depth + 1) for b in bindings
        }
        if len(verdicts) == 1:
            verdict = verdicts.pop()
            # A name is only as suspicious as its worst *unanimous* binding;
            # "call" through a name keeps the callee for rule-side resolution.
            return verdict
    return None


def _collect_pool_facts(
    func: ast.AST, scoped: Sequence[ast.AST]
) -> Tuple[List[PoolDispatchRec], Tuple[str, ...]]:
    """Pool-dispatch sites and initializer targets within one function
    (``scoped`` is its :func:`_scoped_walk`)."""
    defs: Dict[str, List[ast.AST]] = {}
    nested: Set[str] = set()
    pool_names: Set[str] = set()
    initializers: List[str] = []

    for node in scoped:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.AST):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defs.setdefault(target.id, []).append(node.value)
                    if _is_pool_ctor(node.value):
                        pool_names.add(target.id)
        elif isinstance(node, ast.withitem):
            if isinstance(node.optional_vars, ast.Name) and _is_pool_ctor(
                node.context_expr
            ):
                pool_names.add(node.optional_vars.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not func:
                nested.add(node.name)
        if isinstance(node, ast.Call) and _is_pool_ctor(node):
            for kw in node.keywords:
                if kw.arg == "initializer":
                    name = dotted_name(kw.value)
                    if name is not None:
                        initializers.append(name)

    dispatches: List[PoolDispatchRec] = []
    for node in scoped:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        method = node.func.attr
        if method not in _DISPATCH_METHODS:
            continue
        receiver = node.func.value
        is_pool = (isinstance(receiver, ast.Name) and receiver.id in pool_names) or (
            _is_pool_ctor(receiver)
        )
        if not is_pool or not node.args:
            continue
        fn = node.args[0]
        target: Optional[str] = dotted_name(fn)
        if isinstance(fn, ast.Lambda):
            target_kind = "lambda"
        elif isinstance(fn, ast.Name) and fn.id in nested:
            target_kind, target = "nested", fn.id
        elif target is not None:
            target_kind = "name"
            verdict = _classify_unpicklable(fn, defs, nested)
            if verdict is not None and verdict[0] in ("lambda", "nested"):
                target_kind = verdict[0]
        else:
            target_kind = "opaque"

        bad_args: List[PoolArgRec] = []
        if method in _ITERABLE_ARG_METHODS:
            # Only literal containers expose their elements statically.
            candidates = []
            for iterable in node.args[1:]:
                if isinstance(iterable, (ast.List, ast.Tuple, ast.Set)):
                    candidates.extend(iterable.elts)
        else:
            candidates = list(node.args[1:]) + [kw.value for kw in node.keywords]
        for index, arg in enumerate(candidates):
            verdict = _classify_unpicklable(arg, defs, nested)
            if verdict is not None:
                bad_args.append(PoolArgRec(index, verdict[0], verdict[1]))
        dispatches.append(
            PoolDispatchRec(
                lineno=node.lineno,
                col=node.col_offset,
                method=method,
                target=target,
                target_kind=target_kind,
                args=tuple(bad_args),
            )
        )
    return dispatches, tuple(initializers)


def demands_taint(
    rel: str, cls: Optional[str], func: ast.AST, syntax: SyntaxIndex
) -> bool:
    """Whether a rule reads ``func``'s unseeded taint facts: the demand set.

    Taint starts only at a source call (:func:`~repro.lint.flow.taint.
    is_taint_source`), so a function that calls none has no sink and no
    tainted argument. Its read sites matter only in the decoder tree: R009
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
    its sinks, tainted call arguments and read sites.
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
            params=_param_names(func),
        )
        if cfg.supported and demands_taint(rel, cls_name, func, syntax):
            taint = analyze_taint(cfg)
            if not taint.converged:
                summary.unsupported = "a taint solve that did not converge"
            else:
                facts = taint.scan()
                summary.read_sites = facts.read_sites
                summary.sinks = facts.sinks
                summary.tainted_args = facts.tainted_args
        scoped = _scoped_walk(func, syntax)
        collector = _EffectCollector(local_names=_local_names(func, scoped))
        for stmt in func.body:
            collector.visit(stmt)
        summary.raises = collector.raises
        summary.calls = collector.calls
        summary.is_async = isinstance(func, ast.AsyncFunctionDef)
        summary.is_generator = collector.has_yield
        summary.global_writes = collector.global_writes
        summary.pool_dispatches, summary.pool_initializers = _collect_pool_facts(
            func, scoped
        )
        records.append(summary)
    return records


def _param_sinks(
    summary: FunctionSummary, syntax: SyntaxIndex
) -> Tuple[ParamSinkRec, ...]:
    """The seeded pass: integer-ish parameters assumed untrusted on entry,
    and every sink one reaches with no in-function cap."""
    func = next(
        node
        for cls_name, node in iter_functions(syntax.tree)
        if cls_name == summary.cls and node.lineno == summary.lineno
    )
    seeds = {
        a.arg
        for a in [*func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs]
        if a.arg != "self" and not is_buffer_name(a.arg) and _int_param(a)
    }
    if not seeds:
        return ()
    seeded = analyze_taint(build_cfg(func, syntax), tainted_params=seeds)
    if not seeded.converged:
        return ()
    return tuple(
        ParamSinkRec(param=param, kind=hit.kind, lineno=hit.lineno)
        for hit in seeded.scan().sinks
        for param in sorted(set(hit.names) & seeds)
    )


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
        project._syntax[ctx.rel] = ctx.syntax
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

