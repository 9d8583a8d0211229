"""R012: the entropy and ordering hazards our bit-identical contracts fear.

The repo's core reproducibility promises — identical seeds give identical
fleet samples, HCBench suites and DSE sweeps; bit-identical DSE results
across worker counts; byte-identical lint findings for any ``--jobs``;
golden vectors stable across machines — all die by a thousand small cuts
of *accidental* nondeterminism. This rule flags the exact cuts.

Entropy (every library module except ``common/rng.py``, the one module
allowed to touch ``numpy.random``):

* **RNG imports.** Importing the stdlib ``random`` module or
  ``numpy.random`` (under any alias: ``from numpy import random as npr``,
  ``import numpy.random as nr``). Importing the type names ``Generator``,
  ``SeedSequence`` and ``BitGenerator`` is fine.
* **Entropy drawn outside** :func:`repro.common.rng.make_rng`. Calls
  through ``random`` or ``numpy.random``, module aliases resolved, draw
  from interpreter-global state or build generators the seed contract
  cannot see (``np.random.default_rng()``). Attribute access for type
  annotations (``np.random.Generator``) is not a call and stays legal.
* **Time-derived seeds.** ``time.time()`` & co. in a statement that
  mentions a seed or inside an argument of a seeding call.

Ordering and wall-clock (also exempt: ``repro.obs``, whose whole purpose is
wall-clock measurement):

* **Unsorted filesystem enumeration.** ``os.listdir``/``os.scandir``/
  ``glob.glob``/``Path.glob``/``rglob``/``iterdir`` return entries in an
  OS-dependent order; any consumer that is not wrapped in ``sorted()`` (or
  an order-insensitive reducer: ``set``/``len``/``sum``/``min``/``max``/
  ``any``/``all``) inherits that order. Sort at the source, not downstream.
* **Set iteration feeding ordered output.** Iterating a ``set`` literal,
  comprehension, or ``set()``/``frozenset()`` value — directly or through a
  name the def-chain proves set-typed — in a ``for`` header, comprehension,
  ``list``/``tuple``/``enumerate`` call, or ``str.join`` produces
  ``PYTHONHASHSEED``-dependent order for string elements.
* **Wall-clock flowing into serialized artifacts.** ``time.time()`` & co.
  passed (directly or via a once-assigned local) into cache keys, digests,
  or JSON serialization makes artifacts differ between identical runs.

The last two checks read names per scope: the module, or the nearest
``def`` whose body holds the node. A class body belongs to the scope around
it, and a ``def``'s decorators, defaults and annotations belong to none.
Each node's scope is found by climbing the syntax index's parent map
(:func:`_scope_of`); the nodes themselves come from the index's per-type
buckets, so no scope is re-walked.

Test files are exempt wholesale: ad-hoc randomness in tests is a
test-quality question, not a reproducibility bug in the library. The
runtime counterpart is the tier-1 test
``tests/integration/test_hashseed_parity.py``, which runs the shipped
commands under two hash seeds and worker counts and catches whatever this
static pass cannot prove (see DESIGN.md §7.5).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.common import (
    SyntaxIndex,
    dotted_name,
    is_test_path,
    path_matches,
    resolve_alias,
    terminal_name,
)
from repro.lint.engine import ModuleContext, ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

#: The module that owns entropy; everything else must call into it.
_RNG_OWNER = ("common/rng.py",)

#: Wall-clock measurement is the point of these; only the ordering and
#: clock-sink checks skip them.
_CLOCK_OWNERS = ("obs",)

_TIME_SOURCES = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

#: Call targets whose arguments are seed material.
_SEED_SINKS = re.compile(r"(make_rng|default_rng|SeedSequence|RandomState|Random|seed)$")

_SEEDISH_LINE = re.compile(r"seed", re.IGNORECASE)

#: numpy.random names that only *type* (importing them draws no entropy).
_NP_TYPE_NAMES = frozenset({"Generator", "SeedSequence", "BitGenerator"})

#: Call terminals that enumerate the filesystem in OS order.
_ENUM_TERMINALS = frozenset(
    {"listdir", "scandir", "glob", "iglob", "rglob", "iterdir"}
)

#: Wrapping calls that make enumeration order irrelevant.
_ORDER_SAFE_WRAPPERS = frozenset(
    {"sorted", "set", "frozenset", "len", "sum", "min", "max", "any", "all"}
)

#: Call terminals that consume an iterable in order.
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate", "join"})

#: Sinks that serialize or key on their arguments.
_SINK_RE = re.compile(
    r"(^|\.)(key|make_key|dumps|dump|to_json|digest\w*|sha\d+|md5|blake2\w+|put)$"
)


def _is_time_call(expr: ast.AST) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    name = dotted_name(expr.func) or ""
    return name in _TIME_SOURCES or (name.endswith(".now") and "datetime" in name)


def _seed_material(calls: Sequence[ast.Call], syntax: SyntaxIndex) -> Set[int]:
    """``id()`` of every node inside an argument of a seeding call."""
    inside: Set[int] = set()
    for call in calls:
        if _SEED_SINKS.search(dotted_name(call.func) or ""):
            for arg in [*call.args, *(kw.value for kw in call.keywords)]:
                inside.update(id(sub) for sub in syntax.walk(arg))
    return inside


def _wrapped_order_safe(node: ast.AST, syntax: SyntaxIndex) -> bool:
    """True when an ancestor call neutralizes iteration order."""
    cur = node
    while True:
        parent = syntax.parent(cur)
        if parent is None or isinstance(parent, ast.stmt):
            return False
        if isinstance(parent, ast.Call):
            if terminal_name(parent.func) in _ORDER_SAFE_WRAPPERS:
                return True
        if isinstance(parent, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops
        ):
            return True  # membership test: order-free
        cur = parent


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return terminal_name(node.func) in ("set", "frozenset")
    return False


def _scope_of(node: ast.AST, syntax: SyntaxIndex) -> Optional[ast.AST]:
    """The scope ``node`` lies lexically in: the nearest ``def`` whose body
    holds it, else the module. Nested ``def``s are their own scopes, so no
    hazard is reported once per enclosing scope; a ``def``'s decorators,
    defaults and annotations lie in no scope (``None``)."""
    child, parent = node, syntax.parent(node)
    while parent is not None:
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return parent if child in parent.body else None
        child, parent = parent, syntax.parent(parent)
    return child


def _scope_bindings(
    syntax: SyntaxIndex,
) -> Tuple[Dict[int, Dict[str, List[ast.AST]]], Dict[int, Set[str]]]:
    """Per scope (keyed by ``id()``): every value each plain name is
    assigned, and the names assigned a wall-clock reading."""
    defs: Dict[int, Dict[str, List[ast.AST]]] = {}
    clocks: Dict[int, Set[str]] = {}
    for node in syntax.nodes(ast.Assign):
        names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        scope = _scope_of(node, syntax) if names else None
        if scope is None:
            continue
        table = defs.setdefault(id(scope), {})
        for name in names:
            table.setdefault(name, []).append(node.value)
        if _is_time_call(node.value):
            clocks.setdefault(id(scope), set()).update(names)
    return defs, clocks


@register
class DeterminismHygieneRule(Rule):
    code = "R012"
    name = "determinism-hygiene"
    summary = (
        "entropy only from make_rng; no unsorted enumeration, hash-order "
        "iteration, or clock-derived seeds and artifacts"
    )
    default_severity = Severity.ERROR
    remediation = (
        "Draw randomness from repro.common.rng.make_rng with an explicit "
        "integer seed, sort filesystem enumerations at the source "
        "(`sorted(os.listdir(p))`), iterate sets through `sorted(...)` when "
        "the order reaches any output, and keep wall-clock values out of "
        "seeds, cache keys and serialized artifacts. Verify the fix "
        "end-to-end with tests/integration/test_hashseed_parity.py."
    )

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for ctx in project.modules:
            if is_test_path(ctx.rel) or path_matches(ctx.rel, _RNG_OWNER):
                continue
            ordering = not path_matches(ctx.rel, _CLOCK_OWNERS)
            findings.extend(self._check_module(ctx, ordering))
        return findings

    def _check_module(self, ctx: ModuleContext, ordering: bool) -> Iterator[Finding]:
        """Every check over the module's indexed nodes; the ordering and
        wall-clock checks run only when ``ordering``."""
        syntax = ctx.syntax
        for node in syntax.nodes(ast.Import, ast.ImportFrom):
            yield from self._check_import(ctx, node)
        # An unimported ``np`` still means numpy.
        aliases = {"np": "numpy", **syntax.imports}
        calls = syntax.nodes(ast.Call)
        seed_material = _seed_material(calls, syntax)
        enumerations: List[ast.Call] = []
        for node in calls:
            yield from self._check_rng_call(ctx, node, aliases)
            if _is_time_call(node) and (
                _SEEDISH_LINE.search(ctx.snippet(node.lineno))
                or id(node) in seed_material
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"time-derived seed via {dotted_name(node.func)}(): seeds "
                    "must be explicit integers so identical seeds give "
                    "identical runs",
                )
            # Only dotted receivers: ``Path(p).glob(...)`` is not tracked.
            if terminal_name(node.func) in _ENUM_TERMINALS and dotted_name(node.func):
                enumerations.append(node)
        if not ordering:
            return
        for node in enumerations:
            yield from self._check_enumeration(ctx, node)
        defs, clocks = _scope_bindings(syntax)
        yield from self._check_set_iteration(ctx, calls, defs)
        yield from self._check_clock_sinks(ctx, calls, clocks)

    # -- entropy outside repro.common.rng --------------------------------

    def _check_import(self, ctx: ModuleContext, node: ast.stmt) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    yield ctx.finding(
                        self,
                        node,
                        "import of stdlib 'random': use repro.common.rng.make_rng "
                        "so runs are seed-deterministic",
                    )
                elif alias.name.startswith("numpy.random"):
                    yield ctx.finding(
                        self,
                        node,
                        "direct numpy.random import: derive generators via "
                        "repro.common.rng.make_rng",
                    )
            return
        module = node.module or ""
        names = {alias.name for alias in node.names}
        if module == "random" or module.startswith("random."):
            yield ctx.finding(
                self,
                node,
                "import from stdlib 'random': use repro.common.rng.make_rng",
            )
        elif module == "numpy" and "random" in names:
            yield ctx.finding(
                self,
                node,
                "import of numpy.random from numpy: derive generators via "
                "repro.common.rng.make_rng",
            )
        elif module == "numpy.random" or module.startswith("numpy.random."):
            if names - _NP_TYPE_NAMES:
                yield ctx.finding(
                    self,
                    node,
                    "import from numpy.random: only type names may be "
                    "imported; draw entropy via repro.common.rng.make_rng",
                )

    def _check_rng_call(
        self, ctx: ModuleContext, node: ast.Call, aliases: Dict[str, str]
    ) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = resolve_alias(name, aliases).split(".")
        if parts[0] == "random" and len(parts) == 2:
            yield ctx.finding(
                self,
                node,
                f"'{name}()' draws from the interpreter-global random state; "
                "use repro.common.rng.make_rng with an explicit seed",
            )
        elif parts[:2] == ["numpy", "random"] and len(parts) >= 3:
            yield ctx.finding(
                self,
                node,
                f"'{name}()' draws from numpy.random directly; derive a "
                "Generator from repro.common.rng.make_rng instead",
            )

    # -- unsorted filesystem enumeration ---------------------------------

    def _check_enumeration(self, ctx: ModuleContext, node: ast.Call) -> Iterator[Finding]:
        if _wrapped_order_safe(node, ctx.syntax):
            return
        yield ctx.finding(
            self,
            node,
            f"'{dotted_name(node.func)}(...)' enumerates the filesystem in "
            "OS-dependent order; wrap it in sorted(...) at the source so "
            "every consumer sees one canonical order",
        )

    # -- set iteration feeding ordered output ----------------------------

    def _check_set_iteration(
        self,
        ctx: ModuleContext,
        calls: Sequence[ast.Call],
        defs: Dict[int, Dict[str, List[ast.AST]]],
    ) -> Iterator[Finding]:
        syntax = ctx.syntax
        module_consts = defs.get(id(ctx.tree), {})

        def provable_set(expr: ast.AST, scope: ast.AST) -> bool:
            if _is_set_expr(expr):
                return True
            local_defs = defs.get(id(scope), {}) if scope is not ctx.tree else {}
            bindings = local_defs.get(expr.id) or module_consts.get(expr.id)
            return bool(bindings) and all(_is_set_expr(b) for b in bindings)

        # (node whose scope counts, iterated expression, context)
        candidates: List[Tuple[ast.AST, ast.AST, str]] = []
        for node in syntax.nodes(ast.For, ast.AsyncFor):
            candidates.append((node, node.iter, "for loop"))
        for node in syntax.nodes(ast.ListComp, ast.GeneratorExp):
            for gen in node.generators:
                candidates.append((node, gen.iter, "comprehension"))
        for node in calls:
            terminal = terminal_name(node.func)
            if terminal in _ORDERED_CONSUMERS and node.args:
                candidates.append((node, node.args[0], f"{terminal}(...)"))
        for node, expr, context in candidates:
            if not (_is_set_expr(expr) or isinstance(expr, ast.Name)):
                continue
            scope = _scope_of(node, syntax)
            if scope is None or not provable_set(expr, scope):
                continue
            yield ctx.finding(
                self,
                expr,
                f"iteration over a set in a {context} is PYTHONHASHSEED-"
                "dependent for str elements; iterate sorted(...) so the "
                "order is canonical",
            )

    # -- wall-clock flowing into keys / serialized artifacts -------------

    def _check_clock_sinks(
        self, ctx: ModuleContext, calls: Sequence[ast.Call], clocks: Dict[int, Set[str]]
    ) -> Iterator[Finding]:
        for node in calls:
            name = dotted_name(node.func) or ""
            if not _SINK_RE.search(name):
                continue
            scope = _scope_of(node, ctx.syntax)
            if scope is None:
                continue
            time_names = clocks.get(id(scope), set())
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                tainted = any(
                    _is_time_call(sub)
                    or (
                        isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)
                        and sub.id in time_names
                    )
                    for sub in ctx.syntax.walk(arg)
                )
                if tainted:
                    yield ctx.finding(
                        self,
                        node,
                        f"wall-clock value flows into '{name}(...)'; "
                        "keys, digests and serialized artifacts must "
                        "be pure functions of their inputs so "
                        "identical runs produce identical bytes",
                    )
                    break
