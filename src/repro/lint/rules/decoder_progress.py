"""R016: every decode loop must provably consume input or exit.

A decoder's ``while`` loop is driven by attacker-controlled bytes: if a
corrupt frame can steer execution onto a path that neither advances the
loop condition nor leaves the loop, the decoder spins forever and a single
call pins a serving-layer worker (the fleet-facing flavor of a denial of
service — no memory is harmed, the *thread* is). The classic shape is a
``continue`` taken before the cursor advance::

    while pos < len(data):
        tag = data[pos]
        if tag == _PADDING:
            continue          # pos unchanged: infinite loop on padding
        pos += 1
        ...

The rule checks, per ``while`` loop in decode-shaped functions of the
decoder tree:

* **progress or exit** — the body must contain at least one statement that
  can change a name the condition reads (assignment, augmented assignment,
  ``del``, or a mutating method call on it), or an exit (``break`` /
  ``return`` / ``raise``). ``while True`` loops must contain an exit.
* **progress before ``continue``** — every ``continue`` must be lexically
  preceded, on its own path, by such a progress statement. A ``while True``
  loop has no condition to read, so its *loop-carried* names stand in: the
  names the body reads before it assigns them (``pos`` in
  ``byte = data[pos]; pos += 1``, but not ``byte``).

Loops whose condition the rule cannot tie to any trackable name (pure call
conditions) are skipped rather than guessed, matching the flow package's
soundness stance. ``for`` loops are exempt: their iteration count is
bounded by the iterable. Baseline-free by design: a hit is fixed by
advancing the cursor or bounding the loop, never by baselining.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Sequence, Set

from repro.lint.common import (
    SyntaxIndex,
    decode_side,
    in_decoder_tree,
    is_test_path,
    iter_functions,
)
from repro.lint.engine import ModuleContext, ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.flow.dataflow import canonical_name
from repro.lint.registry import Rule, register

#: Method calls that mutate their receiver enough to change a loop
#: condition reading it (buffer consumption, queue draining).
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "remove",
        "discard",
        "clear",
        "pop",
        "popleft",
        "popitem",
        "update",
        "write",
        "truncate",
        "seek",
        "advance",
        "consume",
    }
)


def _tracked_names(test: ast.expr, syntax: SyntaxIndex) -> Optional[Set[str]]:
    """Names the loop condition reads, or ``None`` for ``while True``."""
    if isinstance(test, ast.Constant):
        return None if test.value else set()
    names: Set[str] = set()
    for node in syntax.walk(test):
        name = canonical_name(node)
        if name is not None:
            names.add(name)
    return names


def _target_roots(target: ast.expr) -> Iterator[str]:
    """Canonical roots a store/delete target can change."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_roots(elt)
        return
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        name = canonical_name(node)
        if name is not None:
            yield name
            return
        node = node.value if not isinstance(node, ast.Starred) else node.value
    name = canonical_name(node)
    if name is not None:
        yield name


def _stored_roots(stmt: ast.stmt) -> Set[str]:
    """Canonical roots an assignment or ``del`` statement stores to."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = stmt.targets
    else:
        return set()
    return {root for t in targets for root in _target_roots(t)}


def _stmt_progress(stmt: ast.stmt, tracked: Set[str]) -> bool:
    """Whether this single statement can advance the loop condition."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            root = canonical_name(func.value)
            return root is not None and root in tracked
        return False
    return bool(_stored_roots(stmt) & tracked)


def _subtree_progress(stmt: ast.stmt, tracked: Set[str], syntax: SyntaxIndex) -> bool:
    """Whether any statement under ``stmt`` can advance the condition."""
    return any(
        isinstance(node, ast.stmt) and _stmt_progress(node, tracked)
        for node in syntax.walk(stmt)
    )


def _own_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """The parts of ``stmt`` evaluated before its nested body runs."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [stmt]


def _carried_names(body: Sequence[ast.stmt], syntax: SyntaxIndex) -> Set[str]:
    """Names a loop body reads before it assigns them, in source order: the
    state one iteration hands the next. A statement's reads come before its
    own store, so ``pos += 1`` and ``pos = pos + 1`` read ``pos`` first."""
    assigned: Set[str] = set()
    carried: Set[str] = set()
    for stmt in _iter_stmts(body, into_loops=True):
        for expr in _own_exprs(stmt):
            for node in syntax.walk(expr):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    name = canonical_name(node)
                    if name is not None and name not in assigned:
                        carried.add(name)
        stored = _stored_roots(stmt)
        if isinstance(stmt, ast.AugAssign):
            carried |= stored - assigned
        assigned |= stored
    return carried


def _iter_stmts(
    body: Sequence[ast.stmt], *, into_loops: bool
) -> Iterator[ast.stmt]:
    """Statements of a loop body, optionally crossing nested loops; never
    crosses into nested function/class definitions."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not into_loops and isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            continue
        for attr in ("body", "orelse", "finalbody"):
            yield from _iter_stmts(getattr(stmt, attr, []) or [], into_loops=into_loops)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _iter_stmts(handler.body, into_loops=into_loops)


@register
class DecoderProgressRule(Rule):
    code = "R016"
    name = "decoder-progress"
    summary = "decode loops must provably consume input or exit"
    default_severity = Severity.ERROR
    remediation = (
        "Make every path through the loop advance the cursor or leave the "
        "loop: move the position update ahead of any `continue`, raise "
        "CorruptStreamError for frames that cannot progress, or bound the "
        "loop with a `for` over a computed iteration count. `while True` "
        "loops need a reachable break/return/raise."
    )

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for ctx in project.modules:
            if is_test_path(ctx.rel):
                continue
            if not in_decoder_tree(ctx.rel):
                continue
            for cls, func in iter_functions(ctx.tree):
                if not decode_side(func.name, cls):
                    continue
                for node in ctx.syntax.walk(func):
                    if isinstance(node, ast.While):
                        findings.extend(self._check_loop(ctx, node))
        return findings

    def _check_loop(self, ctx: ModuleContext, loop: ast.While) -> Iterable[Finding]:
        tracked = _tracked_names(loop.test, ctx.syntax)
        if tracked is not None and not tracked:
            return  # condition reads no trackable name: skip, don't guess
        exits = any(
            isinstance(s, (ast.Return, ast.Raise))
            for s in _iter_stmts(loop.body, into_loops=True)
        ) or any(
            isinstance(s, ast.Break)
            for s in _iter_stmts(loop.body, into_loops=False)
        )
        if tracked is None:
            if not exits:
                yield ctx.finding(
                    self,
                    loop,
                    "unbounded decode loop: `while True` body contains no "
                    "break/return/raise — a corrupt frame would spin here "
                    "forever",
                )
                return
            tracked = _carried_names(loop.body, ctx.syntax)
            yield from self._check_continues(ctx, loop.body, tracked, False)
            return
        progress = any(
            _stmt_progress(s, tracked)
            for s in _iter_stmts(loop.body, into_loops=True)
        )
        if not progress and not exits:
            names = ", ".join(sorted(tracked))
            yield ctx.finding(
                self,
                loop,
                f"decode loop can never terminate: the condition reads "
                f"({names}) but no statement in the body changes them and "
                "no break/return/raise exits the loop",
            )
            return
        yield from self._check_continues(ctx, loop.body, tracked, False)

    def _check_continues(
        self,
        ctx: ModuleContext,
        body: Sequence[ast.stmt],
        tracked: Set[str],
        progressed: bool,
    ) -> Iterator[Finding]:
        """Flag ``continue`` statements no progress statement precedes."""
        for stmt in body:
            if isinstance(stmt, ast.Continue) and not progressed:
                yield ctx.finding(
                    self,
                    stmt,
                    "this `continue` re-enters the loop without consuming "
                    "input: no statement before it on this path advances "
                    "the loop condition — a corrupt frame reaching it "
                    "loops forever",
                )
            elif isinstance(stmt, ast.If):
                yield from self._check_continues(ctx, stmt.body, tracked, progressed)
                yield from self._check_continues(ctx, stmt.orelse, tracked, progressed)
            elif isinstance(stmt, ast.Try):
                yield from self._check_continues(ctx, stmt.body, tracked, progressed)
                for handler in stmt.handlers:
                    yield from self._check_continues(
                        ctx, handler.body, tracked, progressed
                    )
                yield from self._check_continues(ctx, stmt.orelse, tracked, progressed)
                yield from self._check_continues(
                    ctx, stmt.finalbody, tracked, progressed
                )
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                yield from self._check_continues(ctx, stmt.body, tracked, progressed)
            if _subtree_progress(stmt, tracked, ctx.syntax):
                progressed = True
        return
