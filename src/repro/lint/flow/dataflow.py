"""Reaching definitions and def-use chains over a :class:`~repro.lint.flow.cfg.CFG`.

Variables are identified by *canonical names*: plain locals are their
identifier, and single-level ``self`` attributes are tracked as
``"self.attr"`` so streaming-context state machines (``self._pending``,
``self._expected``) participate in the analysis. Deeper attribute chains and
arbitrary subscript targets are treated as opaque.

The solver is the classic forward may-analysis: ``IN[b] = union(OUT[p])``,
``OUT[b] = gen(b) | (IN[b] - kill(b))``, iterated to a fixpoint with a
worklist. :meth:`ReachingDefs.defs_at` replays the block transfer up to an
item index so per-statement queries (def-use chains) are exact, not
block-granular.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.common import SyntaxIndex
from repro.lint.flow.cfg import CFG, ExceptBind, ForIter, Item, Stmt, WithEnter, scan_expr

#: Sentinel definition site for function parameters (no AST statement).
PARAM_DEF = "<param>"


def canonical_name(node: ast.AST) -> Optional[str]:
    """Canonical variable name for an expression, or ``None`` if untracked."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _target_names(target: ast.AST) -> Iterator[str]:
    """All canonical names bound by an assignment target."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)
    else:
        name = canonical_name(target)
        if name is not None:
            yield name


def bound_names(item: Item, syntax: SyntaxIndex) -> List[str]:
    """Names (re)bound by one CFG item, in binding order."""
    node = item.node
    names: List[str] = []
    if isinstance(item, ForIter):
        names.extend(_target_names(node.target))
    elif isinstance(item, WithEnter):
        if node.optional_vars is not None:
            names.extend(_target_names(node.optional_vars))
    elif isinstance(item, ExceptBind):
        if node.name:
            names.append(node.name)
    elif isinstance(item, Stmt):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.extend(_target_names(target))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            names.extend(_target_names(node.target))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.append((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.append(alias.asname or alias.name)
    # Walrus targets in the expressions this item actually evaluates.
    scanned = scan_expr(item)
    if scanned is not None:
        for sub in syntax.walk(scanned):
            if isinstance(sub, ast.NamedExpr):
                names.extend(_target_names(sub.target))
    return names


def used_names(expr: ast.AST, syntax: SyntaxIndex) -> Set[str]:
    """Canonical names read anywhere inside an expression."""
    names: Set[str] = set()
    for node in syntax.walk(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(f"self.{node.attr}")
    return names


@dataclass(frozen=True)
class Definition:
    """One definition site: ``name`` bound at ``item`` of ``block``."""

    name: str
    block: int
    index: int  # item index within the block; -1 for parameters

    @property
    def is_param(self) -> bool:
        return self.index == -1


class ReachingDefs:
    """Solved reaching-definitions facts for one CFG."""

    def __init__(self, cfg: CFG, block_in: Dict[int, Set[Definition]]) -> None:
        self.cfg = cfg
        self._block_in = block_in

    def defs_at(self, block_id: int, index: int) -> Dict[str, Set[Definition]]:
        """Definitions reaching just *before* item ``index`` of ``block_id``."""
        live: Dict[str, Set[Definition]] = {}
        for definition in self._block_in.get(block_id, set()):
            live.setdefault(definition.name, set()).add(definition)
        block = self.cfg.block(block_id)
        for i, item in enumerate(block.items[:index]):
            for name in bound_names(item, self.cfg.syntax):
                live[name] = {Definition(name=name, block=block_id, index=i)}
        return live

    def uses_of(self, definition: Definition) -> List[Tuple[int, int, str]]:
        """Def-use chain: ``(block, item index, name)`` sites reading ``definition``."""
        uses: List[Tuple[int, int, str]] = []
        for block in self.cfg.blocks:
            for i, item in enumerate(block.items):
                reaching = self.defs_at(block.id, i).get(definition.name, set())
                if definition in reaching and definition.name in used_names(
                    item.node, self.cfg.syntax
                ):
                    uses.append((block.id, i, definition.name))
        return uses


def reaching_definitions(cfg: CFG) -> ReachingDefs:
    """Solve reaching definitions for ``cfg`` (parameters reach the entry)."""
    params: Set[Definition] = set()
    args = cfg.func.args
    for arg in [
        *args.posonlyargs,
        *args.args,
        *([args.vararg] if args.vararg else []),
        *args.kwonlyargs,
        *([args.kwarg] if args.kwarg else []),
    ]:
        params.add(Definition(name=arg.arg, block=cfg.entry, index=-1))

    def transfer(block_id: int, facts: Set[Definition]) -> Set[Definition]:
        live: Dict[str, Set[Definition]] = {}
        for definition in facts:
            live.setdefault(definition.name, set()).add(definition)
        for i, item in enumerate(cfg.block(block_id).items):
            for name in bound_names(item, cfg.syntax):
                live[name] = {Definition(name=name, block=block_id, index=i)}
        return {d for defs in live.values() for d in defs}

    block_in: Dict[int, Set[Definition]] = {b.id: set() for b in cfg.blocks}
    block_in[cfg.entry] = set(params)
    block_out: Dict[int, Set[Definition]] = {
        b.id: transfer(b.id, block_in[b.id]) for b in cfg.blocks
    }
    worklist = [b.id for b in cfg.blocks]
    while worklist:
        block_id = worklist.pop(0)
        incoming: Set[Definition] = set(params) if block_id == cfg.entry else set()
        for edge in cfg.block(block_id).preds:
            incoming |= block_out[edge.src]
        block_in[block_id] = incoming
        out = transfer(block_id, incoming)
        if out != block_out[block_id]:
            block_out[block_id] = out
            for edge in cfg.block(block_id).succs:
                if edge.dst >= 0 and edge.dst not in worklist:
                    worklist.append(edge.dst)
    return ReachingDefs(cfg, block_in)
