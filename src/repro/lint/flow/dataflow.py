"""Variable names bound and read by the items of a :class:`~repro.lint.flow.cfg.CFG`.

Variables are identified by *canonical names*: plain locals are their
identifier, and single-level ``self`` attributes are tracked as
``"self.attr"`` so streaming-context state machines (``self._pending``,
``self._expected``) participate in the analysis. Deeper attribute chains and
arbitrary subscript targets are treated as opaque. The taint solver
(:mod:`repro.lint.flow.taint`) rebinds and reads facts through these.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.common import SyntaxIndex
from repro.lint.flow.cfg import ExceptBind, ForIter, Item, Stmt, WithEnter, scan_expr


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
