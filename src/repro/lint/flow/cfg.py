"""Per-function control-flow graphs built from ``ast``.

A :class:`CFG` decomposes one function body into :class:`Block`\\ s of
straight-line *items* connected by :class:`Edge`\\ s. Compound statements
are split into their atoms:

* ``if``/``while`` tests become a :class:`Test` item in the block that
  evaluates them; the outgoing edges carry ``(test, value)`` so analyses
  can refine facts on the true/false branches.
* ``for`` headers become a :class:`ForIter` item (binding the target on the
  body edge); ``with`` items become :class:`WithEnter`; ``except E as n``
  becomes :class:`ExceptBind` at the handler entry.
* Exceptional control flow is approximated conservatively: every block of a
  ``try`` body gets an edge to every handler entry (an exception may occur
  anywhere inside the body), and ``finally`` blocks join both the normal
  and handler exits.

The builder never guesses: a construct it cannot model (``match``,
``try*`` exception groups) is named in :attr:`CFG.unsupported`, and R009
reports a decode-side function it marks as unmodelled.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.lint.common import SyntaxIndex

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Branch condition carried on an edge: the test expression and the value it
#: must have for control to take this edge.
Cond = Tuple[ast.expr, bool]


@dataclass
class Item:
    """One atom of execution inside a block."""

    node: ast.AST


class Stmt(Item):
    """A simple (non-compound) statement executed in order."""


class Test(Item):
    """Evaluation of an ``if``/``while`` condition; ``node`` is the expr."""


class ForIter(Item):
    """A ``for target in iter`` header; ``node`` is the ``ast.For``."""


class WithEnter(Item):
    """One ``with`` item; ``node`` is the ``ast.withitem``."""


class ExceptBind(Item):
    """Entry of an ``except`` handler; ``node`` is the ``ast.ExceptHandler``."""


def scan_expr(item: Item) -> Optional[ast.AST]:
    """The expression an analysis should scan when *this item* executes.

    Compound-statement headers carry the whole ``ast`` node for location
    reporting, but only part of it runs at the header: a ``for`` header
    evaluates its iterable (the body subtree runs later, in body blocks,
    under refined facts), a ``with`` item evaluates its context expression,
    and an ``except`` binding evaluates nothing. Scanning ``item.node``
    wholesale would re-visit body subexpressions under the header's
    unrefined environment.
    """
    node = item.node
    if isinstance(item, ForIter):
        return node.iter
    if isinstance(item, WithEnter):
        return node.context_expr
    if isinstance(item, ExceptBind):
        return None
    if isinstance(item, Test):
        return node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return None  # nested scopes are analysed separately
    if isinstance(node, (ast.Match, getattr(ast, "TryStar", ast.Match))):
        return None  # unsupported constructs mark the CFG unsupported anyway
    return node


@dataclass
class Edge:
    src: int
    dst: int
    cond: Optional[Cond] = None

    #: True for the approximate exception edges into handler entries.
    exceptional: bool = False


@dataclass
class Block:
    id: int
    items: List[Item] = field(default_factory=list)
    succs: List[Edge] = field(default_factory=list)
    preds: List[Edge] = field(default_factory=list)


@dataclass
class CFG:
    """Control-flow graph of one function."""

    func: FunctionNode
    blocks: List[Block]
    entry: int
    exit: int  # normal exits (returns and fall-off-end) converge here
    #: Index of a tree holding ``func``; the analyses walk items through it.
    syntax: SyntaxIndex
    #: The construct the builder could not model ("" when it modelled all).
    unsupported: str = ""

    @property
    def supported(self) -> bool:
        return not self.unsupported

    def block(self, block_id: int) -> Block:
        return self.blocks[block_id]

    def edges(self) -> List[Edge]:
        return [edge for block in self.blocks for edge in block.succs]


class _LoopFrame:
    def __init__(self, header: int, after: int) -> None:
        self.header = header
        self.after = after


class _Builder:
    def __init__(self, func: FunctionNode, syntax: SyntaxIndex) -> None:
        self.func = func
        self.syntax = syntax
        self.blocks: List[Block] = []
        self.loops: List[_LoopFrame] = []
        self.unsupported = ""
        #: Handler entries of every enclosing ``try`` (innermost last); any
        #: block created while inside gets exceptional edges to them.
        self.handler_stack: List[List[int]] = []

    # -- graph primitives ---------------------------------------------------

    def new_block(self) -> int:
        block = Block(id=len(self.blocks))
        self.blocks.append(block)
        for handlers in self.handler_stack:
            for handler in handlers:
                self._raw_edge(block.id, handler, exceptional=True)
        return block.id

    def _raw_edge(
        self, src: int, dst: int, cond: Optional[Cond] = None, exceptional: bool = False
    ) -> None:
        edge = Edge(src=src, dst=dst, cond=cond, exceptional=exceptional)
        self.blocks[src].succs.append(edge)
        if dst >= 0:  # -1 is the return placeholder, rewired in build()
            self.blocks[dst].preds.append(edge)

    def edge(self, src: Optional[int], dst: int, cond: Optional[Cond] = None) -> None:
        if src is not None:
            self._raw_edge(src, dst, cond)

    # -- statement lowering -------------------------------------------------

    def build(self) -> CFG:
        entry = self.new_block()
        tail = self.seq(self.func.body, entry)
        exit_id = self.new_block()
        self.edge(tail, exit_id)
        # Rewire the placeholder return edges (dst == -1) to the exit block.
        for block in self.blocks:
            for edge in block.succs:
                if edge.dst == -1:
                    edge.dst = exit_id
                    self.blocks[exit_id].preds.append(edge)
        return CFG(
            func=self.func,
            blocks=self.blocks,
            entry=entry,
            exit=exit_id,
            syntax=self.syntax,
            unsupported=self.unsupported,
        )

    def seq(self, stmts: List[ast.stmt], cur: Optional[int]) -> Optional[int]:
        """Lower a statement list; returns the live continuation block."""
        for stmt in stmts:
            if cur is None:
                # Unreachable code after return/raise/break: keep lowering
                # into a fresh orphan block so its defs still exist.
                cur = self.new_block()
            cur = self.stmt(stmt, cur)
        return cur

    def stmt(self, node: ast.stmt, cur: int) -> Optional[int]:
        if isinstance(node, ast.If):
            return self._if(node, cur)
        if isinstance(node, (ast.While,)):
            return self._while(node, cur)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return self._for(node, cur)
        if isinstance(node, ast.Try):
            return self._try(node, cur)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return self._with(node, cur)
        if isinstance(node, ast.Return):
            self.blocks[cur].items.append(Stmt(node))
            self._raw_edge(cur, -1)  # placeholder: rewired to exit in build()
            return None
        if isinstance(node, ast.Raise):
            self.blocks[cur].items.append(Stmt(node))
            return None
        if isinstance(node, ast.Break):
            if self.loops:
                self.edge(cur, self.loops[-1].after)
            return None
        if isinstance(node, ast.Continue):
            if self.loops:
                self.edge(cur, self.loops[-1].header)
            return None
        if isinstance(node, (ast.Match, getattr(ast, "TryStar", ast.Match))):
            kind = "match" if isinstance(node, ast.Match) else "try*"
            self.unsupported = self.unsupported or f"a '{kind}' statement at line {node.lineno}"
            self.blocks[cur].items.append(Stmt(node))
            return cur
        # Simple statements — including nested def/class (opaque) and assert.
        self.blocks[cur].items.append(Stmt(node))
        return cur

    def _if(self, node: ast.If, cur: int) -> Optional[int]:
        self.blocks[cur].items.append(Test(node.test))
        then_entry = self.new_block()
        self.edge(cur, then_entry, (node.test, True))
        then_exit = self.seq(node.body, then_entry)
        if node.orelse:
            else_entry = self.new_block()
            self.edge(cur, else_entry, (node.test, False))
            else_exit = self.seq(node.orelse, else_entry)
        else:
            else_exit = None
        if then_exit is None and node.orelse and else_exit is None:
            return None
        after = self.new_block()
        self.edge(then_exit, after)
        if node.orelse:
            self.edge(else_exit, after)
        else:
            self.edge(cur, after, (node.test, False))
        return after

    def _while(self, node: ast.While, cur: int) -> Optional[int]:
        header = self.new_block()
        self.edge(cur, header)
        self.blocks[header].items.append(Test(node.test))
        after = self.new_block()
        body_entry = self.new_block()
        self.edge(header, body_entry, (node.test, True))
        is_infinite = isinstance(node.test, ast.Constant) and bool(node.test.value)
        if not is_infinite:
            self.edge(header, after, (node.test, False))
        self.loops.append(_LoopFrame(header=header, after=after))
        body_exit = self.seq(node.body, body_entry)
        self.loops.pop()
        self.edge(body_exit, header)
        if node.orelse:
            # ``else`` runs on normal exhaustion; approximate by lowering it
            # between the false edge and ``after``.
            else_exit = self.seq(node.orelse, after)
            if else_exit is not None and else_exit != after:
                follow = self.new_block()
                self.edge(else_exit, follow)
                return follow
        if is_infinite and not self.blocks[after].preds:
            return None  # `while True` with no break never falls through
        return after

    def _for(self, node: Union[ast.For, ast.AsyncFor], cur: int) -> Optional[int]:
        header = self.new_block()
        self.edge(cur, header)
        self.blocks[header].items.append(ForIter(node))
        after = self.new_block()
        body_entry = self.new_block()
        self.edge(header, body_entry)
        self.edge(header, after)
        self.loops.append(_LoopFrame(header=header, after=after))
        body_exit = self.seq(node.body, body_entry)
        self.loops.pop()
        self.edge(body_exit, header)
        if node.orelse:
            else_exit = self.seq(node.orelse, after)
            if else_exit is not None and else_exit != after:
                follow = self.new_block()
                self.edge(else_exit, follow)
                return follow
        return after

    def _with(self, node: Union[ast.With, ast.AsyncWith], cur: int) -> Optional[int]:
        for item in node.items:
            self.blocks[cur].items.append(WithEnter(item))
        return self.seq(node.body, cur)

    def _try(self, node: ast.Try, cur: int) -> Optional[int]:
        handler_entries = [self.new_block() for _ in node.handlers]
        for entry, handler in zip(handler_entries, node.handlers):
            self.blocks[entry].items.append(ExceptBind(handler))

        body_entry = self.new_block()
        self.edge(cur, body_entry)
        # The entry itself may fault (first statement raises).
        for entry in handler_entries:
            self._raw_edge(body_entry, entry, exceptional=True)
        self.handler_stack.append(handler_entries)
        body_exit = self.seq(node.body, body_entry)
        self.handler_stack.pop()

        if node.orelse:
            body_exit = self.seq(node.orelse, body_exit) if body_exit is not None else None

        exits: List[Optional[int]] = [body_exit]
        for entry, handler in zip(handler_entries, node.handlers):
            exits.append(self.seq(handler.body, entry))

        live = [e for e in exits if e is not None]
        if node.finalbody:
            final_entry = self.new_block()
            for e in live:
                self.edge(e, final_entry)
            if not live:
                # All paths diverge, but the finally body still executes on
                # the exceptional path; lower it as an orphan for its defs.
                self.seq(node.finalbody, final_entry)
                return None
            return self.seq(node.finalbody, final_entry)
        if not live:
            return None
        after = self.new_block()
        for e in live:
            self.edge(e, after)
        return after


def build_cfg(func: FunctionNode, syntax: SyntaxIndex) -> CFG:
    """Build the CFG of one function; never raises on valid ``ast`` input.

    ``syntax`` indexes a tree containing ``func``: the module's, so every
    function's analyses share the walks it keeps.
    """
    return _Builder(func, syntax).build()
