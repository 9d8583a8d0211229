"""AST and path helpers shared by the flow layer and the rules, the
per-module syntax-tree index they all read (:class:`SyntaxIndex`), plus the
decoder-tree contract: which modules read untrusted bytes, and which of
their functions are decode-side.

Every decoder-robustness check (R002's handler checks, R009, R016) and
the flow layer's taint demand set scope themselves through
:func:`in_decoder_tree` and :func:`decode_side`, so "decode side" means
one thing across the analyzer.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from functools import cached_property
from typing import DefaultDict, Dict, Iterator, List, Optional, Sequence, Tuple

# -- the per-module syntax-tree index ----------------------------------------


class SyntaxIndex:
    """One traversal of a parsed tree, owned by the module that parsed it.

    The analyzer asks the same structural questions of a module many times
    over: every rule looks for the node types it checks, and each
    taint-fixpoint pass re-walks the statements it transfers. The index
    answers them from a single breadth-first traversal, made when the first
    question comes (so a run the lint cache answers never pays for it):

    * :meth:`children` -- ``ast.iter_child_nodes`` order;
    * :meth:`parent` -- the node's parent, as a whole-tree parent map
      records it (the ``ctx`` and operator singletons ``ast.parse`` shares
      map to the last parent in walk order);
    * :meth:`walk` -- the exact ``ast.walk`` order, built from the children
      on a node's first request and then kept;
    * :meth:`nodes` -- every node of the given exact types, bucketed by type
      during the traversal, so a rule that checks a few node types reads
      them instead of filtering the whole walk;
    * :attr:`imports` -- the tree's import aliases, built once.

    Nodes are keyed by ``id()``; the index holds its tree, so every key
    stays unique for the index's lifetime, and a node of another tree is a
    ``KeyError``. Returned tuples and dicts are shared between callers.

    Every module the engine loads carries one (``ModuleContext.syntax``);
    the flow layer and the rules read it instead of calling ``ast.walk``,
    ``ast.iter_child_nodes`` or building parent maps of their own.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.tree = tree
        #: Filled by :meth:`_traverse`, with ``_parents`` and ``_by_type``,
        #: on first use.
        self._children: Optional[Dict[int, Tuple[ast.AST, ...]]] = None
        self._parents: Dict[int, ast.AST] = {}
        self._walks: Dict[int, Tuple[ast.AST, ...]] = {}
        self._by_type: Dict[type, Tuple[ast.AST, ...]] = {}

    def _traverse(self) -> None:
        children: Dict[int, Tuple[ast.AST, ...]] = {}
        parents = self._parents
        by_type: DefaultDict[type, List[ast.AST]] = defaultdict(list)
        order: List[ast.AST] = [self.tree]
        for node in order:  # ``order`` grows while it is read: a BFS queue
            by_type[type(node)].append(node)
            kids: List[ast.AST] = []
            for name in node._fields:
                value = getattr(node, name, None)
                if isinstance(value, ast.AST):
                    kids.append(value)
                elif isinstance(value, list):
                    kids.extend(item for item in value if isinstance(item, ast.AST))
            children[id(node)] = tuple(kids)
            for kid in kids:
                parents[id(kid)] = node
            order.extend(kids)
        self._by_type = {kind: tuple(found) for kind, found in by_type.items()}
        self._children = children

    def children(self, node: ast.AST) -> Tuple[ast.AST, ...]:
        """``node``'s direct children, in ``ast.iter_child_nodes`` order."""
        if self._children is None:
            self._traverse()
        return self._children[id(node)]

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """``node``'s parent; ``None`` for the root."""
        if self._children is None:
            self._traverse()
        return self._parents.get(id(node))

    def walk(self, node: ast.AST) -> Tuple[ast.AST, ...]:
        """``node`` and every node under it, in ``ast.walk`` order."""
        found = self._walks.get(id(node))
        if found is None:
            if self._children is None:
                self._traverse()
            children = self._children
            order = [node]
            for sub in order:
                order.extend(children[id(sub)])
            found = self._walks[id(node)] = tuple(order)
        return found

    def nodes(self, *types: type) -> Tuple[ast.AST, ...]:
        """Every node in the tree whose type is exactly one of ``types``:
        grouped by type in argument order, each group in ``ast.walk``
        order. Abstract bases match nothing (``nodes(ast.stmt)`` is empty)."""
        if self._children is None:
            self._traverse()
        if len(types) == 1:
            return self._by_type.get(types[0], ())
        return tuple(node for kind in types for node in self._by_type.get(kind, ()))

    @cached_property
    def imports(self) -> Dict[str, str]:
        """Local alias -> imported dotted target, for every absolute import
        in the tree (see :func:`resolve_alias`). An alias bound more than
        once keeps its last ``from`` import, else its last ``import``, in
        walk order."""
        table: Dict[str, str] = {}
        for node in self.nodes(ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    table[head] = head
        for node in self.nodes(ast.ImportFrom):
            if not node.module or node.level != 0:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return table


# -- AST helpers -------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as ``"a.b.c"``, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last segment of a call target: ``c`` in ``a.b.c`` or ``f(x).c``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def iter_functions(tree: ast.Module) -> Iterator[Tuple[Optional[str], ast.AST]]:
    """``(class name or None, def)`` for module-level functions and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, member


def caught_names(handler: ast.ExceptHandler) -> Tuple[Optional[str], ...]:
    """Dotted name of each type an ``except`` clause lists (``None`` for a
    type expression that is not a name); empty for a bare ``except:``."""
    if handler.type is None:
        return ()
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return tuple(dotted_name(t) for t in types)


def resolve_alias(name: str, imports: Dict[str, str]) -> str:
    """Expand the leading alias segment of ``name`` through ``imports``."""
    head, _, rest = name.partition(".")
    expanded = imports.get(head)
    if expanded is None:
        return name
    return f"{expanded}.{rest}" if rest else expanded


# -- paths -------------------------------------------------------------------


def normalize_rel(rel: str) -> str:
    """A project-relative path with separators made POSIX and any leading
    ``src/`` and ``repro/`` stripped, so flat and src-layout checkouts match."""
    norm = rel.replace("\\", "/")
    norm = norm[4:] if norm.startswith("src/") else norm
    return norm[6:] if norm.startswith("repro/") else norm


def path_matches(rel: str, prefixes: Sequence[str]) -> bool:
    """True when the project-relative path lives under any of ``prefixes``."""
    norm = normalize_rel(rel)
    return any(norm == p or norm.startswith(p.rstrip("/") + "/") for p in prefixes)


def is_test_path(rel: str) -> bool:
    parts = rel.split("/")
    return "tests" in parts or parts[-1].startswith("test_")


# -- the decoder-tree contract -----------------------------------------------

#: Directories and files whose functions read untrusted bytes.
DECODER_TREE = ("algorithms", "core/blocks", "common/bitio.py", "common/varint.py")

#: Decode-side function shapes. Streaming state machines name their
#: consuming steps ``_drain``/``_feed``/``_take``/``_flush``, and the bit and
#: varint primitives use ``read*``/``peek*``/``skip*``/``inflate*``.
_DECODE_NAME = re.compile(
    r"(^|_)(decode|decompress|parse|deserialize|expand|iter_frames|analyze"
    r"|drain|feed|take|flush|inflate|read|peek|skip)"
)

#: Classes whose every method is decode-side.
_DECODE_CLASS = re.compile(r"(Decoder|Decompress|Reader)")


def in_decoder_tree(rel: str) -> bool:
    return path_matches(rel, DECODER_TREE)


def decode_side(name: str, cls: Optional[str]) -> bool:
    """Whether function ``name`` (a method of ``cls``, if any) consumes
    untrusted input. Encoder helpers (``encode*``) index buffers they built
    themselves, so they never are."""
    if name.startswith("encode") or "encode" in name.split("_"):
        return False
    if _DECODE_NAME.search(name):
        return True
    return bool(cls and _DECODE_CLASS.search(cls))
