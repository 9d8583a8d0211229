"""AST and path helpers shared by the flow layer and the rules, plus the
decoder-tree contract: which modules read untrusted bytes, and which of
their functions are decode-side.

Every decoder-robustness check (R002's handler checks, R009, R015, R016)
and the flow layer's implicit-``IndexError`` escapes scope themselves
through :func:`in_decoder_tree` and :func:`decode_side`, so "decode side"
means one thing across the analyzer.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

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


def parent_map(tree: ast.AST) -> Dict[int, ast.AST]:
    """``id(child) -> parent`` for every node under ``tree``."""
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


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


def import_table(nodes: Iterable[ast.AST]) -> Dict[str, str]:
    """Local alias -> imported dotted target, for the absolute imports among
    ``nodes`` (pass ``ast.walk(tree)`` for a whole module)."""
    table: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


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
