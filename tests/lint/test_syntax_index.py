"""The per-module syntax-tree index against the plain ``ast`` traversals it
replaces, over every module of the library.

The analyzer reads trees only through :class:`repro.lint.common.SyntaxIndex`,
so any difference between its answers and ``ast.walk`` /
``ast.iter_child_nodes`` / a whole-tree parent map / a type-filtered walk
would silently change findings. Each index-backed scope lookup is checked
against the generator it replaced, kept here as the reference.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List

import pytest

import repro
from repro.lint.common import SyntaxIndex
from repro.lint.rules.blocking_in_async import _async_body_calls
from repro.lint.rules.determinism_hygiene import _scope_of

PACKAGE = Path(repro.__file__).resolve().parent
SOURCES = sorted(p for p in PACKAGE.rglob("*.py") if "__pycache__" not in p.parts)
TEST_SOURCES = sorted(
    p for p in Path(__file__).resolve().parents[1].rglob("*.py") if "__pycache__" not in p.parts
)
LINT_DIR = PACKAGE / "lint"


def _ids(nodes) -> List[int]:
    return [id(node) for node in nodes]


# -- reference implementations: the traversals the index replaced -----------


def reference_parent_map(tree: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def reference_async_body_calls(func: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def reference_scope_nodes(scope: ast.AST) -> List[ast.AST]:
    nodes: List[ast.AST] = []
    stack: List[ast.AST] = list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return nodes


# -- the index against the reference traversals -------------------------------


@pytest.fixture(scope="module")
def parsed():
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES]


def test_every_library_module_is_covered(parsed):
    assert len(parsed) > 100
    assert any(path.name == "engine.py" for path, _tree in parsed)


def test_walk_children_and_parent_match_ast(parsed):
    for path, tree in parsed:
        syntax = SyntaxIndex(tree)
        parents = reference_parent_map(tree)
        assert syntax.parent(tree) is None, path
        for node in ast.walk(tree):
            assert _ids(syntax.walk(node)) == _ids(ast.walk(node)), (path, node)
            assert _ids(syntax.children(node)) == _ids(ast.iter_child_nodes(node)), path
            assert syntax.parent(node) is parents.get(id(node)), (path, node)


def test_walk_is_kept_after_the_first_request(parsed):
    _path, tree = parsed[0]
    syntax = SyntaxIndex(tree)
    node = tree.body[-1]
    assert syntax.walk(node) is syntax.walk(node)
    assert syntax.walk(tree) is syntax.walk(tree)


def test_a_node_of_another_tree_is_rejected():
    syntax = SyntaxIndex(ast.parse("x = 1"))
    with pytest.raises(KeyError):
        syntax.walk(ast.parse("y = 2").body[0])


def test_nodes_match_a_type_filtered_walk(parsed):
    for path, tree in parsed:
        syntax = SyntaxIndex(tree)
        walked = list(ast.walk(tree))
        for kind in {type(node) for node in walked}:
            expected = [node for node in walked if type(node) is kind]
            assert _ids(syntax.nodes(kind)) == _ids(expected), (path, kind.__name__)
        grouped = [node for kind in (ast.Name, ast.Attribute) for node in syntax.nodes(kind)]
        assert _ids(syntax.nodes(ast.Name, ast.Attribute)) == _ids(grouped), path
        assert syntax.nodes(ast.stmt) == ()


def test_scope_walkers_match_their_reference_generators(parsed):
    coroutines = 0
    for path, tree in parsed:
        syntax = SyntaxIndex(tree)
        for node in syntax.nodes(ast.AsyncFunctionDef):
            coroutines += 1
            expected = reference_async_body_calls(node)
            assert _ids(_async_body_calls(node, syntax)) == _ids(expected), (path, node.name)
    assert coroutines > 0


#: The nodes whose scope R012 looks up.
_SCOPED_TYPES = (ast.For, ast.AsyncFor, ast.ListComp, ast.GeneratorExp, ast.Call, ast.Assign)


def test_scope_of_matches_the_reference_scope_walk():
    """Over ``src/`` and ``tests/``, every node R012 scopes lies in the
    scope whose reference walk reaches it, or in none when no walk does."""
    scoped = unscoped = 0
    for path in SOURCES + TEST_SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        syntax = SyntaxIndex(tree)
        defs = (ast.FunctionDef, ast.AsyncFunctionDef)
        expected = {}
        for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, defs))]:
            for node in reference_scope_nodes(scope):
                expected[id(node)] = scope
        for node in ast.walk(tree):
            if isinstance(node, _SCOPED_TYPES):
                want = expected.get(id(node))
                assert _scope_of(node, syntax) is want, (path, node.lineno, type(node))
                scoped += want is not None
                unscoped += want is None
    assert scoped > 15_000 and unscoped > 0


def test_r012_scope_edges(project):
    """A module set read in a method is flagged, and so is a class-body set
    read in the class body (module scope); a clock value crosses no def
    boundary, and a nested def's defaults lie in no scope."""
    project.write(
        "src/repro/fleet/scopes.py",
        """
        import hashlib
        import time

        NAMES = {"a", "b"}


        class Table:
            COLUMNS = {"x", "y"}
            ORDER = tuple(COLUMNS)

            def render(self):
                return ",".join(NAMES)


        def outer():
            started = time.time()
            stamp = hashlib.sha256(repr(started).encode())

            def inner(keys=tuple({"p", "q"})):
                return hashlib.sha256(repr(started).encode()), keys

            return stamp, inner
        """,
    )
    found = [(f.line, f.message.split(";")[0]) for f in project.findings("src", rule="R012")]
    assert found == [
        (10, "iteration over a set in a tuple(...) is PYTHONHASHSEED-dependent for str elements"),
        (13, "iteration over a set in a join(...) is PYTHONHASHSEED-dependent for str elements"),
        (18, "wall-clock value flows into 'hashlib.sha256(...)'"),
    ]


# -- the one-index rule ---------------------------------------------------------

_RAW_TRAVERSAL = re.compile(r"\bast\.walk\(|\bast\.iter_child_nodes\(|\bparent_map\(")


def test_analyzer_traverses_trees_only_through_the_index():
    """Outside ``common.py`` the analyzer asks :class:`SyntaxIndex`; a raw
    ``ast.walk`` re-walks a tree the index has already walked."""
    offenders = []
    for path in sorted(LINT_DIR.rglob("*.py")):
        if path.name == "common.py" and path.parent == LINT_DIR:
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if _RAW_TRAVERSAL.search(line):
                offenders.append(f"{path.relative_to(PACKAGE)}:{number}: {line.strip()}")
    assert offenders == []
