"""Flow-core tests on synthetic fixtures: CFG shape, taint, and the
per-function summaries (the machinery behind R008 and R009)."""

import ast
import textwrap

from repro.lint.common import SyntaxIndex
from repro.lint.flow import (
    analyze_taint,
    build_cfg,
    build_summaries,
    scan_expr,
)
from repro.lint.flow.cfg import ExceptBind, ForIter, WithEnter
from repro.lint.flow.cfg import Test as BranchTest


def parse_func(source):
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            return node
    raise AssertionError("no function in fixture")


def cfg_of(source):
    func = parse_func(source)
    return build_cfg(func, SyntaxIndex(func))


class FakeModule:
    """The duck-typed module context ``build_summaries`` consumes."""

    def __init__(self, rel, source):
        self.rel = rel
        self.source = textwrap.dedent(source)
        self.tree = ast.parse(self.source)
        self.syntax = SyntaxIndex(self.tree)


class TestCfgShape:
    def test_if_else_branches_and_join(self):
        cfg = cfg_of(
            """
            def f(a):
                if a:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        assert cfg.supported
        conds = [e.cond[1] for e in cfg.edges() if e.cond is not None]
        assert sorted(conds) == [False, True]
        tests = [i for b in cfg.blocks for i in b.items if isinstance(i, BranchTest)]
        assert len(tests) == 1
        # The return block joins both branches and reaches the exit.
        assert cfg.block(cfg.exit).preds

    def test_if_without_else_gets_fallthrough_false_edge(self):
        cfg = cfg_of(
            """
            def f(a):
                if a:
                    x = 1
                return a
            """
        )
        false_edges = [e for e in cfg.edges() if e.cond is not None and not e.cond[1]]
        assert len(false_edges) == 1

    def test_while_has_back_edge_and_exit_edge(self):
        cfg = cfg_of(
            """
            def f(n):
                while n > 0:
                    n = n - 1
                return n
            """
        )
        header = next(
            b.id for b in cfg.blocks if any(isinstance(i, BranchTest) for i in b.items)
        )
        # Loop body edge (True), exit edge (False), and a back edge to header.
        out = {e.cond[1] for e in cfg.block(header).succs if e.cond is not None}
        assert out == {True, False}
        assert any(e.dst == header for b in cfg.blocks for e in b.succs if b.id != header)

    def test_try_adds_exceptional_edges_to_handler(self):
        cfg = cfg_of(
            """
            def f(data):
                try:
                    x = data[0]
                except IndexError as exc:
                    x = 0
                return x
            """
        )
        handler = next(
            b.id
            for b in cfg.blocks
            if any(isinstance(i, ExceptBind) for i in b.items)
        )
        exceptional = [e for e in cfg.edges() if e.exceptional]
        assert exceptional
        assert all(e.dst == handler for e in exceptional)

    def test_with_and_for_headers_become_items(self):
        cfg = cfg_of(
            """
            def f(path, rows):
                with open(path) as fh:
                    for row in rows:
                        fh.write(row)
                return None
            """
        )
        items = [i for b in cfg.blocks for i in b.items]
        assert any(isinstance(i, WithEnter) for i in items)
        assert any(isinstance(i, ForIter) for i in items)

    def test_return_mid_function_reaches_exit(self):
        cfg = cfg_of(
            """
            def f(a):
                if a:
                    return 1
                return 2
            """
        )
        # Both returns converge on the single exit block.
        assert len(cfg.block(cfg.exit).preds) == 2

    def test_match_marks_cfg_unsupported(self):
        cfg = cfg_of(
            """
            def f(a):
                match a:
                    case 0:
                        return 1
                    case _:
                        return 2
            """
        )
        assert not cfg.supported

    def test_scan_expr_for_header_is_just_the_iterable(self):
        cfg = cfg_of(
            """
            def f(rows):
                for row in rows:
                    use(row[0])
            """
        )
        header_item = next(
            i for b in cfg.blocks for i in b.items if isinstance(i, ForIter)
        )
        scanned = scan_expr(header_item)
        assert isinstance(scanned, ast.Name) and scanned.id == "rows"


class TestTaintKills:
    def test_unchecked_varint_length_reaches_sink(self):
        cfg = cfg_of(
            """
            def decode(buf, pos):
                length, pos = decode_varint(buf, pos)
                return buf[pos:pos + length]
            """
        )
        hits = analyze_taint(cfg).scan().sinks
        assert [h.kind for h in hits] == ["slice-bound"]
        assert "length" in hits[0].names

    def test_bounds_check_kills_taint_on_fallthrough(self):
        cfg = cfg_of(
            """
            def decode(buf, pos):
                length, pos = decode_varint(buf, pos)
                if length > len(buf) - pos:
                    raise CorruptStreamError("overrun")
                return buf[pos:pos + length]
            """
        )
        assert analyze_taint(cfg).scan().sinks == []

    def test_kill_is_transitive_through_arithmetic(self):
        # Bounding the derived value (packed bit count) bounds its source.
        cfg = cfg_of(
            """
            def decode(data):
                count = int.from_bytes(data[:2], "little")
                packed = (count * 18 + 7) // 8
                if packed > len(data):
                    raise CorruptStreamError("overrun")
                return list(range(count))
            """
        )
        assert analyze_taint(cfg).scan().sinks == []

    def test_min_cap_discharges_taint(self):
        cfg = cfg_of(
            """
            def decode(data):
                n = min(int.from_bytes(data[:4], "little"), 4096)
                return bytearray(n)
            """
        )
        assert analyze_taint(cfg).scan().sinks == []

    def test_constant_read_guarded_only_up_to_proven_length(self):
        cfg = cfg_of(
            """
            def decode_header(data):
                if len(data) < 2:
                    raise CorruptStreamError("underflow")
                return data[0], data[1], data[2]
            """
        )
        sites = sorted(analyze_taint(cfg).scan().read_sites, key=lambda s: s.col)
        assert [s.guarded for s in sites] == [True, True, False]  # data[0], [1], [2]

    def test_loop_variable_read_checked_by_while_condition(self):
        cfg = cfg_of(
            """
            def decode_all(data):
                out = []
                pos = 0
                while pos < len(data):
                    out.append(data[pos])
                    pos = pos + 1
                return out
            """
        )
        sites = analyze_taint(cfg).scan().read_sites
        assert all(s.guarded for s in sites)


class TestSummaries:
    def test_summaries_are_plain_data(self):
        import pickle

        summaries = build_summaries(
            [
                FakeModule(
                    "src/repro/algorithms/toy.py",
                    """
                    def decompress(data):
                        return data[1:]
                    """,
                )
            ]
        )
        for summary in summaries.functions.values():
            assert pickle.loads(pickle.dumps(summary)) is not None
