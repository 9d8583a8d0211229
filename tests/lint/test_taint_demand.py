"""The flow pass solves taint only where a rule reads it.

:func:`~repro.lint.flow.summaries.demands_taint` picks the functions that
get an unseeded taint solve: those that call a taint source, and in the
decoder tree those that are decode-side. These tests hold the cut sound:
every function outside the set, solved in full anyway, has no sink (R008),
and none of them is a decode-side decoder function (the ones R009 reads).
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro import obs
from repro.lint import run_lint
from repro.lint.common import SyntaxIndex, decode_side, in_decoder_tree, iter_functions
from repro.lint.engine import iter_python_files, load_module
from repro.lint.flow import analyze_taint, build_cfg, build_summaries, demands_taint
from repro.lint.flow import taint as taint_module
from tests.lint.test_flow import FakeModule
from tests.lint.test_unique_catch import PLANTED

_SRC = Path(__file__).resolve().parents[2] / "src"


def _src_modules():
    for path in iter_python_files([_SRC]):
        ctx = load_module(path, _SRC.parent)
        yield ctx.rel, ctx.syntax


def _planted_modules():
    for files in PLANTED.values():
        for rel, source in files.items():
            yield rel, SyntaxIndex(ast.parse(textwrap.dedent(source)))


def _outside_demand_set(modules):
    for rel, syntax in modules:
        for cls, func in iter_functions(syntax.tree):
            if not demands_taint(rel, cls, func, syntax):
                cfg = build_cfg(func, syntax)
                if cfg.supported:
                    yield rel, cls, func.name, cfg


@pytest.mark.parametrize("modules", [_src_modules, _planted_modules], ids=["src", "planted"])
def test_functions_outside_the_demand_set_carry_no_taint(modules):
    skipped = 0
    for rel, cls, func_name, cfg in _outside_demand_set(modules()):
        skipped += 1
        name = f"{cls}.{func_name}" if cls else func_name
        assert not (in_decoder_tree(rel) and decode_side(func_name, cls)), f"{rel}::{name}"
        solved = analyze_taint(cfg)
        assert solved.converged, f"{rel}::{name} needs its solve to prove convergence"
        assert solved.scan().sinks == [], f"{rel}::{name}"
    assert skipped > 0


def _demand(rel, source):
    module = FakeModule(rel, source)
    return {
        func.name: demands_taint(rel, cls, func, module.syntax)
        for cls, func in iter_functions(module.tree)
    }


@pytest.fixture
def counters():
    obs.reset()
    obs.enable()
    yield lambda: obs.snapshot().counters
    obs.reset()
    obs.disable()


def test_source_calling_helper_outside_the_decoder_tree_is_solved(project):
    source = """
        def parse_counts(blob):
            count = int.from_bytes(blob[:4], "little")
            return list(range(count))
        """
    assert _demand("src/repro/fleet/loader.py", source) == {"parse_counts": True}
    project.write("src/repro/fleet/loader.py", source)
    assert [(f.rule, f.line) for f in project.findings("src")] == [("R008", 4)]


def test_pure_helper_is_skipped(counters):
    source = """
        def scale(value, factor):
            return value * factor

        def decode_pair(data):
            return data[:2]
        """
    rel = "src/repro/algorithms/toy.py"
    assert _demand(rel, source) == {"scale": False, "decode_pair": True}
    build_summaries([FakeModule(rel, source)])
    seen = counters()
    assert seen["lint.flow.functions"] == 2
    assert seen["lint.flow.taint_solves"] == 1


#: A decode-side method passing a stream-decoded length to a helper outside
#: the set, and a decode-side method that is in the set only for being
#: decode-side.
_DECODER = """
    from repro.common.varint import decode_varint

    def _grow(size):
        return bytearray(size)

    class BlockDecoder:
        def decode(self, data):
            size, pos = decode_varint(data, 0)
            return self._codec._grow(size)

        def decode_all(self, blocks):
            return [self.decode(block) for block in blocks]
    """


def test_out_of_set_candidate_passes_the_supported_filter(project):
    """A helper outside the set gets no CFG and no solve, and its summary
    reads as modelled: ``unsupported`` stays empty."""
    rel = "src/repro/algorithms/fakelz.py"
    assert _demand(rel, _DECODER) == {"_grow": False, "decode": True, "decode_all": True}
    summaries = build_summaries([FakeModule(rel, _DECODER)])
    assert summaries.functions[f"{rel}::_grow"].supported
    project.write(rel, _DECODER)
    assert project.findings("src") == []


def test_diverging_decoder_solve_is_still_reported_unmodelled(project, monkeypatch):
    monkeypatch.setattr(taint_module, "_MAX_PASSES", 0)
    rel = "src/repro/algorithms/fakelz.py"
    summaries = build_summaries([FakeModule(rel, _DECODER)])
    decode = summaries.functions[f"{rel}::BlockDecoder.decode"]
    assert decode.unsupported == "a taint solve that did not converge"
    # Outside the set nothing is solved, so the helper stays supported.
    assert summaries.functions[f"{rel}::_grow"].supported
    project.write(rel, _DECODER)
    result = run_lint([project.root / "src"], root=project.root, jobs=1)
    rows = [(f.rule, f.line, f.message) for f in result.findings]
    assert [(rule, line) for rule, line, _ in rows] == [("R009", 8), ("R009", 12)]
    assert "could not model decoder 'BlockDecoder.decode'" in rows[0][2]
    assert "could not model decoder 'BlockDecoder.decode_all'" in rows[1][2]
