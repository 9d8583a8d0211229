"""Project-wide index of per-function flow summaries.

For every function in the project the flow pass records a summary. For
the functions a rule reads taint facts of (:func:`demands_taint`) it
records whether the CFG layer could model them, their taint sinks (R008)
and their buffer read sites (R009); no rule reads anything of the others,
so they get no CFG.

Summaries are *plain data* — strings, ints, tuples — never AST nodes or
solved lattices. That keeps them picklable, which is what lets the engine
fan the per-file local analysis (the expensive part: a CFG and a taint
solve for each function whose taint facts a rule reads) out to
a process pool with ``--jobs`` and still assemble byte-identical results:
workers each run :func:`collect_module_flow` on ``(rel, source)`` pairs in
sorted order, and the single-threaded :func:`assemble` pass indexes the
records in module order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro import obs
from repro.lint.common import SyntaxIndex, decode_side, in_decoder_tree, iter_functions
from repro.lint.flow.cfg import build_cfg
from repro.lint.flow.taint import ReadSiteRec, SinkRec, analyze_taint, is_taint_source


@dataclass
class FunctionSummary:
    """Everything the flow rules need to know about one function.

    Plain data only — must stay picklable for ``--jobs`` workers.
    """

    qualname: str
    rel: str
    name: str
    cls: Optional[str]
    lineno: int
    #: Why the flow layer could not model the function ("" when it could:
    #: the CFG covers every construct and the taint solve converged; always
    #: "" outside the :func:`demands_taint` set, which gets no CFG).
    unsupported: str = ""
    read_sites: List[ReadSiteRec] = field(default_factory=list)
    sinks: List[SinkRec] = field(default_factory=list)

    @property
    def supported(self) -> bool:
        return not self.unsupported

    @property
    def display(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


class ProjectSummaries:
    """Index of function summaries by qualname (``"<rel>::<func>"`` or
    ``"<rel>::<Class>.<method>"``), in module order."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionSummary] = {}


def demands_taint(
    rel: str, cls: Optional[str], func: ast.AST, syntax: SyntaxIndex
) -> bool:
    """Whether a rule reads ``func``'s taint facts: the demand set.

    Taint starts only at a source call (:func:`~repro.lint.flow.taint.
    is_taint_source`), so a function that calls none has no sink (R008).
    R009 reads the read sites of decode-side functions in the decoder tree,
    and reports one whose solve diverges or whose CFG cannot model it. The
    whole subtree counts, lambdas and nested scopes included, so the set
    can only over-approximate.
    """
    return _demanded(rel, cls, func, _source_callers(syntax))


def _demanded(rel: str, cls: Optional[str], func: ast.AST, callers: FrozenSet[int]) -> bool:
    """:func:`demands_taint`, given the module's :func:`_source_callers`."""
    return (in_decoder_tree(rel) and decode_side(func.name, cls)) or id(func) in callers


def _source_callers(syntax: SyntaxIndex) -> FrozenSet[int]:
    """``id()`` of every top-level function (:func:`iter_functions`) whose
    subtree calls a taint source: each source call is mapped to the function
    holding it by climbing the parent map, one pass over the module's calls
    instead of one walk per function."""
    tops = {id(func) for _cls, func in iter_functions(syntax.tree)}
    callers = set()
    for call in syntax.nodes(ast.Call):
        if not is_taint_source(call):
            continue
        node = syntax.parent(call)
        while node is not None and id(node) not in tops:
            node = syntax.parent(node)
        if node is not None:
            callers.add(id(node))
    return frozenset(callers)


def collect_module_flow(
    rel: str, source: str, syntax: Optional[SyntaxIndex] = None
) -> List[FunctionSummary]:
    """Per-file local analysis: one summary record per top-level function.

    Only the :func:`demands_taint` set gets a CFG and, where the CFG models
    the function, a taint solve, replayed once for its sinks and read sites.
    Self-contained and deterministic on ``(rel, source)``, which makes it
    the unit of work for ``--jobs`` process-pool workers. ``syntax``, when
    given, is the index of ``source``'s already-parsed tree, which spares
    the serial pass a second parse. Files that fail to parse yield no
    records (the engine reports those as R000 already).
    """
    if syntax is None:
        try:
            syntax = SyntaxIndex(ast.parse(source))
        except SyntaxError:
            return []
    records: List[FunctionSummary] = []
    callers = _source_callers(syntax)
    for cls_name, func in iter_functions(syntax.tree):
        obs.counter_add("lint.flow.functions", 1)
        local = f"{cls_name}.{func.name}" if cls_name else func.name
        summary = FunctionSummary(
            qualname=f"{rel}::{local}",
            rel=rel,
            name=func.name,
            cls=cls_name,
            lineno=func.lineno,
        )
        records.append(summary)
        if not _demanded(rel, cls_name, func, callers):
            continue
        cfg = build_cfg(func, syntax)
        if not cfg.supported:
            summary.unsupported = cfg.unsupported
        else:
            taint = analyze_taint(cfg)
            if not taint.converged:
                summary.unsupported = "a taint solve that did not converge"
            else:
                facts = taint.scan()
                summary.read_sites = facts.read_sites
                summary.sinks = facts.sinks
    return records


def assemble(
    modules: Sequence, flows: Dict[str, List[FunctionSummary]]
) -> ProjectSummaries:
    """Index the per-file records in module order.

    ``modules`` supplies each module's ``rel``; ``flows`` maps it to the
    records from :func:`collect_module_flow`. Single-threaded and
    deterministic, so parallel collection stays byte-identical to serial.
    """
    project = ProjectSummaries()
    for ctx in modules:
        for summary in flows.get(ctx.rel, []):
            project.functions[summary.qualname] = summary
    return project


def build_summaries(modules: Sequence) -> ProjectSummaries:
    """Serial convenience wrapper: collect every module's flow, then assemble.

    ``modules`` is any sequence of objects with ``rel`` (project-relative
    path), ``source`` and ``syntax`` (the
    :class:`~repro.lint.common.SyntaxIndex` of its parsed tree) — in
    practice the engine's :class:`~repro.lint.engine.ModuleContext` list.
    The engine uses :func:`collect_module_flow` + :func:`assemble` directly
    when running with ``--jobs``.
    """
    flows = {
        ctx.rel: collect_module_flow(ctx.rel, ctx.source, ctx.syntax) for ctx in modules
    }
    return assemble(modules, flows)
