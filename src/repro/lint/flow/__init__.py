"""Flow-sensitive analysis core for the lint rules (R008, R009).

The syntactic rules (R002-R006) pattern-match single AST nodes; the rules
that guard the decoder-safety contract need more: *where* a value came from
and *whether* a check dominates its use. This package supplies that
machinery in four layers, each usable on its own:

* :mod:`repro.lint.flow.cfg` — per-function control-flow graphs built from
  ``ast`` (``if``/``while``/``for``/``try``/``with``/``return``/``raise``/
  ``break``/``continue``), with branch edges annotated by their condition so
  downstream analyses can refine facts per edge.
* :mod:`repro.lint.flow.dataflow` — the canonical names each CFG item
  binds and reads.
* :mod:`repro.lint.flow.taint` — a small taint lattice tracking integers
  that originate from untrusted stream reads, with *kills* on dominating
  bounds checks (``if length > len(buf) - pos: raise``), solved by the one
  worklist solver here. One replay of the solved facts reports unchecked
  slice/``range()``/allocation sinks and buffer read sites with their
  guards.
* :mod:`repro.lint.flow.summaries` — a project-wide index of per-function
  summaries: each function's taint sinks and buffer read sites. CFGs are
  built and taint solved on demand: only for functions that call a taint
  source or that R009 reads in the decoder tree
  (:func:`~repro.lint.flow.summaries.demands_taint`).

Soundness stance (see DESIGN.md §7.4): the analyses are *best-effort and
deliberately unsound* in the direction that keeps findings actionable —
constructs the CFG cannot model mark the function unsupported (naming the
construct) rather than guessing, and R009 reports such a function when it
is decode-side.
"""

from repro.lint.flow.cfg import CFG, build_cfg, scan_expr
from repro.lint.flow.summaries import (
    FunctionSummary,
    ProjectSummaries,
    assemble,
    build_summaries,
    collect_module_flow,
    demands_taint,
)
from repro.lint.flow.taint import (
    Env,
    SinkRec,
    TaintAnalysis,
    analyze_taint,
)

__all__ = [
    "CFG",
    "Env",
    "FunctionSummary",
    "ProjectSummaries",
    "SinkRec",
    "TaintAnalysis",
    "analyze_taint",
    "assemble",
    "build_cfg",
    "build_summaries",
    "collect_module_flow",
    "demands_taint",
    "scan_expr",
]
