"""R011: code reachable from a pool-dispatched entry point stays pure.

A function shipped to a ``ProcessPoolExecutor``/``multiprocessing.Pool``
worker runs in a *forked or spawned copy* of the interpreter. Any write it
makes to module-level or class-level mutable state — a ``global`` rebind, a
module-dict insert, an ``os.environ`` mutation, an ``append`` on a
module-level list — lands in the worker's copy and silently diverges from
the parent: the parent never sees it, siblings each see their own, and a
re-run with a different worker count partitions the writes differently.
That is precisely the failure mode the repo's bit-identical-across-jobs
contracts (DESIGN.md §7.1) exist to rule out.

The flow layer records per-function module-state writes
(:class:`~repro.lint.flow.summaries.GlobalWriteRec`) and pool-dispatch
sites. This rule resolves each dispatch target through the project call
graph, walks everything reachable from it (the same resolution machinery as
R007's escape fixpoint), and reports every module-state write on a reachable
path — **at the write site**, with the dispatch provenance chain in the
message, so a ``# repro: noqa[R011]`` suppresses the blamed write rather
than the dispatch far away.

Sanctioned patterns, exempt by design:

* writes inside a pool ``initializer=`` function — per-worker setup state
  (the ``_WORKER_RUNNER`` idiom in ``dse/parallel.py``) is the documented
  way to give workers heavy context;
* the ``repro.obs`` tree — worker-side metrics are process-local by design
  and die with the worker (DESIGN.md §7.2 re-accounts them parent-side);
* test trees.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterable, List, Set, Tuple

from repro.lint.common import SyntaxIndex, is_test_path, path_matches
from repro.lint.engine import ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

#: Module trees whose state is process-local by documented design.
_EXEMPT_PATHS = ("obs",)

#: How deep a provenance chain the message spells out before eliding.
_CHAIN_LIMIT = 5


def _module_level_names(syntax: SyntaxIndex) -> Set[str]:
    """Names bound at module scope (assignments, defs, classes, imports)."""
    names: Set[str] = set()
    for node in syntax.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in syntax.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
    return names


@register
class WorkerPurityRule(Rule):
    code = "R011"
    name = "worker-purity"
    summary = "pool-dispatched code must not write module-level mutable state"
    default_severity = Severity.ERROR
    remediation = (
        "Writes to module- or class-level state from a pool worker stay in "
        "that worker's process copy and silently diverge from the parent. "
        "Return the data instead and let the parent aggregate it, keep state "
        "on an instance the worker owns, or move per-worker setup into the "
        "pool's `initializer=` function."
    )

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        summaries = project.summaries
        if summaries is None:
            return findings

        # Entry points: resolved dispatch targets (with their dispatch site
        # for provenance) and initializer functions (own writes sanctioned).
        entries: List[Tuple[str, str, bool]] = []  # (qualname, origin, is_init)
        for summary in summaries.functions.values():
            if is_test_path(summary.rel):
                continue
            for site in summary.pool_dispatches:
                if site.target_kind != "name":
                    continue
                resolved = summaries.resolve_call(summary.rel, summary.cls, site.target)
                if resolved is not None:
                    origin = f"{summary.rel}:{site.lineno} pool.{site.method}"
                    entries.append((resolved.qualname, origin, False))
            for init in summary.pool_initializers:
                resolved = summaries.resolve_call(summary.rel, summary.cls, init)
                if resolved is not None:
                    origin = f"{summary.rel} pool initializer"
                    entries.append((resolved.qualname, origin, True))

        # BFS over the call graph; first discovery wins the provenance chain.
        reached: Dict[str, Tuple[str, Tuple[str, ...], bool]] = {}
        queue = deque()
        for qualname, origin, is_init in entries:
            if qualname not in reached:
                fn = summaries.functions[qualname]
                reached[qualname] = (origin, (fn.display,), is_init)
                queue.append(qualname)
        while queue:
            qualname = queue.popleft()
            origin, chain, _ = reached[qualname]
            fn = summaries.functions[qualname]
            if path_matches(fn.rel, _EXEMPT_PATHS):
                continue  # self-contained by design; do not traverse inside
            for call in fn.calls:
                callee = summaries.resolve_call(fn.rel, fn.cls, call.target)
                if callee is None or callee.qualname in reached:
                    continue
                reached[callee.qualname] = (origin, (*chain, callee.display), False)
                queue.append(callee.qualname)

        module_names: Dict[str, Set[str]] = {}
        seen_sites: Set[Tuple[str, int, str]] = set()
        for qualname in sorted(reached):
            origin, chain, is_init = reached[qualname]
            fn = summaries.functions[qualname]
            if is_init or is_test_path(fn.rel) or path_matches(fn.rel, _EXEMPT_PATHS):
                continue
            ctx = project.module(fn.rel)
            if ctx is None:
                continue
            if fn.rel not in module_names:
                module_names[fn.rel] = _module_level_names(ctx.syntax)
            for write in fn.global_writes:
                if write.kind != "global" and write.root not in module_names[fn.rel]:
                    continue  # base unresolvable at module scope: stay quiet
                key = (fn.rel, write.lineno, write.name)
                if key in seen_sites:
                    continue
                seen_sites.add(key)
                shown = chain[:_CHAIN_LIMIT]
                trace = " -> ".join(shown) + (" -> ..." if len(chain) > len(shown) else "")
                findings.append(
                    ctx.finding(
                        self,
                        write.lineno,
                        f"'{fn.display}' writes module-level state "
                        f"'{write.name}' but is reachable from a process-pool "
                        f"dispatch ({origin} via {trace}); worker-side writes "
                        "silently diverge from the parent — return the data "
                        "or use a pool initializer",
                    )
                )
        return findings
