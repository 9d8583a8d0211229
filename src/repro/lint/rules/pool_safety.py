"""R010: pool-dispatched callables and their arguments must pickle.

The repo's pool substrates (the DSE sweep pool and the lint flow pool)
ship work to ``ProcessPoolExecutor``/``multiprocessing.Pool`` workers by
pickling. A lambda, a nested function, an open file handle, a lock, or a
generator slipped into a ``submit``/``map`` call fails at runtime — usually
only on the parallel path, which is exactly the path local test runs skip.

The flow layer records every pool-dispatch site per function
(:class:`~repro.lint.flow.summaries.PoolDispatchRec`), classifying the
dispatched callable and tracing each argument through the function's
def-use chains (:func:`~repro.lint.flow.summaries._classify_unpicklable`).
This rule turns those records into findings:

* the dispatched callable is a **lambda** or a **nested function** — never
  picklable, flagged outright;
* the dispatched callable resolves (through the project call graph) to a
  **generator function** — the *call* pickles, but the generator it returns
  cannot travel back;
* an argument is provably a lambda, generator expression, open file handle,
  or synchronization primitive — traced through the def-use chains, so
  ``fn = lambda ...; pool.submit(work, fn)`` is caught just like the inline
  form;
* an argument is a call to a project generator function (the generator
  object cannot pickle).

For the ``map`` family only elements of *literal* iterables are checked: a
generator expression fed to ``map`` is consumed in the parent and is fine —
only its elements must pickle.

Test trees are exempt: a pool misused in a test fails that test loudly.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.lint.common import is_test_path
from repro.lint.engine import ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

#: Human phrasing of the unpicklable-argument kinds.
_ARG_KINDS = {
    "lambda": "a lambda",
    "genexp": "a generator expression",
    "open": "an open file handle",
    "lock": "a synchronization primitive",
    "nested": "a nested function",
}


@register
class PoolSafetyRule(Rule):
    code = "R010"
    name = "pool-dispatch-safety"
    summary = "pool-dispatched callables and arguments must be picklable"
    default_severity = Severity.ERROR
    remediation = (
        "Process-pool workers receive work by pickling. Dispatch only "
        "module-level functions (move lambdas/nested functions to top level) "
        "and pass plain-data arguments; open handles, locks, and generators "
        "must be created inside the worker (use a pool `initializer=` for "
        "per-worker state)."
    )

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        summaries = project.summaries
        if summaries is None:
            return findings
        for summary in summaries.functions.values():
            if is_test_path(summary.rel):
                continue
            ctx = project.module(summary.rel)
            if ctx is None:
                continue
            for site in summary.pool_dispatches:
                where = f"pool.{site.method} in '{summary.display}'"
                if site.target_kind in ("lambda", "nested"):
                    label = (
                        "a lambda"
                        if site.target_kind == "lambda"
                        else f"the nested function '{site.target}'"
                    )
                    findings.append(
                        ctx.finding(
                            self,
                            site.lineno,
                            f"{where} dispatches {label}; process-pool targets "
                            "must be importable top-level functions (workers "
                            "unpickle them by qualified name)",
                        )
                    )
                elif site.target_kind == "name":
                    resolved = summaries.resolve_call(
                        summary.rel, summary.cls, site.target
                    )
                    if resolved is not None and resolved.is_generator:
                        findings.append(
                            ctx.finding(
                                self,
                                site.lineno,
                                f"{where} dispatches the generator function "
                                f"'{resolved.display}'; the generator it returns "
                                "cannot pickle back to the parent — return a "
                                "materialized list instead",
                            )
                        )
                for arg in site.args:
                    label = self._arg_label(summaries, summary, arg)
                    if label is None:
                        continue
                    findings.append(
                        ctx.finding(
                            self,
                            site.lineno,
                            f"argument {arg.index + 1} of {where} is {label}, "
                            "which cannot pickle to a worker process; pass "
                            "plain data and rebuild the object worker-side",
                        )
                    )
        return findings

    def _arg_label(self, summaries, summary, arg) -> Optional[str]:
        if arg.kind in _ARG_KINDS:
            label = _ARG_KINDS[arg.kind]
            if arg.detail:
                label += f" ('{arg.detail}')"
            return label
        if arg.kind == "call":
            resolved = summaries.resolve_call(summary.rel, summary.cls, arg.detail)
            if resolved is not None and resolved.is_generator:
                return f"a generator produced by '{resolved.display}'"
        return None
