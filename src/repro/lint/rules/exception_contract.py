"""R007: public surfaces only let ReproError subclasses escape.

DESIGN.md §7 promises that every failure a caller can provoke through the
library's public surfaces — codec ``compress``/``decompress``, streaming
``feed``/``flush``, and the CLI handlers — arrives as a
:class:`~repro.common.errors.ReproError` subclass. A bare ``IndexError``
three helpers below ``decompress`` breaks that contract just as much as one
in ``decompress`` itself, which is exactly what single-node pattern matching
cannot see.

This rule walks the project call-graph summaries
(:mod:`repro.lint.flow.summaries`): each surface function's ``escapes`` set
already contains every exception class that can leave it — explicit raises
filtered through enclosing ``try`` handlers, curated low-level raisers
(``struct.unpack`` → ``struct.error``), implicit ``IndexError`` from
unguarded buffer reads, and everything propagated from resolved callees to
a fixpoint. A surface whose escapes include a *low-level* class
(``IndexError``, ``KeyError``, ``struct.error``, ...) is an error; the
finding's message carries the propagation chain so the leak is actionable
at the helper that raises, not just the surface that exposes it.

Deliberately out of scope (DESIGN.md §7.4): exceptions from unresolved
dynamic calls, ``TypeError``/``AttributeError`` from wrong *usage* (a
caller passing a list where bytes belong is a programming error, not a
stream-corruption path), and ``MemoryError``.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.lint.common import is_test_path, path_matches
from repro.lint.engine import ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

#: Method names that form the codec/streaming public surface.
_SURFACE_METHODS = frozenset(
    {
        "compress",
        "decompress",
        "feed",
        "flush",
    }
)

#: Paths whose classes expose the surface methods above.
_SURFACE_PATHS = ("algorithms", "core/blocks")

#: The CLI surface: ``_cmd_*`` handlers and ``main`` in the top-level CLI.
_CLI_MODULE = "cli.py"

#: Low-level exception classes that must never escape a public surface.
#: These are the "raw byte handling leaked" shapes: subscript underflow,
#: dict misses, struct/int reassembly, text decoding, and arithmetic on
#: attacker-controlled values.
_LOW_LEVEL = frozenset(
    {
        "IndexError",
        "KeyError",
        "error",  # struct.error's terminal name
        "UnicodeDecodeError",
        "ZeroDivisionError",
        "OverflowError",
    }
)


def _is_surface(summary) -> bool:
    if is_test_path(summary.rel):
        return False
    if path_matches(summary.rel, _SURFACE_PATHS):
        return summary.name in _SURFACE_METHODS
    norm = summary.rel[4:] if summary.rel.startswith("src/") else summary.rel
    norm = norm[6:] if norm.startswith("repro/") else norm
    if norm == _CLI_MODULE:
        return summary.cls is None and (
            summary.name.startswith("_cmd_") or summary.name == "main"
        )
    return False


@register
class ExceptionContractRule(Rule):
    code = "R007"
    name = "exception-contract"
    summary = "public surfaces may only raise ReproError subclasses"
    default_severity = Severity.ERROR

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        summaries = project.summaries
        if summaries is None:
            return findings
        for summary in summaries.functions.values():
            if not _is_surface(summary):
                continue
            ctx = project.module(summary.rel)
            if ctx is None:
                continue
            leaking = sorted(
                exc
                for exc in summary.escapes
                if exc in _LOW_LEVEL and not summaries.is_repro_error(exc)
            )
            for exc in leaking:
                line, trace = summary.escape_traces.get(exc, (summary.lineno, summary.display))
                findings.append(
                    ctx.finding(
                        self,
                        line,
                        f"public surface '{summary.display}' can leak {exc} "
                        f"(via {trace}); wrap the failing path in a "
                        "ReproError subclass such as CorruptStreamError",
                    )
                )
        return findings
