"""R009: direct buffer reads in the decoder tree have dominating guards.

Mentioning ``CorruptStreamError`` somewhere in a decoder proves nothing
about the read after the one guarded path. R009 asks, per read site
``buf[i]``, whether a guard *dominates* it:

* the index was bounds-checked on every path reaching the read;
* the index is a constant and ``len(buf)`` (or the buffer's truthiness)
  was tested on the way in;
* every unchecked path branched off into a ``CorruptStreamError`` raise;
* the read sits inside a ``try`` that translates ``IndexError`` into
  ``CorruptStreamError``.

Scope: decode-side functions of the decoder tree (see
:mod:`repro.lint.common`); encoders index buffers they built themselves. A
decode-side function whose CFG the flow layer cannot model (a ``match``
statement, a diverging taint solve) is itself a finding: an unmodelled
decoder is an unchecked one, so it names the construct to rewrite.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.lint.common import decode_side, in_decoder_tree, is_test_path
from repro.lint.engine import ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register


@register
class GuardedReadRule(Rule):
    code = "R009"
    name = "guarded-read"
    summary = "decoder buffer reads need a dominating bounds check"
    default_severity = Severity.ERROR

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        summaries = project.summaries
        if summaries is None:
            return findings
        for summary in summaries.functions.values():
            if is_test_path(summary.rel) or not in_decoder_tree(summary.rel):
                continue
            if not decode_side(summary.name, summary.cls):
                continue
            ctx = project.module(summary.rel)
            if ctx is None:
                continue
            if not summary.supported:
                findings.append(
                    ctx.finding(
                        self,
                        summary.lineno,
                        f"the flow layer could not model decoder "
                        f"'{summary.display}' ({summary.unsupported}), so none "
                        "of its buffer reads is checked — rewrite it so each "
                        "read's guard can be proven",
                    )
                )
                continue
            for site in summary.read_sites:
                if site.guarded:
                    continue
                findings.append(
                    ctx.finding(
                        self,
                        site.lineno,
                        f"read of '{site.base}' in '{summary.display}' has "
                        f"{site.reason}; corrupt input would surface as "
                        "IndexError instead of CorruptStreamError — guard the "
                        "index or translate the exception",
                    )
                )
        return findings
