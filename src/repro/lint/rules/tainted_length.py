"""R008: untrusted integers are bounds-checked before sizing anything.

The CDPU paper's decompressors are safe by *construction* — the hardware
copy engine physically cannot address past its history window (§5). The
software reproduction has no such fence, so the equivalent invariant is a
dataflow property: an integer decoded from the untrusted stream (varint
length fields, ``int.from_bytes`` reassembly, ``struct.unpack``, wide
bit-reader fields) must pass a comparison against a buffer length or a
documented limit *before* it is used as

* a slice bound — ``data[pos : pos + length]`` silently truncates, turning
  corruption into wrong output instead of a loud
  :class:`~repro.common.errors.CorruptStreamError`;
* a ``range()`` limit — a 2**64 token count is an unbounded work loop;
* an allocation size or ``bytes * n`` repeat count — a one-byte RLE block
  declaring 2**64 output is a memory amplification attack.

The heavy lifting happens in :mod:`repro.lint.flow.taint`: a forward
abstract interpretation over each function's CFG, where branch edges kill
taint (``if length > len(buf) - pos: raise`` proves ``length`` bounded on
the fall-through edge) including transitively through arithmetic
(bounding ``(count * 18 + 7) // 8`` bounds ``count``). This rule just
reports the surviving sinks. Functions the CFG cannot model produce no
R008 findings; R009 reports the decode-side ones as unmodelled.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.lint.common import is_test_path
from repro.lint.engine import ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

_KIND_HINTS = {
    "slice-bound": "slice bounds silently clamp, hiding truncation",
    "range-limit": "an oversized count is an unbounded work loop",
    "allocation": "attacker-sized allocation",
    "repeat": "attacker-sized repeat is a memory amplification",
}


@register
class TaintedLengthRule(Rule):
    code = "R008"
    name = "tainted-length"
    summary = "stream-decoded integers must be bounds-checked before use as sizes"
    default_severity = Severity.ERROR

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        summaries = project.summaries
        if summaries is None:
            return findings
        for summary in summaries.functions.values():
            if is_test_path(summary.rel) or not summary.sinks:
                continue
            ctx = project.module(summary.rel)
            if ctx is None:
                continue
            for sink in summary.sinks:
                names = ", ".join(sink.names)
                hint = _KIND_HINTS.get(sink.kind, "unchecked use")
                findings.append(
                    ctx.finding(
                        self,
                        sink.lineno,
                        f"'{names}' comes from the untrusted stream and reaches a "
                        f"{sink.kind} in '{summary.display}' without a bounds "
                        f"check ({hint}); compare it against the buffer length "
                        "or a documented limit first",
                    )
                )
        return findings
