"""R015: tainted lengths must be capped before interprocedural allocation.

R008 stops a stream-decoded integer from reaching a slice bound, ``range()``
limit, or allocation *inside one function*. What it cannot see is the
amplification path that crosses a call boundary: a decoder reads a length
varint, skips the cap, and hands the value to a helper that allocates —
``bytearray(n)``, ``[0] * n``, ``range(n)`` accumulation — so a 20-byte
corrupt frame commands a multi-GiB allocation. Because every container in
the library verifies its CRC-32C trailer only *after* reconstructing the
output (the trailer covers decoded content), any such allocation happens
before corruption could possibly be detected: the classic decompression
bomb.

This rule joins the two halves the flow summaries already collect:

* caller side — :class:`~repro.lint.flow.summaries.TaintedArgRec`: call
  sites in decode-shaped functions whose arguments carry a tainted value
  *unchecked* (a dominating cap clears the taint, so capped values never
  produce a record);
* callee side — :class:`~repro.lint.flow.summaries.ParamSinkRec`: the
  seeded-taint pass, run only for the callees these records resolve to,
  marks parameters that reach an allocation/repeat/range
  sink with no in-function cap.

A finding means neither side bounded the value, and it names both blame
sites. Fix at either end: clamp against the frame's declared content length
(or an explicit constant) before the call, or cap the parameter inside the
helper before the sink. Baseline-free by design — first-party decoders are
expected to stay clean at the source.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.lint.common import decode_side, in_decoder_tree, is_test_path
from repro.lint.engine import ModuleContext, ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.flow.summaries import FunctionSummary, TaintedArgRec
from repro.lint.registry import Rule, register

#: Sink kinds that multiply memory per input byte. ``slice-bound`` is
#: excluded: slicing an existing buffer cannot allocate beyond its size.
_AMPLIFYING = frozenset({"allocation", "repeat", "range-limit"})


@register
class AllocationAmplificationRule(Rule):
    code = "R015"
    name = "allocation-amplification"
    summary = "tainted length crosses a call into an uncapped allocation"
    default_severity = Severity.ERROR
    remediation = (
        "Bound the decoded length before it crosses the call: clamp it "
        "against the frame's declared content length or an explicit "
        "constant cap (raise CorruptStreamError when exceeded) before "
        "passing it on, or cap the parameter inside the callee before the "
        "bytearray/list-repeat/range sink. The check must dominate the "
        "sink on every path — the CRC-32C trailer is verified only after "
        "decoding, so nothing else stands between a corrupt length and "
        "the allocation."
    )

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        summaries = project.summaries
        if summaries is None:
            return findings
        contexts: Dict[str, ModuleContext] = {
            ctx.rel: ctx for ctx in project.modules
        }
        by_name: Dict[str, List[FunctionSummary]] = {}
        for fn in summaries.functions.values():
            by_name.setdefault(fn.name, []).append(fn)
        for summary in sorted(
            summaries.functions.values(), key=lambda f: (f.rel, f.lineno)
        ):
            if is_test_path(summary.rel):
                continue
            if not in_decoder_tree(summary.rel):
                continue
            if not summary.supported or not decode_side(summary.name, summary.cls):
                continue
            ctx = contexts.get(summary.rel)
            if ctx is None:
                continue
            for rec in summary.tainted_args:
                findings.extend(
                    self._check_call(ctx, summaries, by_name, summary, rec)
                )
        return findings

    def _check_call(
        self,
        ctx: ModuleContext,
        summaries,
        by_name: Dict[str, List[FunctionSummary]],
        summary: FunctionSummary,
        rec: TaintedArgRec,
    ) -> Iterable[Finding]:
        candidates = self._candidates(summaries, by_name, summary, rec)
        if not candidates:
            return  # unresolvable target: stay quiet, never guess
        # A finding requires *every* resolution candidate to amplify the
        # argument, so an ambiguous fallback match stays conservative.
        amplified = []
        for callee in candidates:
            param = self._param_at(callee, rec)
            if param is None:
                return
            sinks = [
                ps
                for ps in summaries.param_sinks(callee)
                if ps.param == param and ps.kind in _AMPLIFYING
            ]
            if not sinks:
                return
            amplified.append((callee, param, sinks[0]))
        callee, param, sink = amplified[0]
        names = ", ".join(rec.names)
        yield ctx.finding(
            self,
            rec.lineno,
            f"tainted length ({names}) crosses into {callee.display}()'s "
            f"parameter '{param}', which reaches an uncapped {sink.kind} "
            f"sink at {callee.rel}:{sink.lineno} before the CRC-32C "
            "trailer is verified — cap the value against the declared "
            "content length on one side of the call",
        )

    @staticmethod
    def _candidates(
        summaries,
        by_name: Dict[str, List[FunctionSummary]],
        summary: FunctionSummary,
        rec: TaintedArgRec,
    ) -> List[FunctionSummary]:
        """Callee resolutions for a call record.

        Exact resolution through the import-aware call graph first; when
        the target is an attribute chain the graph cannot follow
        (``self._codec._decode_block``), fall back to terminal-name
        matching within the decoder tree, preferring same-module matches.
        A finding is only raised when *every* candidate amplifies, so an
        ambiguous fallback stays conservative.
        """
        resolved = summaries.resolve_call(summary.rel, summary.cls, rec.target)
        if resolved is not None:
            return [resolved]
        candidates = [
            fn
            for fn in by_name.get(rec.terminal, [])
            if fn.supported and in_decoder_tree(fn.rel)
        ]
        same_module = [fn for fn in candidates if fn.rel == summary.rel]
        return sorted(
            same_module or candidates, key=lambda f: (f.rel != summary.rel, f.rel, f.lineno)
        )

    @staticmethod
    def _param_at(
        callee: FunctionSummary, rec: TaintedArgRec
    ) -> Optional[str]:
        if rec.kw is not None:
            return rec.kw if rec.kw in callee.params else None
        if 0 <= rec.arg_index < len(callee.params):
            return callee.params[rec.arg_index]
        return None
