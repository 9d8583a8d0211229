"""R014: every field the encoder emits, the decoder consumes — and no more.

The wire-grammar pass (:mod:`repro.lint.flow.grammar`) recovers each codec's
frame layout from its ``FrameSpec`` declaration and classifies every
``encode_preamble()`` / ``decode_preamble()`` / ``try_decode_preamble()``
call site as a write or read surface of that spec. Because both sides
serialize through the *same* declarative spec, the declared header fields
(order, widths, varint ``max_bits``, version gates) are symmetric by
construction; what can still desynchronize is everything *around* the spec:

* an encoder module whose frames no decoder in the project parses (or a
  decoder for frames nothing emits) — the classic "field added on one side"
  drift, caught at the surface level;
* hand-rolled wire fields appended after the preamble on one side only —
  the *header-window traces* (raw ``encode_varint``/``decode_varint``
  calls, stage-descriptor tables, const-width ``to_bytes``/``from_bytes``)
  must match between the write and read sides of a spec, in order and
  width;
* the CRC-32C trailer: a module that writes frames of a checksummed spec
  must emit the trailer, and a module that reads them must verify it —
  otherwise corruption decodes to silent garbage.

Every finding names both blame sites (the offending surface and its nearest
counterpart), because grammar drift is always a two-sided bug. The rule is
baseline-free by design: hits are fixed by making the sides agree, not by
baselining.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.common import is_test_path
from repro.lint.engine import ModuleContext, ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.flow.grammar import (
    GrammarIndex,
    SurfaceRec,
    extract_grammar_index,
)
from repro.lint.registry import Rule, register


def _fmt_trace(trace: Tuple[Tuple[object, ...], ...]) -> str:
    if not trace:
        return "[no trailing wire fields]"
    parts = []
    for op in trace:
        if op[0] == "fixed":
            parts.append(f"fixed[{op[1]}]" if op[1] is not None else "fixed[?]")
        else:
            parts.append(str(op[0]))
    return "[" + ", ".join(parts) + "]"


def _site(surface: SurfaceRec) -> str:
    return f"{surface.rel}:{surface.lineno} ({surface.func})"


@register
class GrammarSymmetryRule(Rule):
    code = "R014"
    name = "grammar-symmetry"
    summary = "encoder and decoder surfaces of a frame spec must agree"
    default_severity = Severity.ERROR
    remediation = (
        "Make the encode and decode sides of the frame agree: give every "
        "write surface a project-side decoder (and vice versa), mirror any "
        "wire fields appended after the preamble on both sides in the same "
        "order and width, and pair CRC-32C trailer emission "
        "(append_content_checksum) with verification "
        "(verify_content_checksum / verify_running_checksum). If the frame "
        "layout itself changed, bump the spec's version byte and regenerate "
        "results/frame_grammars.json."
    )

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        contexts: Dict[str, ModuleContext] = {
            ctx.rel: ctx for ctx in project.modules if not is_test_path(ctx.rel)
        }
        index = extract_grammar_index(
            (rel, ctx.syntax) for rel, ctx in contexts.items()
        )
        findings: List[Finding] = []
        for identity in sorted(index.specs):
            spec = index.specs[identity]
            writes = index.surfaces_for(identity, "write")
            reads = index.surfaces_for(identity, "read")
            if not writes and not reads:
                continue
            findings.extend(
                self._check_sides(contexts, spec.name, writes, reads)
            )
            findings.extend(
                self._check_traces(contexts, spec.name, writes, reads)
            )
            if spec.has_checksum:
                findings.extend(
                    self._check_checksum(contexts, index, spec.name, writes, reads)
                )
        return findings

    def _check_sides(
        self,
        contexts: Dict[str, ModuleContext],
        spec_name: str,
        writes: Sequence[SurfaceRec],
        reads: Sequence[SurfaceRec],
    ) -> Iterable[Finding]:
        if writes and not reads:
            surface = writes[0]
            yield self._finding(
                contexts,
                surface,
                f"encoder writes {spec_name} frames at {_site(surface)} but "
                "no decode surface in the project consumes them — every "
                "emitted field needs a read-side counterpart",
            )
        elif reads and not writes:
            surface = reads[0]
            yield self._finding(
                contexts,
                surface,
                f"decoder reads {spec_name} frames at {_site(surface)} but "
                "no encode surface in the project emits them — every "
                "consumed field needs a write-side counterpart",
            )

    def _check_traces(
        self,
        contexts: Dict[str, ModuleContext],
        spec_name: str,
        writes: Sequence[SurfaceRec],
        reads: Sequence[SurfaceRec],
    ) -> Iterable[Finding]:
        if not writes or not reads:
            return
        write_traces = {s.trace for s in writes}
        read_traces = {s.trace for s in reads}
        for surface in writes:
            if surface.trace not in read_traces:
                counterpart = reads[0]
                yield self._finding(
                    contexts,
                    surface,
                    f"encoder at {_site(surface)} emits "
                    f"{_fmt_trace(surface.trace)} after the {spec_name} "
                    "preamble, but no decode surface consumes a matching "
                    f"field sequence (nearest: {_site(counterpart)} reads "
                    f"{_fmt_trace(counterpart.trace)})",
                )
        for surface in reads:
            if surface.trace not in write_traces:
                counterpart = writes[0]
                yield self._finding(
                    contexts,
                    surface,
                    f"decoder at {_site(surface)} consumes "
                    f"{_fmt_trace(surface.trace)} after the {spec_name} "
                    "preamble, but no encode surface emits a matching "
                    f"field sequence (nearest: {_site(counterpart)} writes "
                    f"{_fmt_trace(counterpart.trace)})",
                )

    def _check_checksum(
        self,
        contexts: Dict[str, ModuleContext],
        index: GrammarIndex,
        spec_name: str,
        writes: Sequence[SurfaceRec],
        reads: Sequence[SurfaceRec],
    ) -> Iterable[Finding]:
        for surface in writes:
            evidence = index.checksum_evidence.get(surface.rel)
            if evidence is None or not evidence.emit_lines:
                counterpart = reads[0] if reads else surface
                yield self._finding(
                    contexts,
                    surface,
                    f"{spec_name} declares a CRC-32C trailer but the write "
                    f"surface at {_site(surface)} never emits one "
                    "(append_content_checksum) — its decoder "
                    f"({_site(counterpart)}) will reject every frame",
                )
        for surface in reads:
            evidence = index.checksum_evidence.get(surface.rel)
            if evidence is None or not evidence.verify_lines:
                counterpart = writes[0] if writes else surface
                yield self._finding(
                    contexts,
                    surface,
                    f"{spec_name} declares a CRC-32C trailer but the read "
                    f"surface at {_site(surface)} never verifies it "
                    "(verify_content_checksum / verify_running_checksum) — "
                    f"corruption of frames from {_site(counterpart)} would "
                    "decode to silent garbage",
                )

    def _finding(
        self,
        contexts: Dict[str, ModuleContext],
        surface: SurfaceRec,
        message: str,
    ) -> Finding:
        return contexts[surface.rel].finding(self, surface.lineno, message)
