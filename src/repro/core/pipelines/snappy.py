"""Snappy CDPU pipelines (paper Figures 9-10, evaluated in §6.2-§6.3).

Both pipelines are functional: the decompressor runs the software decoder's
element loop with a sink (and can verify the executed elements against the
content it decoded); the compressor runs the real hash matcher with the
hardware parameter set and emits the real Snappy wire format, so its
compression ratio — including beating software by ~1% at 64 KiB history
because hardware skips the skipping heuristic (§6.3) — is measured, not
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.algorithms.lz77 import decode_tokens
from repro.algorithms.snappy import (
    SNAPPY_WINDOW,
    SnappyCodec,
    decode_with_tokens,
    emit_elements,
)
from repro.common.varint import encode_varint
from repro.core.blocks.interface import CommandRouter, shared_port_cycles
from repro.core.blocks.lz77 import Lz77DecoderBlock, Lz77EncoderBlock
from repro.core.params import CdpuConfig
from repro.core.pipelines.base import (
    CallResult,
    CycleReport,
    Encoded,
    verify_encoded,
    verify_output,
)
from repro.soc.memory import MemorySystem


@dataclass(frozen=True)
class SnappyDecompressorPipeline:
    """CMD Router -> MemLoader -> Snappy control -> LZ77 decoder -> MemWriter."""

    config: CdpuConfig
    memory: MemorySystem

    def __post_init__(self) -> None:
        if "snappy" not in self.config.algorithms:
            raise ValueError("config does not enable the snappy algorithm")

    def run(self, compressed: bytes, *, verify: bool = False) -> CallResult:
        """Decompress one stream, returning the cycle breakdown.

        With ``verify=True`` the output is reconstructed from the executed
        elements and compared byte for byte with the content the software
        decoder produced in the same run — the functional path the FireSim
        simulations exercise implicitly.
        """
        content, tokens = decode_with_tokens(compressed)
        if verify:
            verify_output(
                decode_tokens(tokens, expected_length=len(content)),
                content,
                "snappy decompressor pipeline",
            )
        return self.account(len(compressed), len(content), tokens)

    def account(self, compressed_bytes: int, expected: int, tokens) -> CallResult:
        """Cycle accounting from a pre-parsed element stream (DSE fast path:
        parsing is config-independent, so sweeps parse each file once)."""
        decoder = Lz77DecoderBlock(self.config, self.memory)
        report = CycleReport()
        report.add_pipelined(
            "memload+memwrite",
            shared_port_cycles(
                self.memory,
                compressed_bytes + decoder.fallback_traffic_bytes(tokens),
                expected,
            ),
        )
        report.add_pipelined("lz77-writer", decoder.execute_cycles(tokens))
        report.add_serial("history-fallback", decoder.fallback_cycles(tokens))
        report.add_serial("cmd-router", CommandRouter(self.memory).dispatch_cycles())
        return CallResult(input_bytes=compressed_bytes, output_bytes=expected, report=report)


@dataclass(frozen=True)
class SnappyCompressorPipeline:
    """CMD Router -> MemLoader -> LZ77 hash matcher -> MemWriter."""

    config: CdpuConfig
    memory: MemorySystem

    def __post_init__(self) -> None:
        if "snappy" not in self.config.algorithms:
            raise ValueError("config does not enable the snappy algorithm")

    def encode(self, data: bytes) -> Encoded:
        """One matcher run, and the element stream emitted from its tokens."""
        history = self.config.encoder_history_bytes
        return self.encode_histories(data, (history,))[history]

    def encode_histories(self, data: bytes, histories: Iterable[int]) -> Dict[int, Encoded]:
        """:meth:`encode` of ``data`` at each encoder history size in
        ``histories``, from one matcher run.

        The matcher reaches back at most the format's 64 KiB window, the
        furthest offset the decoder accepts, whatever the history SRAM
        holds."""
        windows = {history: min(history, SNAPPY_WINDOW) for history in histories}
        runs = Lz77EncoderBlock(self.config).tokenize_histories(data, windows.values())
        size = encode_varint(len(data))
        encoded = {
            window: Encoded(size + emit_elements(tokens), tokens, stats)
            for window, (tokens, stats) in runs.items()
        }
        return {history: encoded[window] for history, window in windows.items()}

    def run(self, data: bytes, *, verify: bool = False) -> CallResult:
        encoded = self.encode(data)
        if verify:
            # The hardware stream must decode exactly back to the input with
            # the *software* decompressor (wire-format compatibility).
            verify_encoded(
                encoded, data, SnappyCodec().decompress, "snappy compressor pipeline"
            )
        return self.account(len(data), encoded.tokens, encoded.stats, len(encoded.frame))

    def account(self, data_length: int, tokens, stats, compressed_bytes: int) -> CallResult:
        """Cycle accounting from a pre-run matcher (DSE fast path: the match
        stream depends only on encoder parameters, not on placement)."""
        encoder = Lz77EncoderBlock(self.config)
        report = CycleReport()
        report.add_pipelined(
            "memload+memwrite", shared_port_cycles(self.memory, data_length, compressed_bytes)
        )
        report.add_pipelined("lz77-matcher", encoder.match_cycles(data_length, tokens, stats))
        report.add_pipelined("element-emit", encoder.emit_cycles(compressed_bytes))
        report.add_serial("cmd-router", CommandRouter(self.memory).dispatch_cycles())
        return CallResult(input_bytes=data_length, output_bytes=compressed_bytes, report=report)
