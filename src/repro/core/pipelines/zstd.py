"""ZStd CDPU pipelines (paper Figures 9-10, evaluated in §6.4-§6.5).

The decompressor consumes a real ZStd-like frame: Huffman symbol counts,
FSE sequence counts, table builds, and the LZ77 token stream (with true
offsets for history-fallback accounting) all come from
:func:`repro.algorithms.zstd.decode_with_stats` — the software decoder run
with a sink, so the model accounts what the decoder executed.

The compressor re-uses the LZ77 encoder block *as configured for Snappy*
(§6.5 does exactly this, and attributes its 84%-of-software compression
ratio to it), then really entropy-codes the result through the shared
container writer to obtain the hardware-achieved size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.algorithms.lz77 import MatcherStats, TokenStream, decode_tokens
from repro.algorithms.zstd import FrameStats, ZstdCodec, decode_with_stats
from repro.core.blocks.entropy import (
    FseCompressorBlock,
    FseExpanderBlock,
    HuffmanCompressorBlock,
    HuffmanExpanderBlock,
)
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
class ZstdDecompressorPipeline:
    """FSE/Huffman expanders feeding the shared LZ77 decoder (Figure 9)."""

    config: CdpuConfig
    memory: MemorySystem

    def __post_init__(self) -> None:
        if "zstd" not in self.config.algorithms:
            raise ValueError("config does not enable the zstd algorithm")

    def run(self, compressed: bytes, *, verify: bool = False) -> CallResult:
        """With ``verify=True`` the executed tokens must reproduce, byte for
        byte, the content the decoder produced in the same run."""
        content, stats = decode_with_stats(compressed)
        if verify:
            verify_output(
                decode_tokens(stats.tokens, expected_length=stats.content_bytes),
                content,
                "zstd decompressor pipeline",
            )
        return self.account(stats)

    def account(self, stats: FrameStats) -> CallResult:
        """Cycle accounting from pre-analyzed frame statistics (DSE fast
        path: frame analysis is config-independent)."""
        decoder = Lz77DecoderBlock(self.config, self.memory)
        huffman = HuffmanExpanderBlock(self.config)
        fse = FseExpanderBlock(self.config)

        report = CycleReport()
        report.add_pipelined(
            "memload+memwrite",
            shared_port_cycles(
                self.memory,
                stats.compressed_bytes + decoder.fallback_traffic_bytes(stats.tokens),
                stats.content_bytes,
            ),
        )
        report.add_pipelined("huffman-expander", huffman.decode_cycles(stats.huffman_symbols))
        report.add_pipelined("fse-expander", fse.decode_cycles(stats.total_sequences))
        report.add_pipelined("lz77-writer", decoder.execute_cycles(stats.tokens))
        report.add_serial("history-fallback", decoder.fallback_cycles(stats.tokens))
        report.add_serial("huffman-table-build", huffman.table_build_cycles(stats.huffman_tables))
        report.add_serial(
            "fse-table-build",
            fse.table_build_cycles(stats.total_fse_tables, stats.max_fse_accuracy_log),
        )
        report.add_serial("cmd-router", CommandRouter(self.memory).dispatch_cycles())
        return CallResult(
            input_bytes=stats.compressed_bytes,
            output_bytes=stats.content_bytes,
            report=report,
        )


@dataclass(frozen=True)
class ZstdCompressorPipeline:
    """LZ77 matcher + Huffman/FSE compressors + SeqToCode (Figure 10).

    The matcher runs once per 128 KiB block, as the codec frames it, and
    the cycles are accounted per block from what the frame carries: a
    compressed block's matcher stream, a raw-fallback block's one literal
    element, an RLE block's literal byte and copy.
    """

    config: CdpuConfig
    memory: MemorySystem

    def __post_init__(self) -> None:
        if "zstd" not in self.config.algorithms:
            raise ValueError("config does not enable the zstd algorithm")

    def _hw_codec(self) -> ZstdCodec:
        return ZstdCodec(
            lz77_params=self.config.encoder_lz77_params(),
            accuracy_log=self.config.fse_max_accuracy_log,
        )

    def encode(self, data: bytes) -> Encoded:
        """The codec's block loop with one matcher run per matched block;
        the stats sum over those runs."""
        history = self.config.encoder_history_bytes
        return self.encode_histories(data, (history,))[history]

    def encode_histories(self, data: bytes, histories: Iterable[int]) -> Dict[int, Encoded]:
        """:meth:`encode` of ``data`` at each encoder history size in
        ``histories``. The block loop runs once per size, and each matched
        block is matched once for all of them: the loop matches the same
        blocks in the same order at every size (whether a block is RLE
        depends on its bytes alone), and each size's pass reads its own
        stream."""
        histories = sorted(set(histories))
        encoder = Lz77EncoderBlock(self.config)
        codec = self._hw_codec()
        matched: List[Dict[int, Tuple[TokenStream, MatcherStats]]] = []
        out: Dict[int, Encoded] = {}
        for history in histories:
            runs: List[MatcherStats] = []

            def match(
                block: bytes, history: int = history, runs: List[MatcherStats] = runs
            ) -> TokenStream:
                if len(runs) == len(matched):
                    matched.append(encoder.tokenize_histories(block, histories))
                stream, stats = matched[len(runs)][history]
                runs.append(stats)
                return stream

            frame, tokens = codec.compress_with_tokens(data, match)
            out[history] = Encoded(frame, tokens, sum(runs, MatcherStats()))
        return out

    def run(self, data: bytes, *, verify: bool = False) -> CallResult:
        encoded = self.encode(data)
        if verify:
            # Hardware output must be decodable by the software decompressor.
            verify_encoded(encoded, data, ZstdCodec().decompress, "zstd compressor pipeline")
        return self.account(len(data), encoded.tokens, encoded.stats, len(encoded.frame))

    def account(self, data_length: int, tokens, match_stats, compressed_bytes: int) -> CallResult:
        """Cycle accounting from :meth:`encode`'s tokens, stats and frame size."""
        encoder = Lz77EncoderBlock(self.config)
        huffman = HuffmanCompressorBlock(self.config)
        fse = FseCompressorBlock(self.config)

        report = CycleReport()
        report.add_pipelined(
            "memload+memwrite", shared_port_cycles(self.memory, data_length, compressed_bytes)
        )
        report.add_pipelined("lz77-matcher", encoder.match_cycles(data_length, tokens, match_stats))
        # Two-pass entropy coding at block granularity cannot overlap the
        # matcher's stream: statistics, table builds, then the encode pass.
        report.add_serial("huffman-stats", huffman.stats_cycles(tokens.literal_bytes))
        report.add_serial("huffman-encoder", huffman.encode_cycles(tokens.literal_bytes))
        report.add_serial("fse-stats", fse.stats_cycles(tokens.num_copies))
        report.add_serial("fse-encoder", fse.encode_cycles(tokens.num_copies))
        report.add_serial("fse-table-build", fse.table_build_cycles())
        report.add_serial("cmd-router", CommandRouter(self.memory).dispatch_cycles())
        return CallResult(input_bytes=data_length, output_bytes=compressed_bytes, report=report)
