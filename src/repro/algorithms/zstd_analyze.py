"""Structural analysis of ZStd-like frames for the hardware model.

The ZStd decompressor pipeline needs to know, per compressed frame, how much
work each hardware block performs: Huffman-coded literal symbols (expander),
sequences (FSE expander), table counts/sizes (table builders), and the full
LZ77 token stream with real offsets (LZ77 decoder + history fallbacks).
:func:`analyze_frame` extracts all of that in one validating pass that
mirrors :meth:`repro.algorithms.zstd.ZstdCodec.decompress`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.algorithms.container import split_content_checksum, verify_content_checksum
from repro.algorithms.lz77 import TokenStream, TokenStreamBuilder, decode_tokens
from repro.algorithms.zstd import (
    ZSTD_FRAME,
    SequenceCoder,
    _BLOCK_COMPRESSED,
    _BLOCK_RAW,
    _BLOCK_RLE,
    _LITERALS_HUFFMAN,
    _LITERALS_RAW,
)
from repro.common.errors import CorruptStreamError
from repro.common.varint import decode_varint


@dataclass
class BlockStats:
    """Work performed decoding one frame block."""

    block_type: str  # "raw", "rle", or "compressed"
    raw_size: int
    literal_count: int = 0
    huffman_coded: bool = False
    num_sequences: int = 0
    fse_tables: int = 0
    fse_accuracy_logs: List[int] = field(default_factory=list)


@dataclass
class FrameStats:
    """Aggregate per-frame statistics plus the executable token stream."""

    window_log: int
    content_bytes: int
    compressed_bytes: int
    blocks: List[BlockStats]
    tokens: TokenStream

    @property
    def huffman_symbols(self) -> int:
        return sum(b.literal_count for b in self.blocks if b.huffman_coded)

    @property
    def huffman_tables(self) -> int:
        return sum(1 for b in self.blocks if b.huffman_coded)

    @property
    def total_sequences(self) -> int:
        return sum(b.num_sequences for b in self.blocks)

    @property
    def total_fse_tables(self) -> int:
        return sum(b.fse_tables for b in self.blocks)


def analyze_frame(data: bytes) -> FrameStats:
    """Parse a ZStd-like frame and collect hardware-relevant statistics.

    Raises :class:`CorruptStreamError` on malformed frames, like the real
    decoder. The returned token stream reconstructs the content when executed
    (offsets are frame-relative: blocks are matched independently, so every
    offset stays within its block — consistent with the encoder).
    """
    total_bytes = len(data)
    data, stored_crc = split_content_checksum(data)
    preamble, pos = ZSTD_FRAME.decode_preamble(data)
    window_log = preamble.window_log
    expected = preamble.content_length

    blocks: List[BlockStats] = []
    tokens = TokenStreamBuilder()
    produced = 0
    saw_last = False
    while pos < len(data):
        if saw_last:
            raise CorruptStreamError("data after last block")
        tag = data[pos]
        pos += 1
        block_type = tag & 0x7F
        saw_last = bool(tag & 0x80)
        raw_size, pos = decode_varint(data, pos)
        if block_type == _BLOCK_RAW:
            if pos + raw_size > len(data):
                raise CorruptStreamError("truncated raw block")
            if raw_size:
                tokens.literal(data[pos : pos + raw_size])
            blocks.append(BlockStats("raw", raw_size))
            pos += raw_size
        elif block_type == _BLOCK_RLE:
            if pos >= len(data):
                raise CorruptStreamError("truncated RLE block")
            byte = data[pos]
            pos += 1
            tokens.rle(byte, raw_size)
            blocks.append(BlockStats("rle", raw_size))
        elif block_type == _BLOCK_COMPRESSED:
            body_size, pos = decode_varint(data, pos)
            if pos + body_size > len(data):
                raise CorruptStreamError("truncated compressed block")
            blocks.append(_analyze_block(data, pos, raw_size, tokens))
            pos += body_size
        else:
            raise CorruptStreamError(f"unknown block type {block_type}")
        produced += raw_size
    if not saw_last:
        raise CorruptStreamError("frame missing last block")
    if produced != expected:
        raise CorruptStreamError("frame size mismatch")
    # Execute the tokens once so the content trailer is actually checked —
    # the analyzer upholds the same integrity contract as the decoder.
    stream = tokens.build()
    verify_content_checksum(decode_tokens(stream, expected_length=expected), stored_crc)
    return FrameStats(
        window_log=window_log,
        content_bytes=expected,
        compressed_bytes=total_bytes,
        blocks=blocks,
        tokens=stream,
    )


def _analyze_block(data: bytes, pos: int, raw_size: int, tokens: TokenStreamBuilder) -> BlockStats:
    """One compressed block's statistics; its sequences go to ``tokens``."""
    from repro.algorithms.zstd import _decode_literals

    mode = data[pos] if pos < len(data) else -1
    literals, pos = _decode_literals(data, pos)
    literal_lengths, offsets, match_lengths, seq_end = SequenceCoder.decode_columns(data, pos)
    # Re-parse the accuracy logs for the table-builder model.
    acc_logs: List[int] = []
    scan = pos
    num_sequences, scan = decode_varint(data, scan)
    if num_sequences:
        for _ in range(3):
            if scan + 2 > len(data):
                raise CorruptStreamError("truncated FSE table header")
            acc_logs.append(data[scan])
            alphabet = data[scan + 1]
            scan += 2
            width = acc_logs[-1] + 1
            scan += (alphabet * width + 7) // 8
            scan += 2  # state
            payload_len, scan = decode_varint(data, scan)
            scan += payload_len
    pos = seq_end
    trailing, pos = decode_varint(data, pos)
    tokens.extend(literals, literal_lengths, offsets, match_lengths, trailing)
    return BlockStats(
        block_type="compressed",
        raw_size=raw_size,
        literal_count=len(literals),
        huffman_coded=(mode == _LITERALS_HUFFMAN),
        num_sequences=len(offsets),
        fse_tables=3 if offsets else 0,
        fse_accuracy_logs=acc_logs,
    )
