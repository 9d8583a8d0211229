"""Reference ZStd-like frame analysis: a parser that mirrors the decoder.

This was the hardware model's frame analysis before the decoder itself
gained a sink (:func:`repro.algorithms.zstd.analyze_frame`). It walks the
block grammar with its own loop, re-parses the FSE table headers for their
accuracy logs and executes the token stream once to check the content
trailer. Kept only as the oracle the sink is checked against
(``test_zstd_analyze.py``): on frames the encoder writes, both must report
the same blocks, sizes and token columns.
"""

from __future__ import annotations

from typing import List

from repro.algorithms.container import split_content_checksum, verify_content_checksum
from repro.algorithms.lz77 import TokenStreamBuilder, decode_tokens
from repro.algorithms.zstd import (
    ZSTD_FRAME,
    BlockStats,
    FrameStats,
    SequenceCoder,
    _BLOCK_COMPRESSED,
    _BLOCK_RAW,
    _BLOCK_RLE,
    _LITERALS_HUFFMAN,
    _decode_literals,
)
from repro.common.errors import CorruptStreamError
from repro.common.varint import decode_varint


def analyze_frame(data: bytes) -> FrameStats:
    """Parse a ZStd-like frame and collect hardware-relevant statistics.

    Raises :class:`CorruptStreamError` on the malformed frames its own
    checks see; it does not check every block the way the decoder does.
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
    mode = data[pos] if pos < len(data) else -1
    literals, pos = _decode_literals(data, pos)
    literal_lengths, offsets, match_lengths, _, seq_end = SequenceCoder.decode_columns(data, pos)
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
