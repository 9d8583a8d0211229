"""Reference encode-side table builds: list-based package-merge, loop-built
canonical codes, the per-field header read and the Snappy element emitter
that split long copies first.

These were the codec's builders before they moved onto count and code
arrays (:func:`repro.algorithms.huffman.build_code_lengths`,
:func:`repro.algorithms.huffman.canonical_codes`,
``HuffmanTable._encode_pairs``/``_encode_columns``,
:func:`repro.algorithms.huffman.deserialize_lengths`) and before Snappy's
emitter became one pass over the token columns
(:func:`repro.algorithms.snappy.emit_elements`). Kept only as the oracles
those are checked (``test_huffman_equivalence.py``) and benchmarked
(``benchmarks/test_codec_throughput.py``) against: on every input both must
return the same lengths, codes, bytes and errors.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.algorithms.huffman import DEFAULT_MAX_BITS, HuffmanTable, _reverse_bits
from repro.algorithms.lz77 import TokenStream, split_long_copies
from repro.algorithms.snappy import (
    _MAX_COPY2_OFFSET,
    _MAX_COPY_LEN,
    _TAG_COPY1,
    _TAG_COPY2,
    _TAG_COPY4,
    _TAG_LITERAL,
)
from repro.common.bitio import BitReader
from repro.common.errors import CorruptStreamError


def build_code_lengths(frequencies: Dict[int, int], max_bits: int = DEFAULT_MAX_BITS) -> Dict[int, int]:
    """Compute length-limited Huffman code lengths via package-merge.

    Returns a mapping from symbol to code length (1..max_bits). Symbols with
    zero frequency are omitted. A single-symbol alphabet gets length 1.
    """
    symbols = [s for s, f in frequencies.items() if f > 0]
    if not symbols:
        return {}
    if len(symbols) == 1:
        return {symbols[0]: 1}
    if len(symbols) > (1 << max_bits):
        raise ValueError(
            f"{len(symbols)} symbols cannot be coded within {max_bits} bits"
        )

    # Package-merge: optimal length-limited codes.
    items = sorted((frequencies[s], s) for s in symbols)
    packages: List[List[Tuple[int, List[int]]]] = []
    base = [(freq, [sym]) for freq, sym in items]
    prev: List[Tuple[int, List[int]]] = []
    for _ in range(max_bits):
        merged = sorted(base + prev, key=lambda t: t[0])
        packages.append(merged)
        prev = [
            (merged[i][0] + merged[i + 1][0], merged[i][1] + merged[i + 1][1])
            for i in range(0, len(merged) - 1, 2)
        ]
    lengths: Dict[int, int] = {s: 0 for s in symbols}
    # Take the first 2*(n-1) items of the final level; each appearance of a
    # symbol adds one to its code length.
    take = 2 * (len(symbols) - 1)
    for freq, syms in packages[-1][:take]:
        for s in syms:
            lengths[s] += 1
    return lengths


def canonical_codes(lengths: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
    """Assign canonical (code, length) pairs from code lengths.

    Shorter codes come first; ties broken by symbol value — the canonical
    ordering any decoder can reconstruct from lengths alone.
    """
    ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    codes: Dict[int, Tuple[int, int]] = {}
    code = 0
    prev_len = 0
    for symbol, length in ordered:
        if length <= 0:
            raise ValueError(f"symbol {symbol} has non-positive length {length}")
        code <<= length - prev_len
        codes[symbol] = (code, length)
        code += 1
        prev_len = length
    # Kraft check: the canonical construction overflows iff lengths invalid.
    if prev_len and code > (1 << prev_len):
        raise ValueError("code lengths violate the Kraft inequality")
    return codes


def encode_pairs(codes: Dict[int, Tuple[int, int]]) -> Dict[int, Tuple[int, int]]:
    """Symbol -> (bit-reversed code, length), precomputed for the writer."""
    return {
        symbol: (_reverse_bits(code, length), length)
        for symbol, (code, length) in codes.items()
    }


def encode_columns(codes: Dict[int, Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
    """``(reversed_codes, lengths)`` indexed by symbol; an absent
    symbol has length 0 (every present code is at least one bit)."""
    size = max(codes, default=-1) + 1
    reversed_codes = np.zeros(size, dtype=np.int64)
    lengths = np.zeros(size, dtype=np.int64)
    for symbol, (reversed_code, length) in encode_pairs(codes).items():
        reversed_codes[symbol] = reversed_code
        lengths[symbol] = length
    return reversed_codes, lengths


def deserialize_lengths(
    data: bytes, alphabet_size: int, max_bits: int = DEFAULT_MAX_BITS, pos: int = 0
) -> Tuple[HuffmanTable, int]:
    """Inverse of :func:`serialize_lengths` for the header at ``data[pos:]``;
    returns (table, bytes consumed)."""
    reader = BitReader(data, 8 * pos)
    lengths: Dict[int, int] = {}
    for symbol in range(alphabet_size):
        length = reader.read(4)
        if length:
            lengths[symbol] = length
    reader.align_to_byte()
    if not lengths:
        raise CorruptStreamError("huffman header declares no symbols")
    try:
        table = HuffmanTable.from_lengths(lengths, max_bits=max(max_bits, max(lengths.values())))
    except ValueError as exc:
        raise CorruptStreamError(f"invalid huffman header: {exc}") from None
    return table, reader.byte_position() - pos


def _emit_literal(out: bytearray, data: bytes) -> None:
    pos = 0
    while pos < len(data):
        # A single literal element's length field is 32-bit, but we
        # chunk at 2^24 to keep extra-length bytes to <= 3.
        run = data[pos : pos + (1 << 24)]
        n = len(run) - 1
        if n < 60:
            out.append(n << 2 | _TAG_LITERAL)
        else:
            extra = (n.bit_length() + 7) // 8
            out.append((59 + extra) << 2 | _TAG_LITERAL)
            out.extend(n.to_bytes(extra, "little"))
        out.extend(run)
        pos += len(run)


def emit_elements(stream: TokenStream) -> bytes:
    """Serialize an LZ77 token stream as Snappy literal/copy elements
    (each literal run as one element, up to 2^24 bytes)."""
    out = bytearray()
    stream = split_long_copies(stream, _MAX_COPY_LEN)
    for literal, offset, length in stream.sequences():
        if literal:
            _emit_literal(out, literal)
        if 4 <= length <= 11 and offset < 2048:
            out.append(((offset >> 8) & 0x7) << 5 | (length - 4) << 2 | _TAG_COPY1)
            out.append(offset & 0xFF)
        elif offset <= _MAX_COPY2_OFFSET:
            out.append((length - 1) << 2 | _TAG_COPY2)
            out.extend(offset.to_bytes(2, "little"))
        else:
            out.append((length - 1) << 2 | _TAG_COPY4)
            out.extend(offset.to_bytes(4, "little"))
    _emit_literal(out, stream.tail)
    return bytes(out)
