"""Canonical, length-limited Huffman coding (paper §2.1, §5.3, §5.6).

Used as the literals entropy coder of the ZStd-like and Flate-like codecs and
by the hardware Huffman compressor / expander models. Codes are canonical and
length-limited (package-merge), serialized as a compact code-length header —
the same information the hardware "Huff Table Builder" block consumes.

Bitstream convention is DEFLATE-style: codes are emitted LSB-first with their
bits reversed, so a decoder can *peek* a fixed ``max_bits`` window and index a
flat lookup table — exactly the operation the speculative hardware expander
performs per speculation lane (§5.3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.common.bitio import (
    WINDOW64_MAX_WIDTH,
    BitReader,
    BitWriter,
    pack_fields,
    u64_windows,
)
from repro.common.errors import CorruptStreamError
from repro.common.varint import encode_varint

#: Default code-length cap; zstd limits literal codes to 11 bits.
DEFAULT_MAX_BITS = 11


def _reverse_bits(value: int, width: int) -> int:
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


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


@dataclass(frozen=True)
class HuffmanTable:
    """A built Huffman code: canonical codes plus the flat decode table."""

    codes: Dict[int, Tuple[int, int]]
    max_bits: int

    @classmethod
    def from_frequencies(
        cls, frequencies: Dict[int, int], max_bits: int = DEFAULT_MAX_BITS
    ) -> "HuffmanTable":
        lengths = build_code_lengths(frequencies, max_bits)
        return cls.from_lengths(lengths, max_bits)

    @classmethod
    def from_lengths(cls, lengths: Dict[int, int], max_bits: int = DEFAULT_MAX_BITS) -> "HuffmanTable":
        actual_max = max(lengths.values(), default=0)
        if actual_max > max_bits:
            raise ValueError(f"code length {actual_max} exceeds max_bits {max_bits}")
        return cls(codes=canonical_codes(lengths), max_bits=max_bits)

    @property
    def lengths(self) -> Dict[int, int]:
        return {s: l for s, (_, l) in self.codes.items()}

    def decode_table(self) -> List[Tuple[int, int]]:
        """Flat table of size 2^max_bits mapping peeked bits -> (sym, len).

        Entries left as ``(-1, 0)`` are invalid codes. This is the structure
        the hardware table reader indexes per speculation lane.
        """
        table: List[Tuple[int, int]] = [(-1, 0)] * (1 << self.max_bits)
        for symbol, (code, length) in self.codes.items():
            reversed_code = _reverse_bits(code, length)
            step = 1 << length
            for index in range(reversed_code, 1 << self.max_bits, step):
                table[index] = (symbol, length)
        return table

    def encoded_bit_length(self, frequencies: Dict[int, int]) -> int:
        """Total bits this table needs for the given symbol counts."""
        return sum(self.codes[s][1] * f for s, f in frequencies.items() if f)

    @cached_property
    def _decode_arrays(self) -> Tuple[List[int], List[int]]:
        """The flat decode table split into (symbols, lengths) lists.

        Cached per table (``cached_property`` writes the instance ``__dict__``
        directly, which a frozen dataclass permits): streaming decoders decode
        many blocks against one table, and plain-list indexing is the fastest
        per-symbol lookup the interpreter offers.
        """
        flat = self.decode_table()
        return [s for s, _ in flat], [l for _, l in flat]

    @cached_property
    def _encode_pairs(self) -> Dict[int, Tuple[int, int]]:
        """Symbol -> (bit-reversed code, length), precomputed for the writer."""
        return {
            symbol: (_reverse_bits(code, length), length)
            for symbol, (code, length) in self.codes.items()
        }

    @cached_property
    def _encode_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(reversed_codes, lengths)`` indexed by symbol; an absent
        symbol has length 0 (every present code is at least one bit)."""
        size = max(self.codes, default=-1) + 1
        reversed_codes = np.zeros(size, dtype=np.int64)
        lengths = np.zeros(size, dtype=np.int64)
        for symbol, (reversed_code, length) in self._encode_pairs.items():
            reversed_codes[symbol] = reversed_code
            lengths[symbol] = length
        return reversed_codes, lengths


def serialize_lengths(table: HuffmanTable, alphabet_size: int) -> bytes:
    """Serialize code lengths as the table header (4 bits per symbol).

    The hardware "Huff Table Builder" rebuilds the canonical code from this
    header alone. ``alphabet_size`` fixes the number of entries so the reader
    needs no terminator.
    """
    lengths = table.lengths
    if any(l > 15 for l in lengths.values()):
        raise ValueError("serialized code lengths are limited to 15 bits")
    if lengths and max(lengths) >= alphabet_size:
        raise ValueError("symbol outside declared alphabet")
    fields = np.zeros(alphabet_size, dtype=np.int64)
    fields[list(lengths)] = list(lengths.values())
    return pack_fields(fields, np.full(alphabet_size, 4))[0]


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


def encode_symbols(symbols: Sequence[int], table: HuffmanTable) -> bytes:
    """Entropy-code ``symbols`` with ``table`` (LSB-first bitstream): one
    column lookup per symbol, packed at once."""
    with obs.stage("stage.huffman.encode"):
        reversed_codes, lengths = table._encode_columns
        if isinstance(symbols, (bytes, bytearray)):
            symbol_arr = np.frombuffer(symbols, dtype=np.uint8)
        else:
            symbol_arr = np.asarray(symbols, dtype=np.int64)
        known = (symbol_arr >= 0) & (symbol_arr < len(lengths))
        if not known.all() or not lengths[symbol_arr].all():
            missing = next(s for s in symbols if s not in table.codes)
            raise ValueError(f"symbol {missing} not present in table")
        out, _ = pack_fields(reversed_codes[symbol_arr], lengths[symbol_arr])
        obs.counter_add("stage.huffman.encode.symbols", len(symbols))
    return out


def reference_encode_symbols(symbols: Sequence[int], table: HuffmanTable) -> bytes:
    """Per-symbol :class:`BitWriter` encode: the specification
    :func:`encode_symbols` is tested and benchmarked against."""
    writer = BitWriter()
    pairs = table._encode_pairs
    for symbol in symbols:
        try:
            reversed_code, length = pairs[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol} not present in table") from None
        writer.write(reversed_code, length)
    return writer.getvalue()


def decode_symbols(data: bytes, count: int, table: HuffmanTable) -> List[int]:
    """Decode exactly ``count`` symbols from an LSB-first bitstream.

    The serial dependence here (next code position depends on previous code
    length) is precisely what the hardware expander speculates around (§5.3).

    ``count`` comes from an untrusted stream, so it is capped against the
    payload before any symbol is materialized: every huffman code spans at
    least one bit (``build_code_lengths`` assigns 1..max_bits), so a valid
    ``data`` can encode at most ``8 * len(data)`` symbols. Without the cap
    a 20-byte corrupt frame could demand billions of appends.
    """
    if count > 8 * len(data):
        raise CorruptStreamError(
            f"stream of {len(data)} bytes cannot encode {count} symbols"
        )
    with obs.stage("stage.huffman.decode"):
        max_bits = table.max_bits
        if max_bits > WINDOW64_MAX_WIDTH:
            out = _decode_symbols_reader(data, count, table)
            obs.counter_add("stage.huffman.decode.symbols", count)
            return out
        symbols_at, lengths_at = table._decode_arrays
        windows = u64_windows(data).tolist()
        mask = (1 << max_bits) - 1
        total_bits = 8 * len(data)
        out: List[int] = []
        append = out.append
        pos = 0
        for _ in range(count):
            window = (windows[pos >> 3] >> (pos & 7)) & mask
            symbol = symbols_at[window]
            length = lengths_at[window]
            if symbol < 0 or length > total_bits - pos:
                raise CorruptStreamError("invalid huffman code in stream")
            pos += length
            append(symbol)
        obs.counter_add("stage.huffman.decode.symbols", count)
    return out


def _decode_symbols_reader(data: bytes, count: int, table: HuffmanTable) -> List[int]:
    """Reference ``BitReader`` decode loop (fallback for very wide tables)."""
    flat = table.decode_table()
    reader = BitReader(data)
    out: List[int] = []
    max_bits = table.max_bits
    for _ in range(count):
        window = reader.peek_padded(max_bits)
        symbol, length = flat[window]
        if symbol < 0 or length > reader.bits_remaining:
            raise CorruptStreamError("invalid huffman code in stream")
        reader.skip(length)
        out.append(symbol)
    return out


def byte_frequencies(data: bytes) -> Dict[int, int]:
    """Symbol statistics for a byte buffer (the dictionary builder's input)."""
    return dict(Counter(data))


# ---------------------------------------------------------------------------
# Byte-block adapter (the codec-graph ``huffman`` backend stage)
# ---------------------------------------------------------------------------

#: Block mode bytes: raw passthrough vs entropy-coded.
_BLOCK_RAW = 0
_BLOCK_CODED = 1
_BYTE_ALPHABET = 256


def encode_byte_block(data: bytes) -> bytes:
    """Self-delimiting Huffman block over raw bytes.

    Layout: one mode byte (0 raw, 1 coded); coded blocks carry a varint
    symbol count, the 4-bit-per-symbol code-length header, and the
    bitstream. Falls back to raw whenever coding does not shrink the block,
    so output never exceeds ``len(data) + 1`` bytes. This is the same
    table-header-plus-bitstream shape the Flate-like codec's literal section
    uses, factored out for the composable-graph backend.
    """
    if data:
        table = HuffmanTable.from_frequencies(byte_frequencies(data))
        coded = (
            bytes([_BLOCK_CODED])
            + encode_varint(len(data))
            + serialize_lengths(table, _BYTE_ALPHABET)
            + encode_symbols(data, table)
        )
        if len(coded) <= len(data):
            return coded
    return bytes([_BLOCK_RAW]) + data


def decode_byte_block(data: bytes, *, max_count: int = 1 << 26) -> bytes:
    """Inverse of :func:`encode_byte_block`.

    A decode surface: raises :class:`CorruptStreamError` on any block it
    cannot invert. ``max_count`` bounds the declared symbol count so a
    mutated varint cannot demand an implausibly long decode loop.
    """
    from repro.algorithms.container import try_decode_varint

    if not data:
        raise CorruptStreamError("empty huffman block")
    mode = data[0]
    if mode == _BLOCK_RAW:
        return data[1:]
    if mode != _BLOCK_CODED:
        raise CorruptStreamError(f"unknown huffman block mode {mode}")
    decoded = try_decode_varint(data, 1, max_bits=32)
    if decoded is None:
        raise CorruptStreamError("truncated huffman block symbol count")
    count, pos = decoded
    if count > max_count:
        raise CorruptStreamError(
            f"huffman block declares {count} symbols (limit {max_count})"
        )
    header = data[pos:]
    if len(header) < _BYTE_ALPHABET // 2:
        raise CorruptStreamError("truncated huffman block table header")
    table, consumed = deserialize_lengths(header, _BYTE_ALPHABET)
    payload = header[consumed:]
    if count > 8 * len(payload):
        raise CorruptStreamError("huffman block count exceeds bitstream capacity")
    return bytes(decode_symbols(payload, count, table))
