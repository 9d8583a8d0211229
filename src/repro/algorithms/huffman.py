"""Canonical, length-limited Huffman coding (paper §2.1, §5.3, §5.6).

Used as the literals entropy coder of the ZStd-like and Flate-like codecs and
by the hardware Huffman compressor / expander models. Codes are canonical and
length-limited (package-merge), serialized as a compact code-length header —
the same information the hardware "Huff Table Builder" block consumes.

Bitstream convention is DEFLATE-style: codes are emitted LSB-first with their
bits reversed, so a decoder can *peek* a fixed ``max_bits`` window and index a
flat lookup table — exactly the operation the speculative hardware expander
performs per speculation lane (§5.3).

The encode-side table build (package-merge, canonical codes, the writer's
bit-reversed codes) runs on arrays, with no Python loop per symbol; the
list-based builders it replaced are the oracles in
``tests/algorithms/huffman_reference.py``.
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
    read_fields,
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


def _package_merge(
    frequencies: Dict[int, int], max_bits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(symbols, by_count, lengths)``: the symbols with a positive
    frequency in the order of ``frequencies``, the order that sorts them by
    ``(frequency, symbol)``, and their code lengths in that sorted order
    (see :func:`build_code_lengths`)."""
    count = len(frequencies)
    symbols = np.fromiter(frequencies.keys(), dtype=np.int64, count=count)
    freqs = np.fromiter(frequencies.values(), dtype=np.int64, count=count)
    present = freqs > 0
    if not present.all():
        symbols = symbols[present]
        freqs = freqs[present]
    n = len(symbols)
    if n <= 1:
        return symbols, np.arange(n), np.ones(n, dtype=np.int64)
    if n > (1 << max_bits):
        raise ValueError(f"{n} symbols cannot be coded within {max_bits} bits")

    # An item's key is its count shifted past a flag field, plus its flag:
    # 1 for a leaf, and for a package the sum of its two items' flags (the
    # number of leaves under it, so at least 2 and below 2**shift). One sort
    # then orders a level by count with leaves first on a tie, and a pair's
    # key sum is its package's key. Packages of equal count may sort in
    # either order by their flags; that moves no leaf, and the walk below
    # reads only how many leaves each prefix holds. Row ``l`` holds level
    # ``l``: the leaves, then the packages of level ``l - 1``'s pairs,
    # sorted in place.
    shift = (n * max_bits).bit_length()
    by_count = np.lexsort((symbols, freqs))
    leaf_counts = freqs[by_count]
    if (int(freqs.sum()) * max_bits) >> (62 - shift):
        leaf_counts = leaf_counts.astype(object)  # keys past int64
    levels = np.zeros((max_bits, 2 * n), dtype=leaf_counts.dtype)
    levels[:, :n] = (leaf_counts << shift) + 1
    size = n
    for level, merged in enumerate(levels):
        merged[:size].sort()
        if level + 1 == max_bits:
            break
        pairs = size // 2
        np.add(merged[0 : 2 * pairs : 2], merged[1 : 2 * pairs : 2], out=levels[level + 1, n : n + pairs])
        size = n + pairs
    # Walk back down: each level's selected prefix holds some leaves, and
    # its packages select twice their number of items one level down.
    leaves_before = np.cumsum((levels & ((1 << shift) - 1)) == 1, axis=1)
    selected = []
    take = 2 * (n - 1)
    for leaves_in_prefix in leaves_before[::-1]:
        if not take:
            break
        leaves = int(leaves_in_prefix[take - 1])
        selected.append(leaves)
        take = 2 * (take - leaves)
    # A leaf's length is the number of levels that select it: every level
    # selecting more than i leaves. The levels' leaf counts, in ascending
    # order, end the runs of leaves with one length fewer.
    run_ends = sorted(selected)
    runs = [end - start for start, end in zip([0, *run_ends], run_ends)]
    return symbols, by_count, np.repeat(np.arange(len(runs), 0, -1), runs)


def build_code_lengths(frequencies: Dict[int, int], max_bits: int = DEFAULT_MAX_BITS) -> Dict[int, int]:
    """Compute length-limited Huffman code lengths via package-merge.

    Returns a mapping from symbol to code length (1..max_bits), in the
    order of ``frequencies``. Symbols with zero frequency are omitted. A
    single-symbol alphabet gets length 1.

    Package-merge runs on the counts alone, one sorted array per level. The
    leaves are the symbols sorted by ``(frequency, symbol)``. Each of the
    ``max_bits`` levels is one sort of the leaf counts merged with the
    previous level's package counts, leaves first on a tie (the order of a
    stable merge); adjacent pairs of a level's items form the next level's
    packages. The top level selects its first ``2(n-1)`` items. Every level
    is sorted, and the merge keeps the leaves' and the packages' own orders,
    so the items a level selects are a prefix of it: its leaves are a
    prefix of the sorted symbols, and its ``p`` packages select the first
    ``2p`` items one level down. Walking the levels back down therefore
    needs only each level's count of leaves in a prefix, and a symbol's
    length is the number of levels whose selected leaf prefix contains it.
    """
    symbols, by_count, sorted_lengths = _package_merge(frequencies, max_bits)
    lengths = np.empty(len(symbols), dtype=np.int64)
    lengths[by_count] = sorted_lengths
    return dict(zip(symbols.tolist(), lengths.tolist()))


def _canonical_columns(
    symbols: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(symbols, codes, lengths)`` in canonical ``(length, symbol)`` order.

    Left-aligned to the longest length ``M``, each code is the sum of the
    earlier codes' ``2**(M - length)`` weights; the Kraft inequality holds
    iff all of them sum to at most ``2**M``.
    """
    order = np.lexsort((symbols, lengths))
    symbols = symbols[order]
    lengths = lengths[order]
    if not len(order):
        return symbols, lengths, lengths
    if lengths[0] <= 0:
        raise ValueError(f"symbol {int(symbols[0])} has non-positive length {int(lengths[0])}")
    longest = int(lengths[-1])
    # Python ints past a 62-bit weight, so the sum cannot wrap.
    dtype = np.uint64 if longest <= 62 else object
    shifts = (longest - lengths).astype(dtype)
    weights = np.left_shift(1, shifts)
    ends = np.cumsum(weights)
    if ends[-1] > (1 << longest):
        raise ValueError("code lengths violate the Kraft inequality")
    return symbols, (ends - weights) >> shifts, lengths


def _length_columns(lengths: Dict[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    count = len(lengths)
    return (
        np.fromiter(lengths.keys(), dtype=np.int64, count=count),
        np.fromiter(lengths.values(), dtype=np.int64, count=count),
    )


def canonical_codes(lengths: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
    """Assign canonical (code, length) pairs from code lengths.

    Shorter codes come first; ties broken by symbol value — the canonical
    ordering any decoder can reconstruct from lengths alone.
    """
    return _code_map(*_canonical_columns(*_length_columns(lengths)))


def _code_map(
    symbols: np.ndarray, codes: np.ndarray, lengths: np.ndarray
) -> Dict[int, Tuple[int, int]]:
    return dict(zip(symbols.tolist(), zip(codes.tolist(), lengths.tolist())))


def _reverse_codes(codes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each code's bits reversed within its own length (at most 64 bits).

    The codes' little-endian 64-bit words are unpacked LSB-first and packed
    back MSB-first, which reverses every word at once; a right shift then
    drops the bits below each code's length."""
    words = codes.astype("<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(words, axis=1, bitorder="little")
    reversed_words = np.packbits(bits, axis=1, bitorder="big").view(">u8")[:, 0]
    return (reversed_words >> (64 - lengths).astype(np.uint64)).astype(np.int64)


@dataclass(frozen=True, eq=False)
class HuffmanTable:
    """A built Huffman code: canonical codes plus the flat decode table.

    Held as three columns in canonical ``(length, symbol)`` order, which the
    encoder reads directly; the ``codes`` mapping is built on first use.
    """

    symbols: np.ndarray
    code_words: np.ndarray
    code_lengths: np.ndarray
    max_bits: int

    @classmethod
    def from_frequencies(
        cls, frequencies: Dict[int, int], max_bits: int = DEFAULT_MAX_BITS
    ) -> "HuffmanTable":
        symbols, by_count, lengths = _package_merge(frequencies, max_bits)
        return cls(*_canonical_columns(symbols[by_count], lengths), max_bits=max_bits)

    @classmethod
    def from_lengths(cls, lengths: Dict[int, int], max_bits: int = DEFAULT_MAX_BITS) -> "HuffmanTable":
        actual_max = max(lengths.values(), default=0)
        if actual_max > max_bits:
            raise ValueError(f"code length {actual_max} exceeds max_bits {max_bits}")
        return cls(*_canonical_columns(*_length_columns(lengths)), max_bits=max_bits)

    @cached_property
    def codes(self) -> Dict[int, Tuple[int, int]]:
        """Symbol -> (canonical code, length), in canonical order."""
        return _code_map(self.symbols, self.code_words, self.code_lengths)

    @property
    def lengths(self) -> Dict[int, int]:
        return dict(zip(self.symbols.tolist(), self.code_lengths.tolist()))

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
        reversed_codes = _reverse_codes(self.code_words, self.code_lengths).tolist()
        return dict(zip(self.symbols.tolist(), zip(reversed_codes, self.code_lengths.tolist())))

    @cached_property
    def _encode_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(reversed_codes, lengths)`` indexed by symbol; an absent
        symbol has length 0 (every present code is at least one bit)."""
        symbols = self.symbols
        size = int(symbols.max()) + 1 if len(symbols) else 0
        reversed_codes = np.zeros(size, dtype=np.int64)
        lengths = np.zeros(size, dtype=np.int64)
        reversed_codes[symbols] = _reverse_codes(self.code_words, self.code_lengths)
        lengths[symbols] = self.code_lengths
        return reversed_codes, lengths


def serialize_lengths(table: HuffmanTable, alphabet_size: int) -> bytes:
    """Serialize code lengths as the table header (4 bits per symbol).

    The hardware "Huff Table Builder" rebuilds the canonical code from this
    header alone. ``alphabet_size`` fixes the number of entries so the reader
    needs no terminator.
    """
    symbols = table.symbols
    if len(symbols) and table.code_lengths.max() > 15:
        raise ValueError("serialized code lengths are limited to 15 bits")
    if len(symbols) and symbols.max() >= alphabet_size:
        raise ValueError("symbol outside declared alphabet")
    fields = np.zeros(alphabet_size, dtype=np.int64)
    fields[symbols] = table.code_lengths
    return pack_fields(fields, np.full(alphabet_size, 4))[0]


def deserialize_lengths(
    data: bytes, alphabet_size: int, max_bits: int = DEFAULT_MAX_BITS, pos: int = 0
) -> Tuple[HuffmanTable, int]:
    """Inverse of :func:`serialize_lengths` for the header at ``data[pos:]``;
    returns (table, bytes consumed). The whole header is one
    :func:`read_fields` gather, the mirror of ``serialize_lengths``'
    :func:`pack_fields`; a short header raises the underflow the per-field
    reader would."""
    header_bytes = (4 * alphabet_size + 7) // 8
    fields, error = read_fields(data[pos : pos + header_bytes], np.full(alphabet_size, 4))
    if error is not None:
        raise error
    symbols = np.flatnonzero(fields)
    if not len(symbols):
        raise CorruptStreamError("huffman header declares no symbols")
    lengths = fields[symbols].astype(np.int64)
    try:
        table = HuffmanTable(*_canonical_columns(symbols, lengths), max_bits=max(max_bits, int(lengths.max())))
    except ValueError as exc:
        raise CorruptStreamError(f"invalid huffman header: {exc}") from None
    return table, header_bytes


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
