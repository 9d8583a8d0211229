"""RFC 1951 raw-DEFLATE wire format — the Flate family's interop layer.

The :mod:`repro.algorithms.flate` codec is *structurally* DEFLATE (LZ77 +
canonical Huffman) but serializes into its own container. This module speaks
the real wire format, built from the same shared primitives
(:class:`~repro.algorithms.lz77.Lz77Encoder`, the canonical length-limited
Huffman coder in :mod:`repro.algorithms.huffman`, and the LSB-first
:mod:`repro.common.bitio` streams DEFLATE mandates), so the from-scratch
codec stack can be differentially tested against stdlib ``zlib``:

* :func:`deflate_raw` output must decompress via
  ``zlib.decompress(..., wbits=-15)``;
* :func:`inflate_raw` must decode ``zlib``-produced raw streams at any level
  (stored, fixed-Huffman and dynamic-Huffman blocks).

``tests/algorithms/test_flate_differential.py`` enforces both directions.

:class:`DeflateCodec` wraps the two functions in the standard codec API but
is deliberately **not** registered: raw DEFLATE carries no integrity check
(that is the zlib/gzip containers' job), so it cannot honour the registry's
corruption-detection contract that every registered codec's CRC-32C trailer
provides. It exists for interop and conformance testing.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import Codec, CodecInfo, WeightClass
from repro.algorithms.huffman import HuffmanTable, _reverse_bits, build_code_lengths
from repro.algorithms.lz77 import Lz77Encoder, Lz77Params, TokenStream, copy_match
from repro.common.bitio import BitReader, BitWriter
from repro.common.errors import ConfigError, CorruptStreamError
from repro.common.units import KiB

#: DEFLATE's maximum back-reference distance (and so our matcher window).
MAX_WINDOW = 32 * KiB
#: DEFLATE's maximum match length (lengths 3..258).
MAX_MATCH = 258
#: Stored (BTYPE=00) blocks carry a 16-bit length field.
_MAX_STORED_BLOCK = 65535

#: End-of-block symbol in the literal/length alphabet.
_EOB = 256
#: Alphabet sizes: literal/length codes 0..285 (286/287 reserved), distance
#: codes 0..29, code-length codes 0..18.
_MAX_LITLEN_SYMBOLS = 286
_MAX_DIST_SYMBOLS = 30

#: Length codes 257..285: (base length, extra bits) per RFC 1951 §3.2.5.
_LENGTH_BASES = (
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59,
    67, 83, 99, 115, 131, 163, 195, 227, 258,
)
_LENGTH_EXTRA = (
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
    4, 4, 4, 4, 5, 5, 5, 5, 0,
)

#: Distance codes 0..29: (base distance, extra bits).
_DIST_BASES = (
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385,
    513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
)
_DIST_EXTRA = (
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8,
    9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
)

#: Transmission order of the code-length code lengths (RFC 1951 §3.2.7).
_CL_ORDER = (16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15)

DEFLATE_INFO = CodecInfo(
    name="deflate",
    display_name="DEFLATE (RFC 1951)",
    weight_class=WeightClass.HEAVYWEIGHT,
    has_entropy_coding=True,
    supports_levels=True,
    min_level=1,
    max_level=9,
    default_level=6,
    fixed_window_bytes=MAX_WINDOW,
)


def _level_lz77(level: int) -> Lz77Params:
    """Match-effort ladder, mirroring the Flate codec's level mapping."""
    table_log = min(16, 10 + level // 2 * 2)
    return Lz77Params(
        window_size=MAX_WINDOW,
        hash_table_entries=1 << table_log,
        associativity=max(1, level // 2),
        hash_function="multiplicative",
        max_match_length=MAX_MATCH,
        use_skipping=False,
    )


def _length_code(length: int) -> Tuple[int, int, int]:
    """Map a match length (3..258) to (symbol, extra bits, extra value)."""
    index = bisect_right(_LENGTH_BASES, length) - 1
    return 257 + index, _LENGTH_EXTRA[index], length - _LENGTH_BASES[index]


def _dist_code(dist: int) -> Tuple[int, int, int]:
    """Map a match distance (1..32768) to (symbol, extra bits, extra value)."""
    index = bisect_right(_DIST_BASES, dist) - 1
    return index, _DIST_EXTRA[index], dist - _DIST_BASES[index]


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------


def _symbolize(stream: TokenStream) -> List[Tuple[int, int, int, int, int, int]]:
    """Flatten LZ77 tokens into (litlen sym, bits, val, dist sym, bits, val).

    Literal bytes use a distance symbol of -1 (none). The end-of-block
    symbol is appended by the caller.
    """
    symbols: List[Tuple[int, int, int, int, int, int]] = []
    for literal, offset, length in stream.sequences():
        symbols.extend((byte, 0, 0, -1, 0, 0) for byte in literal)
        symbols.append((*_length_code(length), *_dist_code(offset)))
    symbols.extend((byte, 0, 0, -1, 0, 0) for byte in stream.tail)
    return symbols


def _fixed_litlen_lengths() -> Dict[int, int]:
    lengths = {}
    for sym in range(144):
        lengths[sym] = 8
    for sym in range(144, 256):
        lengths[sym] = 9
    for sym in range(256, 280):
        lengths[sym] = 7
    for sym in range(280, 288):
        lengths[sym] = 8
    return lengths


def _fixed_dist_lengths() -> Dict[int, int]:
    return {sym: 5 for sym in range(32)}


def _write_symbols(
    writer: BitWriter,
    symbols: Sequence[Tuple[int, int, int, int, int, int]],
    litlen: Dict[int, Tuple[int, int]],
    dist: Dict[int, Tuple[int, int]],
) -> None:
    """Emit the block body: Huffman codes MSB-first, extra bits LSB-first."""
    for lsym, lbits, lval, dsym, dbits, dval in symbols:
        code, length = litlen[lsym]
        writer.write(_reverse_bits(code, length), length)
        if lbits:
            writer.write(lval, lbits)
        if dsym >= 0:
            code, length = dist[dsym]
            writer.write(_reverse_bits(code, length), length)
            if dbits:
                writer.write(dval, dbits)
    code, length = litlen[_EOB]
    writer.write(_reverse_bits(code, length), length)


def _rle_code_lengths(lengths: Sequence[int]) -> List[Tuple[int, int, int]]:
    """RFC 1951 §3.2.7 run-length coding of a code-length sequence.

    Returns (code-length symbol, extra bits, extra value) triples using
    16 (repeat previous 3-6), 17 (zeros 3-10) and 18 (zeros 11-138).
    """
    out: List[Tuple[int, int, int]] = []
    i = 0
    n = len(lengths)
    while i < n:
        value = lengths[i]
        run = 1
        while i + run < n and lengths[i + run] == value:
            run += 1
        if value == 0:
            remaining = run
            while remaining >= 11:
                take = min(138, remaining)
                out.append((18, 7, take - 11))
                remaining -= take
            if remaining >= 3:
                out.append((17, 3, remaining - 3))
                remaining = 0
            out.extend((0, 0, 0) for _ in range(remaining))
        else:
            out.append((value, 0, 0))
            remaining = run - 1
            while remaining >= 3:
                take = min(6, remaining)
                out.append((16, 2, take - 3))
                remaining -= take
            out.extend((value, 0, 0) for _ in range(remaining))
        i += run
    return out


def _dynamic_block(
    symbols: Sequence[Tuple[int, int, int, int, int, int]], final: bool
) -> Optional[bytes]:
    """Encode one dynamic-Huffman (BTYPE=10) block, or None when the symbol
    statistics cannot form a complete literal/length code (inflaters reject
    incomplete litlen codes, so single-symbol cases fall back to fixed)."""
    litlen_freqs: Dict[int, int] = {_EOB: 1}
    dist_freqs: Dict[int, int] = {}
    for lsym, _, _, dsym, _, _ in symbols:
        litlen_freqs[lsym] = litlen_freqs.get(lsym, 0) + 1
        if dsym >= 0:
            dist_freqs[dsym] = dist_freqs.get(dsym, 0) + 1
    if len(litlen_freqs) < 2:
        return None
    litlen_lengths = build_code_lengths(litlen_freqs, max_bits=15)
    # "One distance code of zero bits means there are no distance codes"
    # (§3.2.7): an all-literal block still transmits HDIST=1 with length 0.
    dist_lengths = build_code_lengths(dist_freqs, max_bits=15) if dist_freqs else {}

    hlit = max(257, max(litlen_lengths) + 1)
    hdist = max(1, max(dist_lengths) + 1 if dist_lengths else 1)
    combined = [litlen_lengths.get(sym, 0) for sym in range(hlit)]
    combined += [dist_lengths.get(sym, 0) for sym in range(hdist)]
    rle = _rle_code_lengths(combined)

    cl_freqs: Dict[int, int] = {}
    for sym, _, _ in rle:
        cl_freqs[sym] = cl_freqs.get(sym, 0) + 1
    cl_lengths = build_code_lengths(cl_freqs, max_bits=7)
    if len(cl_lengths) == 1:
        # A one-symbol code-length code would itself be incomplete; pad with
        # a second, unused symbol so both get a 1-bit code.
        only = next(iter(cl_lengths))
        cl_lengths = build_code_lengths({only: 1, (0 if only else 18): 1}, max_bits=7)
    hclen = max(
        4, max(index for index, sym in enumerate(_CL_ORDER) if sym in cl_lengths) + 1
    )

    writer = BitWriter()
    writer.write(1 if final else 0, 1)
    writer.write(2, 2)  # BTYPE=10: dynamic Huffman
    writer.write(hlit - 257, 5)
    writer.write(hdist - 1, 5)
    writer.write(hclen - 4, 4)
    for index in range(hclen):
        writer.write(cl_lengths.get(_CL_ORDER[index], 0), 3)
    cl_codes = HuffmanTable.from_lengths(cl_lengths, max_bits=7).codes
    for sym, bits, val in rle:
        code, length = cl_codes[sym]
        writer.write(_reverse_bits(code, length), length)
        if bits:
            writer.write(val, bits)

    litlen_codes = HuffmanTable.from_lengths(litlen_lengths, max_bits=15).codes
    dist_codes = (
        HuffmanTable.from_lengths(dist_lengths, max_bits=15).codes if dist_lengths else {}
    )
    _write_symbols(writer, symbols, litlen_codes, dist_codes)
    return writer.getvalue()


def _fixed_block(
    symbols: Sequence[Tuple[int, int, int, int, int, int]], final: bool
) -> bytes:
    """Encode one fixed-Huffman (BTYPE=01) block."""
    writer = BitWriter()
    writer.write(1 if final else 0, 1)
    writer.write(1, 2)  # BTYPE=01: fixed Huffman
    litlen_codes = HuffmanTable.from_lengths(_fixed_litlen_lengths(), max_bits=9).codes
    dist_codes = HuffmanTable.from_lengths(_fixed_dist_lengths(), max_bits=5).codes
    _write_symbols(writer, symbols, litlen_codes, dist_codes)
    return writer.getvalue()


def _stored_blocks(data: bytes, final: bool) -> bytes:
    """Encode data as stored (BTYPE=00) blocks of at most 65535 bytes."""
    writer = bytearray()
    chunks = [data[i : i + _MAX_STORED_BLOCK] for i in range(0, len(data), _MAX_STORED_BLOCK)]
    if not chunks:
        chunks = [b""]
    for index, chunk in enumerate(chunks):
        last = final and index == len(chunks) - 1
        bits = BitWriter()
        bits.write(1 if last else 0, 1)
        bits.write(0, 2)  # BTYPE=00: stored
        bits.align_to_byte()
        writer += bits.getvalue()
        writer += len(chunk).to_bytes(2, "little")
        writer += (len(chunk) ^ 0xFFFF).to_bytes(2, "little")
        writer += chunk
    return bytes(writer)


def deflate_raw(data: bytes, *, level: Optional[int] = None) -> bytes:
    """Compress to a raw DEFLATE stream (``zlib.decompress(..., wbits=-15)``).

    Emits a single dynamic-Huffman block when that is smallest, else a fixed
    block, else stored blocks — every output is a complete, final stream.
    """
    resolved = DEFLATE_INFO.clamp_level(level)
    tokens = Lz77Encoder(_level_lz77(resolved)).encode(data)
    symbols = _symbolize(tokens)
    candidates = [_fixed_block(symbols, final=True)]
    dynamic = _dynamic_block(symbols, final=True)
    if dynamic is not None:
        candidates.append(dynamic)
    best = min(candidates, key=len)
    stored_size = len(data) + 5 * max(1, -(-len(data) // _MAX_STORED_BLOCK))
    if stored_size < len(best):
        return _stored_blocks(data, final=True)
    return best


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


class _CanonicalDecoder:
    """Flat-table canonical Huffman decoder over an LSB-first bitstream."""

    def __init__(self, lengths: Dict[int, int], kind: str) -> None:
        if not lengths:
            raise CorruptStreamError(f"deflate: empty {kind} code")
        try:
            table = HuffmanTable.from_lengths(lengths, max_bits=max(lengths.values()))
        except ValueError as exc:
            raise CorruptStreamError(f"deflate: invalid {kind} code: {exc}") from None
        self._flat = table.decode_table()
        self._max_bits = table.max_bits
        self._kind = kind

    def next(self, reader: BitReader) -> int:
        window = reader.peek_padded(self._max_bits)
        symbol, length = self._flat[window]
        if symbol < 0 or length > reader.bits_remaining:
            raise CorruptStreamError(f"deflate: invalid {self._kind} code in stream")
        reader.skip(length)
        return symbol


def _read_dynamic_tables(
    reader: BitReader,
) -> Tuple[_CanonicalDecoder, Optional[_CanonicalDecoder]]:
    """Parse a BTYPE=10 block header into litlen/distance decoders."""
    hlit = reader.read(5) + 257
    hdist = reader.read(5) + 1
    hclen = reader.read(4) + 4
    if hlit > _MAX_LITLEN_SYMBOLS or hdist > _MAX_DIST_SYMBOLS:
        raise CorruptStreamError(f"deflate: header declares {hlit}/{hdist} codes")
    cl_lengths: Dict[int, int] = {}
    for index in range(hclen):
        length = reader.read(3)
        if length:
            cl_lengths[_CL_ORDER[index]] = length
    cl_decoder = _CanonicalDecoder(cl_lengths, "code-length")

    lengths: List[int] = []
    total = hlit + hdist
    while len(lengths) < total:
        symbol = cl_decoder.next(reader)
        if symbol < 16:
            lengths.append(symbol)
        elif symbol == 16:
            if not lengths:
                raise CorruptStreamError("deflate: length repeat with no previous length")
            lengths.extend([lengths[-1]] * (3 + reader.read(2)))
        elif symbol == 17:
            lengths.extend([0] * (3 + reader.read(3)))
        else:
            lengths.extend([0] * (11 + reader.read(7)))
    if len(lengths) != total:
        raise CorruptStreamError("deflate: code-length repeat overruns the header")

    litlen_lengths = {s: l for s, l in enumerate(lengths[:hlit]) if l}
    dist_lengths = {s: l for s, l in enumerate(lengths[hlit:]) if l}
    if _EOB not in litlen_lengths:
        raise CorruptStreamError("deflate: dynamic block lacks an end-of-block code")
    litlen = _CanonicalDecoder(litlen_lengths, "literal/length")
    dist = _CanonicalDecoder(dist_lengths, "distance") if dist_lengths else None
    return litlen, dist


def _inflate_block(
    reader: BitReader,
    litlen: _CanonicalDecoder,
    dist: Optional[_CanonicalDecoder],
    out: bytearray,
) -> None:
    """Decode one Huffman block's symbols into ``out`` until end-of-block."""
    while True:
        symbol = litlen.next(reader)
        if symbol == _EOB:
            return
        if symbol < _EOB:
            out.append(symbol)
            continue
        index = symbol - 257
        if index >= len(_LENGTH_BASES):
            raise CorruptStreamError(f"deflate: reserved length code {symbol}")
        length = _LENGTH_BASES[index] + (
            reader.read(_LENGTH_EXTRA[index]) if _LENGTH_EXTRA[index] else 0
        )
        if dist is None:
            raise CorruptStreamError("deflate: match in a block with no distance code")
        dsym = dist.next(reader)
        if dsym >= len(_DIST_BASES):
            raise CorruptStreamError(f"deflate: reserved distance code {dsym}")
        distance = _DIST_BASES[dsym] + (
            reader.read(_DIST_EXTRA[dsym]) if _DIST_EXTRA[dsym] else 0
        )
        if distance > len(out):
            raise CorruptStreamError(
                f"deflate: distance {distance} reaches before stream start"
            )
        copy_match(out, distance, length)


def inflate_raw(data: bytes) -> bytes:
    """Decompress a raw DEFLATE stream (stored, fixed and dynamic blocks).

    Accepts exactly what ``zlib.compressobj(wbits=-15)`` emits; any
    malformed structure raises :class:`CorruptStreamError`.
    """
    reader = BitReader(data)
    out = bytearray()
    while True:
        final = reader.read(1)
        btype = reader.read(2)
        if btype == 0:
            reader.align_to_byte()
            start = reader.byte_position()
            if start + 4 > len(data):
                raise CorruptStreamError("deflate: truncated stored-block header")
            length = int.from_bytes(data[start : start + 2], "little")
            check = int.from_bytes(data[start + 2 : start + 4], "little")
            if length ^ check != 0xFFFF:
                raise CorruptStreamError("deflate: stored-block length check failed")
            if start + 4 + length > len(data):
                raise CorruptStreamError("deflate: truncated stored block")
            out += data[start + 4 : start + 4 + length]
            reader.skip((4 + length) * 8)
        elif btype == 1:
            litlen = _CanonicalDecoder(_fixed_litlen_lengths(), "literal/length")
            dist = _CanonicalDecoder(_fixed_dist_lengths(), "distance")
            _inflate_block(reader, litlen, dist, out)
        elif btype == 2:
            litlen, dist = _read_dynamic_tables(reader)
            _inflate_block(reader, litlen, dist, out)
        else:
            raise CorruptStreamError("deflate: reserved block type 11")
        if final:
            return bytes(out)


class DeflateCodec(Codec):
    """Raw-DEFLATE codec wrapper (interop/conformance; not registered).

    Raw DEFLATE has no integrity trailer, so it cannot meet the registry's
    corruption-detection contract — use :class:`~repro.algorithms.flate.
    FlateCodec` for the checksummed in-library container.
    """

    info = DEFLATE_INFO

    def _compress_buffer(
        self,
        data: bytes,
        *,
        level: Optional[int] = None,
        window_size: Optional[int] = None,
    ) -> bytes:
        if window_size is not None and window_size > MAX_WINDOW:
            raise ConfigError(
                f"deflate window is at most {MAX_WINDOW} bytes, got {window_size}"
            )
        return deflate_raw(data, level=level)

    def _decompress_buffer(self, data: bytes, *, window_size: Optional[int] = None) -> bytes:
        return inflate_raw(data)
