"""A ZStd-like heavyweight codec: LZ77 + Huffman literals + FSE sequences.

This mirrors the algorithmic structure of Zstandard (paper refs [8, 31]) —
dictionary coding into ``(literal_length, offset, match_length)`` sequences,
Huffman-coded literals, FSE-coded sequence codes with raw extra bits, framed
into independent blocks over a configurable history window with compression
levels — without reproducing the full RFC 8878 container bit-for-bit. Every
component the paper's ZStd CDPU contains (Fig. 9/10) has a counterpart here:

* ``SeqToCodeConverter`` → :func:`value_to_code` / :func:`code_to_value`,
* Huffman dict builder/encoder → :mod:`repro.algorithms.huffman`,
* three FSE dictionary builders (litlen/matchlen/offset) + encoder →
  :class:`SequenceCoder`,
* LZ77 hash matcher → :class:`repro.algorithms.lz77.Lz77Encoder`.

The container guarantees ratio >= ~1 by falling back to raw blocks, and the
decoder validates every length so corrupt inputs raise
:class:`~repro.common.errors.CorruptStreamError`. One block reader
(:func:`_try_decode_block`) decodes the block grammar for the streaming
context (``decompress`` is one feed of it) and for the whole-frame loop
that the dictionary codec (:mod:`repro.algorithms.zstd_dict`) and
:func:`decode_with_stats`, the hardware model's view of a frame, share.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.algorithms.base import Codec, CodecInfo, WeightClass
from repro.algorithms.fse import FseTable
from repro.algorithms.huffman import (
    HuffmanTable,
    byte_frequencies,
    decode_symbols,
    deserialize_lengths,
    encode_symbols,
    serialize_lengths,
)
from repro.algorithms.lz77 import (
    Lz77Encoder,
    Lz77Params,
    TokenStream,
    TokenStreamBuilder,
    execute_sequences,
)
from repro.algorithms.container import (
    CHECKSUM_BYTES,
    FramePreamble,
    FrameSpec,
    append_content_checksum,
    split_content_checksum,
    try_decode_varint,
    verify_content_checksum,
    verify_running_checksum,
)
from repro.algorithms.streaming import (
    CompressContext,
    DecompressContext,
)
from repro.common.bitio import pack_fields, read_fields
from repro.common.crc32c import crc32c
from repro.common.errors import ConfigError, CorruptStreamError
from repro.common.units import KiB, MiB, is_power_of_two
from repro.common.varint import decode_varint, encode_varint

MAGIC = b"ZSRL"
#: Version 2 added the CRC-32C content trailer (see algorithms.container).
FORMAT_VERSION = 2

#: zstd's real level range (§3.3.2: "levels from negative infinity to 22").
MIN_LEVEL = -7
MAX_LEVEL = 22
DEFAULT_LEVEL = 3

#: Block granularity, as in zstd.
BLOCK_SIZE = 128 * KiB

#: Sequence-code alphabet: code 0 encodes value 0 (litlen/matchlen only);
#: code k encodes values [2**(k-1), 2**k) with k-1 raw extra bits.
CODE_ALPHABET = 40

_BLOCK_RAW = 0
_BLOCK_RLE = 1
_BLOCK_COMPRESSED = 2

_LITERALS_RAW = 0
_LITERALS_HUFFMAN = 1

#: Frame layout: magic, version byte, window-log byte, varint content
#: length, self-terminating block sequence (last-block flag), CRC trailer.
ZSTD_FRAME = FrameSpec(
    display="ZStd-like frame",
    magic=MAGIC,
    version=FORMAT_VERSION,
    has_window_log=True,
    has_length=True,
    length_bits=32,
    has_checksum=True,
)

ZSTD_INFO = CodecInfo(
    name="zstd",
    display_name="ZStd",
    weight_class=WeightClass.HEAVYWEIGHT,
    has_entropy_coding=True,
    supports_levels=True,
    min_level=MIN_LEVEL,
    max_level=MAX_LEVEL,
    default_level=DEFAULT_LEVEL,
    fixed_window_bytes=None,
)


def value_to_code(value: int) -> Tuple[int, int, int]:
    """Convert a sequence value to (code, extra_bits_width, extra_bits_value).

    The hardware ``SeqToCodeConverter`` (§5.7) performs this combinationally.
    """
    if value < 0:
        raise ValueError(f"sequence values are non-negative, got {value}")
    if value == 0:
        return 0, 0, 0
    code = value.bit_length()
    base = 1 << (code - 1)
    return code, code - 1, value - base


def code_to_value(code: int, extra_bits_value: int) -> int:
    """Inverse of :func:`value_to_code`."""
    if code == 0:
        return 0
    return (1 << (code - 1)) + extra_bits_value


def encode_code_values(
    literal_lengths: Sequence[int], offsets: Sequence[int], match_lengths: Sequence[int]
) -> Tuple[List[int], List[int], List[int], bytes, int]:
    """SeqToCode conversion of sequence columns: ``(ll_codes, ml_codes,
    off_codes, extra, extra_bits)``, the extra bits packed per sequence in
    ``(ll, ml, off)`` order — one :func:`value_to_code` per field,
    vectorized."""
    values = np.array([literal_lengths, match_lengths, offsets], dtype=np.int64).T.reshape(-1)
    if values.size and int(values.min()) < 0:
        value_to_code(int(values[np.argmax(values < 0)]))  # raises, as the reference would
    # frexp's exponent is the bit length of an integer-valued float; above
    # 2**53 the float may round up to the next power of two, one too long.
    codes = np.frexp(values.astype(np.float64))[1].astype(np.int64)
    codes -= (codes > 0) & ((values >> np.maximum(codes - 1, 0)) == 0)
    widths = np.maximum(codes - 1, 0)
    extra, extra_bits = pack_fields(values - ((codes > 0) << widths), widths)
    code_list = codes.tolist()
    return code_list[0::3], code_list[1::3], code_list[2::3], extra, extra_bits


def decode_code_values(
    payload: bytes, ll_codes: Sequence[int], ml_codes: Sequence[int], off_codes: Sequence[int]
) -> Tuple[List[int], List[int], List[int], Optional[CorruptStreamError]]:
    """Inverse of :func:`encode_code_values`: ``(literal_lengths, offsets,
    match_lengths, error)``, every extra-bits field in one windowed gather.

    On underflow, ``error`` is what the per-field reader would have raised
    and ``offsets`` holds exactly the sequences decoded before it.
    """
    codes = np.array([ll_codes, ml_codes, off_codes], dtype=np.uint64).T.ravel()
    widths = np.maximum(codes, np.uint64(1)) - np.uint64(1)
    extra, error = read_fields(payload, widths)
    values = ((np.minimum(codes, np.uint64(1)) << widths)[: len(extra)] + extra).tolist()
    return values[0::3], values[2::3], values[1::3], error


@dataclass(frozen=True)
class LevelParams:
    """Matcher/entropy effort for one compression level (§2.2, §3.3.2)."""

    hash_table_log: int
    associativity: int
    default_window: int
    accuracy_log: int
    #: One-step lazy parsing, enabled from level 3 up (zstd's dfast/greedy
    #: split); the hardware encoder stays greedy (§6.5).
    lazy: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.hash_table_log <= 24:
            raise ConfigError(f"hash_table_log {self.hash_table_log} outside [1, 24]")
        if self.associativity < 1:
            raise ConfigError(f"associativity must be >= 1, got {self.associativity}")
        if not is_power_of_two(self.default_window) or not (
            1 << 10 <= self.default_window <= 1 << 27
        ):
            raise ConfigError(
                f"default_window {self.default_window} must be a power of two "
                "in [2^10, 2^27] (the container's window-log range)"
            )
        if not 5 <= self.accuracy_log <= 12:
            raise ConfigError(f"accuracy_log {self.accuracy_log} outside [5, 12]")

    def lz77_params(self, window_size: int) -> Lz77Params:
        return Lz77Params(
            window_size=window_size,
            hash_table_entries=1 << self.hash_table_log,
            associativity=self.associativity,
            hash_table_contents="position",
            hash_function="zstd5",
            use_skipping=False,
            lazy=self.lazy,
        )


#: Effort ladder: more table entries + deeper candidate search + larger
#: default windows as the level rises; mirrors zstd's cLevel tables in shape.
_LEVEL_LADDER: List[Tuple[int, LevelParams]] = [
    (-7, LevelParams(hash_table_log=10, associativity=1, default_window=64 * KiB, accuracy_log=7)),
    (-1, LevelParams(hash_table_log=11, associativity=1, default_window=64 * KiB, accuracy_log=8)),
    (1, LevelParams(hash_table_log=12, associativity=1, default_window=128 * KiB, accuracy_log=8)),
    (3, LevelParams(hash_table_log=14, associativity=2, default_window=256 * KiB, accuracy_log=9, lazy=True)),
    (5, LevelParams(hash_table_log=15, associativity=4, default_window=512 * KiB, accuracy_log=9, lazy=True)),
    (7, LevelParams(hash_table_log=16, associativity=6, default_window=1 * MiB, accuracy_log=9, lazy=True)),
    (9, LevelParams(hash_table_log=16, associativity=8, default_window=2 * MiB, accuracy_log=10, lazy=True)),
    (12, LevelParams(hash_table_log=17, associativity=12, default_window=4 * MiB, accuracy_log=10, lazy=True)),
    (16, LevelParams(hash_table_log=17, associativity=20, default_window=8 * MiB, accuracy_log=11, lazy=True)),
    (19, LevelParams(hash_table_log=18, associativity=32, default_window=8 * MiB, accuracy_log=11, lazy=True)),
    (22, LevelParams(hash_table_log=18, associativity=48, default_window=16 * MiB, accuracy_log=11, lazy=True)),
]


def level_params(level: int) -> LevelParams:
    """Resolve a (clamped) compression level to its effort parameters."""
    level = max(MIN_LEVEL, min(MAX_LEVEL, level))
    chosen = _LEVEL_LADDER[0][1]
    for threshold, params in _LEVEL_LADDER:
        if level >= threshold:
            chosen = params
    return chosen


class SequenceCoder:
    """FSE coding of sequence triples: three tables + one extra-bits stream.

    Mirrors the hardware FSE compressor (§5.7): three dictionary builders
    (literal length, match length, offset) feeding one encoder, with the
    SeqToCode conversion in front.
    """

    def __init__(self, accuracy_log: int) -> None:
        self.accuracy_log = accuracy_log

    def encode(
        self, literal_lengths: Sequence[int], offsets: Sequence[int], match_lengths: Sequence[int]
    ) -> bytes:
        ll_codes, ml_codes, off_codes, extra, extra_bits = encode_code_values(
            literal_lengths, offsets, match_lengths
        )
        out = bytearray()
        out += encode_varint(len(offsets))
        if not offsets:
            return bytes(out)
        for codes in (ll_codes, ml_codes, off_codes):
            counts = Counter(codes)
            table = FseTable.from_frequencies(
                {c: counts[c] for c in set(codes)}, self.accuracy_log
            )
            payload, state, _bits = table.encode(codes)
            alphabet = max(codes) + 1
            out += bytes([self.accuracy_log, alphabet])
            out += table.serialize_counts(alphabet)
            out += state.to_bytes(2, "little")
            out += encode_varint(len(payload))
            out += payload
        out += encode_varint(extra_bits)
        out += extra
        return bytes(out)

    @staticmethod
    def decode_columns(
        data: bytes, pos: int
    ) -> Tuple[List[int], List[int], List[int], List[int], int]:
        """The sequence section as ``(literal_lengths, offsets,
        match_lengths, accuracy_logs, end)``: the columns execution
        consumes, and the accuracy log of each FSE table it built."""
        num_sequences, pos = decode_varint(data, pos)
        if num_sequences == 0:
            return [], [], [], [], pos
        # A zero-bit FSE state decodes a symbol without reading input, so
        # the count itself must be bounded: no block holds more sequences
        # than bytes.
        if num_sequences > BLOCK_SIZE:
            raise CorruptStreamError(f"sequence count {num_sequences} exceeds block limit")
        streams: List[List[int]] = []
        accuracy_logs: List[int] = []
        for _ in range(3):
            if pos >= len(data):
                raise CorruptStreamError("truncated sequence section")
            if pos + 2 > len(data):
                raise CorruptStreamError("truncated sequence table header")
            acc_log = data[pos]
            alphabet = data[pos + 1]
            pos += 2
            if not 5 <= acc_log <= 12:
                raise CorruptStreamError(f"invalid FSE accuracy log {acc_log}")
            if not 1 <= alphabet <= CODE_ALPHABET:
                raise CorruptStreamError(f"invalid sequence-code alphabet {alphabet}")
            # Decoded codes are symbols of this table, hence < alphabet.
            table, consumed = FseTable.deserialize_counts(data, alphabet, acc_log, pos)
            pos += consumed
            if pos + 2 > len(data):
                raise CorruptStreamError("truncated FSE state")
            state = int.from_bytes(data[pos : pos + 2], "little")
            pos += 2
            payload_len, pos = decode_varint(data, pos)
            if pos + payload_len > len(data):
                raise CorruptStreamError("truncated FSE payload")
            payload = data[pos : pos + payload_len]
            pos += payload_len
            streams.append(table.decode(payload, state, num_sequences))
            accuracy_logs.append(acc_log)
        extra_bits, pos = decode_varint(data, pos)
        extra_bytes = (extra_bits + 7) // 8
        if pos + extra_bytes > len(data):
            raise CorruptStreamError("truncated extra-bits stream")
        extra_payload = data[pos : pos + extra_bytes]
        pos += extra_bytes
        ll_codes, ml_codes, off_codes = streams
        if not len(ll_codes) == len(ml_codes) == len(off_codes) == num_sequences:
            raise CorruptStreamError("sequence streams have mismatched lengths")
        literal_lengths, offsets, match_lengths, error = decode_code_values(
            extra_payload, ll_codes, ml_codes, off_codes
        )
        # Offset code 0 decodes to offset 0; it is caught in sequence order,
        # ahead of an extra-bits underflow in a later sequence.
        if 0 in off_codes[: len(offsets)]:
            raise CorruptStreamError("sequence offset must be positive")
        if error is not None:
            raise error
        return literal_lengths, offsets, match_lengths, accuracy_logs, pos


def _encode_literals(literals: bytes) -> bytes:
    """Literals section: Huffman when it wins, raw otherwise."""
    if len(literals) >= 32:
        freqs = byte_frequencies(literals)
        if len(freqs) > 1:
            table = HuffmanTable.from_frequencies(freqs)
            header = serialize_lengths(table, 256)
            payload = encode_symbols(literals, table)
            if 1 + len(header) + len(payload) + 5 < len(literals):
                out = bytearray([_LITERALS_HUFFMAN])
                out += encode_varint(len(literals))
                out += header
                out += encode_varint(len(payload))
                out += payload
                return bytes(out)
    return bytes([_LITERALS_RAW]) + encode_varint(len(literals)) + literals


def _encode_block_body(stream: TokenStream, coder: SequenceCoder) -> bytes:
    """A compressed block's body: literals, sequences, trailing-literal count."""
    return (
        _encode_literals(stream.literals)
        + coder.encode(stream.literal_lengths, stream.offsets, stream.match_lengths)
        + encode_varint(stream.trailing)
    )


def _decode_literals(data: bytes, pos: int) -> Tuple[bytes, int]:
    if pos >= len(data):
        raise CorruptStreamError("missing literals section")
    mode = data[pos]
    pos += 1
    count, pos = decode_varint(data, pos)
    if mode == _LITERALS_RAW:
        if pos + count > len(data):
            raise CorruptStreamError("truncated raw literals")
        return data[pos : pos + count], pos + count
    if mode == _LITERALS_HUFFMAN:
        table, consumed = deserialize_lengths(data, 256, pos=pos)
        pos += consumed
        payload_len, pos = decode_varint(data, pos)
        if pos + payload_len > len(data):
            raise CorruptStreamError("truncated huffman literals")
        symbols = decode_symbols(data[pos : pos + payload_len], count, table)
        return bytes(symbols), pos + payload_len
    raise CorruptStreamError(f"unknown literals mode {mode}")


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
    """Aggregate per-frame statistics plus the executed token stream."""

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

    @property
    def max_fse_accuracy_log(self) -> int:
        """The largest FSE table any block builds (9 when none does)."""
        return max((log for b in self.blocks for log in b.fse_accuracy_logs), default=9)


@dataclass
class _FrameSink:
    """What the block decoder executes, block by block: the decode-side
    mirror of the ``tokens`` builder :meth:`ZstdCodec._compress_block`
    feeds."""

    blocks: List[BlockStats] = field(default_factory=list)
    tokens: TokenStreamBuilder = field(default_factory=TokenStreamBuilder)


def _try_decode_block(
    data: bytes,
    pos: int,
    window: int,
    out: bytearray,
    room: int,
    prefix: bytes = b"",
    sink: Optional[_FrameSink] = None,
) -> Optional[Tuple[int, bool]]:
    """Decode the block at ``data[pos:]`` onto ``out``: ``(end, last)``,
    or ``None`` while the block is incomplete.

    The zstd block grammar's one reader, in the manner of
    :func:`~repro.algorithms.snappy.try_parse_element`: the whole-frame
    loop turns ``None`` into a truncation error, the streaming context
    waits for more input. ``room`` is what the frame header still lets the
    frame produce. The size checks run as soon as the header is read, and
    nothing is decoded until the whole block is present.
    """
    if pos >= len(data):
        return None
    tag = data[pos]
    block_type = tag & 0x7F
    parsed = try_decode_varint(data, pos + 1)
    if parsed is None:
        return None
    raw_size, body = parsed
    if block_type == _BLOCK_RAW:
        end = body + raw_size
    elif block_type == _BLOCK_RLE:
        end = body + 1
    elif block_type == _BLOCK_COMPRESSED:
        parsed = try_decode_varint(data, body)
        if parsed is None:
            return None
        body_size, body = parsed
        end = body + body_size
    else:
        raise CorruptStreamError(f"unknown block type {block_type}")
    # The encoder never emits a block beyond BLOCK_SIZE, so a larger
    # declared size is corruption — and waiting for or materialising it
    # would let a two-byte header demand a 2**64 buffer.
    if raw_size > BLOCK_SIZE:
        raise CorruptStreamError(f"block size {raw_size} exceeds block limit")
    if raw_size > room:
        raise CorruptStreamError("frame produced more bytes than declared")
    if end > len(data):
        return None
    if block_type == _BLOCK_RAW:
        out += data[body:end]
        if sink is not None:
            sink.blocks.append(BlockStats("raw", raw_size))
            if raw_size:
                sink.tokens.literal(data[body:end])
    elif block_type == _BLOCK_RLE:
        out += bytes((data[body],)) * raw_size
        if sink is not None:
            sink.blocks.append(BlockStats("rle", raw_size))
            if raw_size:
                sink.tokens.rle(data[body], raw_size)
    else:
        _decode_block(data, body, end, raw_size, window, out, prefix, sink)
    return end, bool(tag & 0x80)


def _decode_block(
    data: bytes,
    pos: int,
    end: int,
    raw_size: int,
    window: int,
    out: bytearray,
    prefix: bytes = b"",
    sink: Optional[_FrameSink] = None,
) -> None:
    """Execute the compressed block body ``data[pos:end]`` onto ``out``.

    A match may reach back to the block's own start, or into ``prefix``:
    the history seeded before it (the dictionary codec's tail, for block 0).
    """
    literals, at = _decode_literals(data, pos)
    literal_lengths, offsets, match_lengths, accuracy_logs, at = SequenceCoder.decode_columns(
        data, at
    )
    trailing, at = decode_varint(data, at)
    if at != end:
        raise CorruptStreamError("compressed block body size mismatch")
    target = bytearray(prefix) if prefix else out
    with obs.stage("stage.lz77.decode"):
        execute_sequences(
            target, literals, literal_lengths, offsets, match_lengths, trailing,
            history_start=len(target) - len(prefix),
            max_offset=window + len(prefix),
            end=len(target) + raw_size,
            bad_offset="match offset {offset} outside window/history",
            bad_trailing="trailing literal count mismatch",
            wrong_size="block decoded to wrong size",
        )
    if prefix:
        out += target[len(prefix) :]
    if sink is not None:
        sink.blocks.append(
            BlockStats(
                "compressed", raw_size, len(literals), data[pos] == _LITERALS_HUFFMAN,
                len(offsets), len(accuracy_logs), accuracy_logs,
            )
        )
        sink.tokens.extend(literals, literal_lengths, offsets, match_lengths, trailing)


def _decode_blocks(
    frame: bytes,
    pos: int,
    preamble: FramePreamble,
    prefix: bytes = b"",
    sink: Optional[_FrameSink] = None,
) -> bytes:
    """The content of the blocks at ``frame[pos:]``, which must end the
    frame: the whole-frame block loop (``prefix`` seeds block 0's
    history)."""
    expected = preamble.content_length
    out = bytearray()
    last = False
    while not last:
        block = _try_decode_block(
            frame, pos, preamble.window, out, expected - len(out), prefix, sink
        )
        if block is None:
            raise CorruptStreamError(
                "truncated block" if pos < len(frame) else "frame missing last block"
            )
        pos, last = block
        prefix = b""
    if pos != len(frame):
        raise CorruptStreamError("data after last block")
    if len(out) != expected:
        raise CorruptStreamError(f"frame produced {len(out)} bytes, header declared {expected}")
    return bytes(out)


class ZstdCodec(Codec):
    """The ZStd-like heavyweight codec with levels and window sizing."""

    info = ZSTD_INFO

    def __init__(
        self,
        *,
        lz77_params: Optional[Lz77Params] = None,
        accuracy_log: Optional[int] = None,
    ) -> None:
        # Optional overrides pin the matcher and FSE table precision (used by
        # the CDPU model when sweeping hardware history / hash-table /
        # accuracy-log parameters).
        self._lz77_override = lz77_params
        self._accuracy_override = accuracy_log

    def _matcher(self, level: int, window_size: int) -> Lz77Encoder:
        if self._lz77_override is not None:
            return Lz77Encoder(self._lz77_override)
        return Lz77Encoder(level_params(level).lz77_params(window_size))

    def _coder(self, level: int) -> SequenceCoder:
        return SequenceCoder(self._accuracy_override or level_params(level).accuracy_log)

    def resolve_window(self, window_size: Optional[int], *, level: int = DEFAULT_LEVEL) -> int:
        if window_size is None:
            return level_params(level).default_window
        if not is_power_of_two(window_size):
            raise ConfigError(f"window_size must be a power of two, got {window_size}")
        if not 1 << 10 <= window_size <= 1 << 27:
            raise ConfigError(
                f"window_size must be within [1 KiB, 128 MiB], got {window_size}"
            )
        return window_size

    def tokenize(
        self,
        data: bytes,
        *,
        level: Optional[int] = None,
        window_size: Optional[int] = None,
    ) -> TokenStream:
        """Dictionary-coding stage only (shared with the HW model)."""
        resolved_level = self.info.clamp_level(level)
        window = self.resolve_window(window_size, level=resolved_level)
        return self._matcher(resolved_level, window).encode(data)

    def compress_context(
        self,
        *,
        level: Optional[int] = None,
        window_size: Optional[int] = None,
    ) -> CompressContext:
        return _ZstdCompressContext(self, level=level, window_size=window_size)

    def decompress_context(
        self, *, window_size: Optional[int] = None
    ) -> DecompressContext:
        return _ZstdDecompressContext(self)

    def compress_with_tokens(
        self, data: bytes, match: Callable[[bytes], TokenStream]
    ) -> Tuple[bytes, TokenStream]:
        """:meth:`compress` at the default level and window, matching each
        block with ``match``, plus the token stream the frame carries: the
        stream the decoder executes, which :func:`analyze_frame` records
        (the hardware model's accounting entry)."""
        level = self.info.clamp_level(None)
        window = self.resolve_window(None, level=level)
        coder = self._coder(level)
        tokens = TokenStreamBuilder()
        out = bytearray(
            ZSTD_FRAME.encode_preamble(
                content_length=len(data), window_log=window.bit_length() - 1
            )
        )

        if not data:
            out.append(_BLOCK_RAW | 0x80)
            out += encode_varint(0)
            return append_content_checksum(bytes(out), data), tokens.build()

        for start in range(0, len(data), BLOCK_SIZE):
            block = data[start : start + BLOCK_SIZE]
            last = start + BLOCK_SIZE >= len(data)
            out += self._compress_block(block, match, coder, last, tokens)
        return append_content_checksum(bytes(out), data), tokens.build()

    def _compress_block(
        self,
        block: bytes,
        match: Callable[[bytes], TokenStream],
        coder: SequenceCoder,
        last: bool,
        tokens: Optional[TokenStreamBuilder] = None,
    ) -> bytes:
        """One framed block. ``tokens``, when given, receives the elements
        the block executes as."""
        last_flag = 0x80 if last else 0
        if len(block) >= 16 and len(set(block)) == 1:
            if tokens is not None:
                tokens.rle(block[0], len(block))
            header = bytearray([_BLOCK_RLE | last_flag])
            header += encode_varint(len(block))
            header.append(block[0])
            return bytes(header)
        # NOTE: blocks are matched independently (offsets never cross a block
        # boundary), which keeps block decode stateless like zstd's default.
        stream = match(block)
        body = _encode_block_body(stream, coder)
        if len(body) + 6 >= len(block):
            if tokens is not None:
                tokens.literal(block)
            header = bytearray([_BLOCK_RAW | last_flag])
            header += encode_varint(len(block))
            return bytes(header) + block
        if tokens is not None:
            tokens.extend(
                stream.literals, stream.literal_lengths, stream.offsets,
                stream.match_lengths, stream.trailing,
            )
        header = bytearray([_BLOCK_COMPRESSED | last_flag])
        header += encode_varint(len(block))
        header += encode_varint(len(body))
        return bytes(header) + bytes(body)


def decode_with_stats(data: bytes) -> Tuple[bytes, FrameStats]:
    """Decode a ZStd-like frame: ``(content, stats)``, where the stats are
    what its blocks executed.

    This is the block decoder run with a sink, so it accepts and rejects
    exactly what :meth:`ZstdCodec.decompress` does. The token stream's
    offsets are frame-relative: blocks are matched independently, so
    every offset stays within its block.
    """
    frame, stored_crc = split_content_checksum(data)
    preamble, pos = ZSTD_FRAME.decode_preamble(frame)
    sink = _FrameSink()
    content = _decode_blocks(frame, pos, preamble, sink=sink)
    verify_content_checksum(content, stored_crc)
    return content, FrameStats(
        window_log=preamble.window_log,
        content_bytes=len(content),
        compressed_bytes=len(data),
        blocks=sink.blocks,
        tokens=sink.tokens.build(),
    )


def analyze_frame(data: bytes) -> FrameStats:
    """What a ZStd-like frame's blocks executed: the hardware
    decompressor's workload (the DSE's Figure 14 input), from
    :func:`decode_with_stats`."""
    return decode_with_stats(data)[1]


class _ZstdCompressContext(CompressContext):
    """Block-at-a-time ZStd compressor.

    Input buffering is bounded: every full block beyond ``BLOCK_SIZE`` is
    matched and entropy-coded as soon as it arrives (one block is held back
    so the last-block flag lands exactly where the one-shot path puts it).
    The frame *header* carries the total content length, so the compressed
    block bytes accumulate internally until flush — output, not window
    history, is what this context cannot bound.
    """

    bounded = False

    def __init__(
        self,
        codec: "ZstdCodec",
        *,
        level: Optional[int] = None,
        window_size: Optional[int] = None,
    ) -> None:
        super().__init__(codec)
        self._codec = codec
        level = codec.info.clamp_level(level)
        self._window = codec.resolve_window(window_size, level=level)
        self._match = codec._matcher(level, self._window).encode
        self._coder = codec._coder(level)
        self._input = bytearray()
        self._blocks = bytearray()
        self._total = 0
        self._crc = 0

    @property
    def buffered_bytes(self) -> int:
        return len(self._input) + len(self._blocks)

    def _reset(self) -> None:
        # The matcher and sequence coder are per-block and carry no
        # cross-stream state; keeping them is the point of reuse.
        self._input.clear()
        self._blocks.clear()
        self._total = 0
        self._crc = 0

    def _feed(self, chunk: bytes) -> bytes:
        self._input += chunk
        self._total += len(chunk)
        self._crc = crc32c(chunk, self._crc)
        # Hold one full block back: whether a block is *last* is only known
        # once a byte beyond it arrives (or the stream ends).
        while len(self._input) > BLOCK_SIZE:
            block = bytes(self._input[:BLOCK_SIZE])
            del self._input[:BLOCK_SIZE]
            self._blocks += self._codec._compress_block(
                block, self._match, self._coder, last=False
            )
        return b""

    def _flush(self, end: bool) -> bytes:
        if not end:
            return b""
        out = bytearray(
            ZSTD_FRAME.encode_preamble(
                content_length=self._total,
                window_log=self._window.bit_length() - 1,
            )
        )
        out += self._blocks
        if self._total == 0:
            out.append(_BLOCK_RAW | 0x80)
            out += encode_varint(0)
        else:
            out += self._codec._compress_block(
                bytes(self._input), self._match, self._coder, last=True
            )
        self._input.clear()
        self._blocks.clear()
        return bytes(out) + self._crc.to_bytes(CHECKSUM_BYTES, "little")


class _ZstdDecompressContext(DecompressContext):
    """Block-at-a-time ZStd decompressor with O(block + chunk) buffering.

    Blocks are matched independently (offsets never cross a block boundary,
    see :meth:`ZstdCodec._compress_block`), so each complete block decodes
    through the one-shot path's block reader straight into the output of
    the feed that completes it — no decoded history is retained at all.
    The CRC-32C trailer is verified from a running digest once the
    last-flagged block has been consumed.
    """

    bounded = True

    _PREAMBLE = "preamble"
    _BLOCKS = "blocks"
    _TRAILER = "trailer"
    _DONE = "done"

    def __init__(self, codec: "ZstdCodec") -> None:
        super().__init__(codec)
        self._codec = codec
        self._pending = bytearray()
        self._stage = self._PREAMBLE
        self._window = 0
        self._expected = 0
        self._produced = 0
        self._crc = 0

    @property
    def buffered_bytes(self) -> int:
        return len(self._pending)

    def _reset(self) -> None:
        self._pending.clear()
        self._stage = self._PREAMBLE
        self._window = 0
        self._expected = 0
        self._produced = 0
        self._crc = 0

    def _feed(self, chunk: bytes) -> bytes:
        self._pending += chunk
        return self._drain()

    def _drain(self) -> bytes:
        data = self._pending
        if self._stage == self._PREAMBLE:
            parsed = ZSTD_FRAME.try_decode_preamble(data)
            if parsed is None:
                return b""
            preamble, pos = parsed
            del data[:pos]
            self._window = preamble.window
            self._expected = preamble.content_length
            self._stage = self._BLOCKS
        out = bytearray()
        pos = 0
        while self._stage == self._BLOCKS:
            block = _try_decode_block(
                data, pos, self._window, out, self._expected - self._produced - len(out)
            )
            if block is None:
                break
            pos, last = block
            if last:
                self._stage = self._TRAILER
        del data[:pos]
        if out:
            self._produced += len(out)
            self._crc = crc32c(out, self._crc)
        if self._stage == self._TRAILER and len(data) >= CHECKSUM_BYTES:
            stored = int.from_bytes(data[:CHECKSUM_BYTES], "little")
            del data[:CHECKSUM_BYTES]
            if self._produced != self._expected:
                raise CorruptStreamError(
                    f"frame produced {self._produced} bytes, header declared "
                    f"{self._expected}"
                )
            verify_running_checksum(self._crc, self._produced, stored)
            self._stage = self._DONE
        if self._stage == self._DONE and data:
            raise CorruptStreamError("data after last block")
        return bytes(out)

    def _flush(self, end: bool) -> bytes:
        if not end:
            return b""
        out = self._drain()
        if self._stage != self._DONE:
            raise CorruptStreamError(
                "truncated ZStd-like frame: stream ended "
                f"while reading {self._stage}"
            )
        return out
