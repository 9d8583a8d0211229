"""A Flate-like heavyweight codec: LZ77 + Huffman only (paper §2.2).

Structurally DEFLATE (refs [7, 34]): dictionary coding plus Huffman entropy
coding of both literals and sequence codes, with compression levels and a
32 KiB default window. No FSE stage — which is exactly the delta the paper
highlights in §3.4 ("transitioning from Flate to ZStd would mostly entail
adding an FSE module"); this codec and :class:`repro.algorithms.zstd.ZstdCodec`
differ only in their sequence entropy coder.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

from repro.algorithms.base import Codec, CodecInfo, WeightClass
from repro.algorithms.container import (
    FrameSpec,
    append_content_checksum,
    split_content_checksum,
    verify_content_checksum,
)
from repro.algorithms.huffman import (
    HuffmanTable,
    byte_frequencies,
    decode_symbols,
    deserialize_lengths,
    encode_symbols,
    serialize_lengths,
)
from repro.algorithms.lz77 import Lz77Encoder, Lz77Params, TokenStream, execute_sequences
from repro.algorithms.zstd import (
    CODE_ALPHABET,
    decode_code_values,
    encode_code_values,
)
from repro.common.errors import ConfigError, CorruptStreamError
from repro.common.units import KiB, is_power_of_two
from repro.common.varint import decode_varint, encode_varint

MAGIC = b"FLRL"

#: Frame layout: magic, window-log byte, varint content length, one body
#: mode byte (stored/compressed) and the monolithic body, CRC trailer.
FLATE_FRAME = FrameSpec(
    display="Flate-like stream",
    magic=MAGIC,
    has_window_log=True,
    has_length=True,
    length_bits=32,
    has_checksum=True,
)

FLATE_INFO = CodecInfo(
    name="flate",
    display_name="Flate",
    weight_class=WeightClass.HEAVYWEIGHT,
    has_entropy_coding=True,
    supports_levels=True,
    min_level=1,
    max_level=9,
    default_level=6,
    fixed_window_bytes=None,
)

#: zlib-style default window.
DEFAULT_WINDOW = 32 * KiB


def _level_lz77(level: int, window: int) -> Lz77Params:
    table_log = min(16, 10 + level // 2 * 2)
    associativity = max(1, level // 2)
    return Lz77Params(
        window_size=window,
        hash_table_entries=1 << table_log,
        associativity=associativity,
        hash_function="multiplicative",
        use_skipping=False,
    )


def _encode_codes_huffman(codes: List[int]) -> bytes:
    """Huffman-code a sequence-code list (Flate's replacement for FSE)."""
    out = bytearray()
    out += encode_varint(len(codes))
    if not codes:
        return bytes(out)
    table = HuffmanTable.from_frequencies(Counter(codes))
    out += serialize_lengths(table, CODE_ALPHABET)
    payload = encode_symbols(codes, table)
    out += encode_varint(len(payload))
    out += payload
    return bytes(out)


def _decode_codes_huffman(data: bytes, pos: int) -> Tuple[List[int], int]:
    count, pos = decode_varint(data, pos)
    if count == 0:
        return [], pos
    table, consumed = deserialize_lengths(data, CODE_ALPHABET, pos=pos)
    pos += consumed
    payload_len, pos = decode_varint(data, pos)
    if pos + payload_len > len(data):
        raise CorruptStreamError("truncated code payload")
    codes = decode_symbols(data[pos : pos + payload_len], count, table)
    return codes, pos + payload_len


def _encode_literal_section(literals: bytes) -> bytes:
    """Literals section: Huffman (mode 1) when profitable, else raw (mode 0)."""
    freqs = byte_frequencies(literals)
    if len(freqs) > 1 and len(literals) >= 32:
        table = HuffmanTable.from_frequencies(freqs)
        header = serialize_lengths(table, 256)
        payload = encode_symbols(literals, table)
        coded = b"\x01" + encode_varint(len(literals)) + header + encode_varint(len(payload)) + payload
        if len(coded) < len(literals) + 2:
            return coded
    return b"\x00" + encode_varint(len(literals)) + literals


def _decode_literal_section(data: bytes, pos: int) -> Tuple[bytes, int]:
    """Inverse of :func:`_encode_literal_section`: ``(literals, end)``."""
    if pos >= len(data):
        raise CorruptStreamError("truncated literal-mode byte")
    lit_mode = data[pos]
    pos += 1
    lit_count, pos = decode_varint(data, pos)
    if lit_mode == 0:
        if lit_count > len(data) - pos:
            raise CorruptStreamError("truncated raw literals")
        return data[pos : pos + lit_count], pos + lit_count
    if lit_mode == 1:
        table, consumed = deserialize_lengths(data, 256, pos=pos)
        pos += consumed
        payload_len, pos = decode_varint(data, pos)
        if payload_len > len(data) - pos:
            raise CorruptStreamError("truncated literal payload")
        literals = bytes(decode_symbols(data[pos : pos + payload_len], lit_count, table))
        return literals, pos + payload_len
    raise CorruptStreamError(f"unknown literal mode {lit_mode}")


class FlateCodec(Codec):
    """LZ77 + Huffman codec with levels and a configurable window."""

    info = FLATE_INFO

    def tokenize(
        self,
        data: bytes,
        *,
        level: Optional[int] = None,
        window_size: Optional[int] = None,
    ) -> TokenStream:
        resolved = self.info.clamp_level(level)
        window = self.resolve_window(window_size)
        return Lz77Encoder(_level_lz77(resolved, window)).encode(data)

    def resolve_window(self, window_size: Optional[int]) -> int:
        if window_size is None:
            return DEFAULT_WINDOW
        if not is_power_of_two(window_size):
            raise ConfigError(f"window_size must be a power of two, got {window_size}")
        if not 1 << 10 <= window_size <= 1 << 27:
            raise ConfigError(
                f"window_size must be within [1 KiB, 128 MiB], got {window_size}"
            )
        return window_size

    def _compress_buffer(
        self,
        data: bytes,
        *,
        level: Optional[int] = None,
        window_size: Optional[int] = None,
    ) -> bytes:
        window = self.resolve_window(window_size)
        stream = self.tokenize(data, level=level, window_size=window)

        out = bytearray(
            FLATE_FRAME.encode_preamble(
                content_length=len(data), window_log=window.bit_length() - 1
            )
        )

        body = bytearray(_encode_literal_section(stream.literals))
        # Sequences: three Huffman-coded code streams + raw extra bits.
        ll, ml, off, extra, extra_bits = encode_code_values(
            stream.literal_lengths, stream.offsets, stream.match_lengths
        )
        for codes in (ll, ml, off):
            body += _encode_codes_huffman(codes)
        body += encode_varint(extra_bits)
        body += extra
        body += encode_varint(stream.trailing)

        if len(body) >= len(data) + 2:
            out.append(0)  # stored (uncompressed) body
            out += data
        else:
            out.append(1)  # compressed body
            out += body
        return append_content_checksum(bytes(out), data)

    def _decompress_buffer(
        self, data: bytes, *, window_size: Optional[int] = None
    ) -> bytes:
        frame, stored_crc = split_content_checksum(data)
        out = self._decompress_frame(frame)
        verify_content_checksum(out, stored_crc)
        return out

    def _decompress_frame(self, data: bytes) -> bytes:
        preamble, pos = FLATE_FRAME.decode_preamble(data)
        window = preamble.window
        expected = preamble.content_length
        if pos >= len(data):
            raise CorruptStreamError("missing body marker")
        mode = data[pos]
        pos += 1
        if mode == 0:
            body = data[pos:]
            if len(body) != expected:
                raise CorruptStreamError("stored body has wrong length")
            return body
        if mode != 1:
            raise CorruptStreamError(f"unknown body mode {mode}")

        literals, pos = _decode_literal_section(data, pos)
        streams: List[List[int]] = []
        for _ in range(3):
            codes, pos = _decode_codes_huffman(data, pos)
            streams.append(codes)
        extra_bits, pos = decode_varint(data, pos)
        extra_bytes = (extra_bits + 7) // 8
        if extra_bytes > len(data) - pos:
            raise CorruptStreamError("truncated extra-bits stream")
        extra_payload = data[pos : pos + extra_bytes]
        pos += extra_bytes
        trailing, pos = decode_varint(data, pos)

        ll, ml, off = streams
        if not len(ll) == len(ml) == len(off):
            raise CorruptStreamError("sequence streams have mismatched lengths")
        literal_lengths, offsets, match_lengths, underflow = decode_code_values(
            extra_payload, ll, ml, off
        )
        out = bytearray()
        # The sequences whose extra bits were all present execute before an
        # underflow is reported, as in a per-sequence read loop.
        execute_sequences(
            out, literals, literal_lengths, offsets, match_lengths, trailing,
            history_start=0,
            max_offset=window,
            end=expected,
            bad_offset="invalid match offset",
            bad_trailing="trailing literal mismatch",
            wrong_size="decoded length mismatch",
            pending=underflow,
        )
        return bytes(out)
