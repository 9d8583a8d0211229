"""A Brotli-like heavyweight codec (paper §2.2, refs [1, 19, 20]).

Brotli's distinguishing features over Flate are a *built-in static
dictionary* and richer context modeling. This codec captures the first (and
dominant, for the fleet's short-text payloads) feature: every block is
LZ77-matched against a built-in static dictionary as virtual history, so
common English/web/JSON fragments compress well even in tiny inputs — the
reason Brotli wins on small RPC-ish payloads where ZStd and Flate start cold.
Entropy coding is canonical Huffman for both literals and sequence codes,
as in Flate.

Like the real library: compression levels 0-11, configurable window.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.algorithms.base import Codec, CodecInfo, WeightClass
from repro.algorithms.container import (
    FrameSpec,
    append_content_checksum,
    split_content_checksum,
    verify_content_checksum,
)
from repro.algorithms.flate import (
    _decode_codes_huffman,
    _decode_literal_section,
    _encode_codes_huffman,
    _encode_literal_section,
)
from repro.algorithms.lz77 import Lz77Encoder, Lz77Params, TokenStream, execute_sequences
from repro.algorithms.zstd import decode_code_values, encode_code_values
from repro.algorithms.zstd_dict import strip_prefix_tokens
from repro.common.bitio import pack_fields, read_fields
from repro.common.errors import ConfigError, CorruptStreamError
from repro.common.units import KiB, is_power_of_two
from repro.common.varint import decode_varint, encode_varint

MAGIC = b"BRRL"

#: Frame layout: magic, window-log byte, varint content length, one body
#: mode byte (stored/compressed) and the monolithic body, CRC trailer.
BROTLI_FRAME = FrameSpec(
    display="Brotli-like stream",
    magic=MAGIC,
    has_window_log=True,
    has_length=True,
    length_bits=32,
    has_checksum=True,
)

BROTLI_INFO = CodecInfo(
    name="brotli",
    display_name="Brotli",
    weight_class=WeightClass.HEAVYWEIGHT,
    has_entropy_coding=True,
    supports_levels=True,
    min_level=0,
    max_level=11,
    default_level=1,  # the fleet runs Brotli at low levels (§3.3.3)
    fixed_window_bytes=None,
)

DEFAULT_WINDOW = 4 * 1024 * 1024  # brotli's large-window lineage, scaled down

#: The built-in static dictionary: common English, web, and structured-data
#: fragments (the real library ships ~120 KiB curated from web corpora; this
#: compact stand-in exercises the same mechanism).
_WORDS = (
    "the of and to in is was he for it with as his on be at by had not are "
    "but from or have an they which one you were her all she there would "
    "their we him been has when who will more no if out so said what up its "
    "about into than them can only other new some could time these two may "
    "then do first any my now such like our over man me even most made after "
    "also did many before must through back years where much your way well "
    "down should because each just those people how too little state good "
    "very make world still own see men work long get here between both life "
    "being under never day same another know while last might us great old "
    "year off come since against go came right used take three want need "
    "does going every found place again thing part house different small "
    "large number public system high following during without however"
).split()
_WEB_FRAGMENTS = [
    "http://", "https://", "www.", ".com", ".html", "</div>", "<div class=\"",
    "<span>", "</span>", "<a href=\"", "</a>", "<p>", "</p>", "content-type",
    "text/html", "application/json", "charset=utf-8", "GET ", "POST ",
    '{"', '":"', '","', '":', ',"', "null", "true", "false",
    '"id"', '"name"', '"type"', '"value"', '"status"', '"timestamp"',
    '"user"', '"data"', '"error"', '"result"', "0000", "1970-01-01",
]


def _build_static_dictionary() -> bytes:
    parts: List[str] = []
    parts.extend(f" {w}" for w in _WORDS)
    parts.extend(w.capitalize() for w in _WORDS[:40])
    parts.extend(_WEB_FRAGMENTS)
    return "".join(parts).encode()


STATIC_DICTIONARY = _build_static_dictionary()


#: Sequence sections with fewer codes than this use the compact raw encoding
#: (6-bit codes, no Huffman headers) — brotli's small-input friendliness.
_SMALL_SEQUENCE_LIMIT = 64


def _encode_sequences(stream: TokenStream) -> bytes:
    """Sequence section: compact raw mode for small counts, Huffman above.

    Real Brotli avoids per-stream table headers on small inputs with
    predefined code tables; the raw 6-bit mode plays that role here.
    """
    ll, ml, off, extra, extra_bits = encode_code_values(
        stream.literal_lengths, stream.offsets, stream.match_lengths
    )
    out = bytearray()
    out += encode_varint(len(ll))
    if not ll:
        return bytes(out)
    if len(ll) < _SMALL_SEQUENCE_LIMIT:
        out.append(0)  # raw mode
        codes = [code for triple in zip(ll, ml, off) for code in triple]
        out += pack_fields(codes, [6] * len(codes))[0]
    else:
        out.append(1)  # huffman mode
        for codes in (ll, ml, off):
            out += _encode_codes_huffman(codes)
    out += encode_varint(extra_bits)
    out += extra
    return bytes(out)


def _decode_sequences(data: bytes, pos: int) -> Tuple[List[int], List[int], List[int], int]:
    """The sequence section as ``(literal_lengths, offsets, match_lengths,
    end)`` columns."""
    count, pos = decode_varint(data, pos)
    if count == 0:
        return [], [], [], pos
    if pos >= len(data):
        raise CorruptStreamError("missing sequence mode byte")
    mode = data[pos]
    pos += 1
    if mode == 0:
        packed_bytes = (count * 18 + 7) // 8
        if pos + packed_bytes > len(data):
            raise CorruptStreamError("truncated raw sequence codes")
        # Sized above, so every 6-bit field is present.
        codes = read_fields(data[pos : pos + packed_bytes], [6] * (3 * count))[0].tolist()
        ll, ml, off = codes[0::3], codes[1::3], codes[2::3]
        pos += packed_bytes
    elif mode == 1:
        streams = []
        for _ in range(3):
            decoded, pos = _decode_codes_huffman(data, pos)
            if len(decoded) != count:
                raise CorruptStreamError("sequence stream length mismatch")
            streams.append(decoded)
        ll, ml, off = streams
    else:
        raise CorruptStreamError(f"unknown sequence mode {mode}")

    extra_bits, pos = decode_varint(data, pos)
    extra_bytes = (extra_bits + 7) // 8
    if pos + extra_bytes > len(data):
        raise CorruptStreamError("truncated extra-bits stream")
    literal_lengths, offsets, match_lengths, error = decode_code_values(
        data[pos : pos + extra_bytes], ll, ml, off
    )
    # A zero offset is caught in sequence order, ahead of a later underflow.
    if 0 in off[: len(offsets)]:
        raise CorruptStreamError("sequence offset must be positive")
    if error is not None:
        raise error
    return literal_lengths, offsets, match_lengths, pos + extra_bytes


def _level_lz77(level: int, window: int) -> Lz77Params:
    return Lz77Params(
        window_size=window,
        hash_table_entries=1 << min(17, 12 + level // 2),
        associativity=max(1, level // 3),
        hash_function="multiplicative",
        use_skipping=level <= 1,
        lazy=level >= 5,
    )


class BrotliCodec(Codec):
    """LZ77-with-static-dictionary + Huffman codec."""

    info = BROTLI_INFO

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
        resolved = self.info.clamp_level(level)
        window = self.resolve_window(window_size)
        matcher = Lz77Encoder(_level_lz77(resolved, window))

        out = bytearray(
            BROTLI_FRAME.encode_preamble(
                content_length=len(data), window_log=window.bit_length() - 1
            )
        )

        # Match against the static dictionary as virtual history, then strip
        # the dictionary region so only payload tokens are emitted.
        dict_tail = STATIC_DICTIONARY[-window:]
        stream = matcher.encode(dict_tail + data)
        stream = strip_prefix_tokens(stream, len(dict_tail))

        body = bytearray(_encode_literal_section(stream.literals))
        body += _encode_sequences(stream)
        body += encode_varint(stream.trailing)

        if len(body) >= len(data) + 2:
            out.append(0)  # stored
            out += data
        else:
            out.append(1)
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
        preamble, pos = BROTLI_FRAME.decode_preamble(data)
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
        literal_lengths, offsets, match_lengths, pos = _decode_sequences(data, pos)
        trailing, pos = decode_varint(data, pos)

        # Execute against a scratch seeded with the static dictionary.
        scratch = bytearray(STATIC_DICTIONARY[-window:])
        base = len(scratch)
        execute_sequences(
            scratch, literals, literal_lengths, offsets, match_lengths, trailing,
            history_start=0,
            max_offset=base + expected,
            end=base + expected,
            bad_offset="invalid match offset",
            bad_trailing="trailing literal mismatch",
            wrong_size="decoded length mismatch",
        )
        return bytes(scratch[base:])
