"""A Gipfeli-like lightweight codec (paper §2.2, refs [3, 47]).

Gipfeli is "LZ77-inspired dictionary coding with *simple* entropy coding":
faster than Flate, better ratio than Snappy. We mirror that design point with
a one-bit-prefix literal coder — the 32 most frequent byte values of a block
get 6-bit codes (``0`` + 5-bit index), everything else gets 9 bits
(``1`` + raw byte) — over a Snappy-style matcher with a fixed 64 KiB window
and no compression levels.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.algorithms.base import Codec, CodecInfo, WeightClass
from repro.algorithms.container import (
    FrameSpec,
    append_content_checksum,
    split_content_checksum,
    verify_content_checksum,
)
from repro.algorithms.lz77 import (
    Lz77Encoder,
    Lz77Params,
    TokenStream,
    TokenStreamBuilder,
    decode_tokens,
)
from repro.common.bitio import BitReader, BitWriter
from repro.common.errors import CorruptStreamError
from repro.common.units import KiB
from repro.common.varint import decode_varint, encode_varint

MAGIC = b"GPRL"
_TOP_SET_SIZE = 32
#: Frame overhead allowed before the stored fallback kicks in (magic +
#: varint length + marker byte headroom).
_STORED_FALLBACK_MARGIN = 10

#: Frame layout: magic, varint content length, body, CRC trailer. The body
#: (top set, token plan, bit payload) is monolithic, so streaming contexts
#: for this codec are whole-stream buffered.
GIPFELI_FRAME = FrameSpec(
    display="Gipfeli-like stream",
    magic=MAGIC,
    has_length=True,
    length_bits=32,
    has_checksum=True,
)

GIPFELI_INFO = CodecInfo(
    name="gipfeli",
    display_name="Gipfeli",
    weight_class=WeightClass.LIGHTWEIGHT,
    has_entropy_coding=True,
    supports_levels=False,
    fixed_window_bytes=64 * KiB,
)


def _matcher() -> Lz77Encoder:
    return Lz77Encoder(
        Lz77Params(
            window_size=64 * KiB - 1,
            hash_table_entries=1 << 14,
            associativity=1,
            hash_function="multiplicative",
            use_skipping=True,
        )
    )


class GipfeliCodec(Codec):
    """Lightweight codec with simple (bucketed) literal entropy coding."""

    info = GIPFELI_INFO

    def tokenize(self, data: bytes) -> TokenStream:
        return _matcher().encode(data)

    def _compress_buffer(
        self,
        data: bytes,
        *,
        level: Optional[int] = None,
        window_size: Optional[int] = None,
    ) -> bytes:
        stream = self.tokenize(data)
        out = bytearray(GIPFELI_FRAME.encode_preamble(content_length=len(data)))

        top = [sym for sym, _ in Counter(stream.literals).most_common(_TOP_SET_SIZE)]
        top_index = {sym: i for i, sym in enumerate(top)}
        out.append(len(top))
        out += bytes(top)

        # Token plan: per token one control varint — low bit 0 = literal run
        # (value >> 1 = run length), low bit 1 = copy (value >> 1 = length-4,
        # followed by a 2-byte little-endian offset). Comparable density to
        # Snappy's element stream, with literals diverted to the bit payload.
        out += encode_varint(len(stream))
        bits = BitWriter()
        plan = bytearray()

        def literal_run(run: bytes) -> None:
            if not run:
                return
            plan.extend(encode_varint(len(run) << 1))
            for byte in run:
                idx = top_index.get(byte)
                if idx is not None:
                    bits.write(0, 1)
                    bits.write(idx, 5)
                else:
                    bits.write(1, 1)
                    bits.write(byte, 8)

        for literal, offset, length in stream.sequences():
            literal_run(literal)
            plan += encode_varint((length - 4) << 1 | 1)
            plan += offset.to_bytes(2, "little")
        literal_run(stream.tail)
        payload = bits.getvalue()
        out += encode_varint(len(plan))
        out += plan
        out += encode_varint(bits.bit_length)
        out += payload
        result = bytes(out)
        if len(result) >= len(data) + _STORED_FALLBACK_MARGIN:
            # Stored fallback: marker top-set size 255.
            fallback = bytearray(
                GIPFELI_FRAME.encode_preamble(content_length=len(data))
            )
            fallback.append(255)
            fallback += data
            return append_content_checksum(bytes(fallback), data)
        return append_content_checksum(result, data)

    def _decompress_buffer(
        self, data: bytes, *, window_size: Optional[int] = None
    ) -> bytes:
        frame, stored_crc = split_content_checksum(data)
        out = self._decompress_frame(frame)
        verify_content_checksum(out, stored_crc)
        return out

    def _decompress_frame(self, data: bytes) -> bytes:
        preamble, pos = GIPFELI_FRAME.decode_preamble(data)
        expected = preamble.content_length
        if pos >= len(data):
            raise CorruptStreamError("missing top-set header")
        top_size = data[pos]
        pos += 1
        if top_size == 255:
            body = data[pos:]
            if len(body) != expected:
                raise CorruptStreamError("stored body length mismatch")
            return body
        if top_size > _TOP_SET_SIZE:
            raise CorruptStreamError(f"top set too large: {top_size}")
        top = data[pos : pos + top_size]
        if len(top) != top_size:
            raise CorruptStreamError("truncated top set")
        pos += top_size

        num_tokens, pos = decode_varint(data, pos)
        plan_len, pos = decode_varint(data, pos)
        if plan_len > len(data) - pos:
            raise CorruptStreamError("truncated token plan")
        plan = data[pos : pos + plan_len]
        pos += plan_len
        # Every token consumes at least one plan byte, so a count beyond
        # the plan length cannot be satisfied.
        if num_tokens > len(plan):
            raise CorruptStreamError("token count exceeds plan length")
        bit_length, pos = decode_varint(data, pos)
        payload_bytes = (bit_length + 7) // 8
        if payload_bytes > len(data) - pos:
            raise CorruptStreamError("truncated literal payload")
        payload = data[pos : pos + payload_bytes]
        reader = BitReader(payload)

        tokens = TokenStreamBuilder()
        ppos = 0
        for _ in range(num_tokens):
            if ppos >= len(plan):
                raise CorruptStreamError("token plan underflow")
            control, ppos = decode_varint(plan, ppos)
            if control & 1:
                length = (control >> 1) + 4
                if ppos + 2 > len(plan):
                    raise CorruptStreamError("truncated copy offset")
                offset = int.from_bytes(plan[ppos : ppos + 2], "little")
                ppos += 2
                if offset == 0:
                    raise CorruptStreamError("invalid copy token")
                tokens.copy(offset, length)
            else:
                run_len = control >> 1
                if run_len == 0:
                    raise CorruptStreamError("zero-length literal run")
                # Each literal consumes at least one payload bit, so a run
                # longer than the whole bit stream cannot be satisfied.
                if run_len > 8 * len(payload):
                    raise CorruptStreamError("literal run exceeds payload bits")
                run = bytearray()
                for _ in range(run_len):
                    if reader.read(1):
                        run.append(reader.read(8))
                    else:
                        idx = reader.read(5)
                        if idx >= top_size:
                            raise CorruptStreamError("literal index outside top set")
                        run.append(top[idx])
                tokens.literal(run)
        return decode_tokens(tokens.build(), expected_length=expected)
