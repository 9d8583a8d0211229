"""Snappy framing format: the streaming API (paper §3.4).

"The user API for compression ... has been essentially unchanged since the
first compression tools were created — a stateless, buffer-in, buffer-out
API, sometimes with a separate dictionary, and a streaming equivalent."

This is that streaming equivalent for Snappy, following the open-source
``framing_format.txt``: a stream-identifier chunk, then a sequence of
compressed (0x00) or uncompressed (0x01) chunks of at most 64 KiB of source
data, each protected by a masked CRC-32C; padding (0xFE) and reserved-
skippable chunks are tolerated. Each data chunk is independently framed, so
a consumer can restart mid-stream — which is also what lets hardware process
chunks without unbounded state, and what makes both directions of the codec
truly incremental: the contexts below hold at most one in-flight chunk.
"""

from __future__ import annotations

from typing import Optional

from repro.algorithms.base import Codec, CodecInfo, WeightClass
from repro.algorithms.container import FrameSpec
from repro.algorithms.snappy import SnappyCodec
from repro.algorithms.streaming import CompressContext, DecompressContext
from repro.common.crc32c import masked_crc32c
from repro.common.errors import CorruptStreamError
from repro.common.units import KiB

#: Chunk type bytes from framing_format.txt.
CHUNK_COMPRESSED = 0x00
CHUNK_UNCOMPRESSED = 0x01
CHUNK_PADDING = 0xFE
CHUNK_STREAM_IDENTIFIER = 0xFF

#: The mandatory first chunk: type 0xff, length 6, "sNaPpY".
STREAM_IDENTIFIER = b"\xff\x06\x00\x00sNaPpY"

#: Maximum uncompressed data per chunk.
MAX_CHUNK_DATA = 65536

#: Every byte of a valid stream identifier chunk is fixed, so the whole
#: chunk acts as the frame magic; chunk framing carries no stream-level
#: length or trailer (integrity is per-chunk masked CRC-32C).
SNAPPY_FRAMED_FRAME = FrameSpec(
    display="Snappy framed stream",
    magic=STREAM_IDENTIFIER,
    has_length=False,
    has_checksum=False,
)


def _chunk(chunk_type: int, payload: bytes) -> bytes:
    if len(payload) > 0xFFFFFF:
        raise ValueError("chunk payload exceeds 24-bit length field")
    return bytes([chunk_type]) + len(payload).to_bytes(3, "little") + payload


def _decode_chunk(chunk_type: int, payload: bytes, codec: SnappyCodec) -> bytes:
    """Decode one non-identifier chunk into its source bytes (b"" if none).

    The chunk grammar's CRC, size and reserved-chunk policies, applied by
    the decompress context to each complete chunk.
    """
    if chunk_type == CHUNK_PADDING:
        return b""
    if chunk_type in (CHUNK_COMPRESSED, CHUNK_UNCOMPRESSED):
        if len(payload) < 4:
            raise CorruptStreamError("chunk too short for its CRC")
        expected_crc = int.from_bytes(payload[:4], "little")
        body = payload[4:]
        if chunk_type == CHUNK_COMPRESSED:
            block = codec.decompress_block(body)
        else:
            block = body
        if len(block) > MAX_CHUNK_DATA:
            raise CorruptStreamError("chunk exceeds 64 KiB of source data")
        if masked_crc32c(block) != expected_crc:
            raise CorruptStreamError("chunk CRC mismatch")
        return block
    if 0x02 <= chunk_type <= 0x7F:
        raise CorruptStreamError(f"unskippable reserved chunk {chunk_type:#04x}")
    # 0x80..0xFD are reserved skippable: ignored.
    return b""


SNAPPY_FRAMED_INFO = CodecInfo(
    name="snappy-framed",
    display_name="Snappy (framed)",
    weight_class=WeightClass.LIGHTWEIGHT,
    has_entropy_coding=False,
    supports_levels=False,
    fixed_window_bytes=64 * KiB,
)


class _SnappyFramedCompressContext(CompressContext):
    """Chunk-at-a-time framed compressor.

    Chunk boundaries are a pure function of the input offset (every 64 KiB),
    so output is byte-identical for any feed chunking; input awaiting a full
    chunk is always < 64 KiB.
    """

    bounded = True

    def __init__(self, codec: "SnappyFramedCodec") -> None:
        super().__init__(codec)
        self._snappy = SnappyCodec()
        self._pending = bytearray()
        self._header_emitted = False

    @property
    def buffered_bytes(self) -> int:
        return len(self._pending)

    def _reset(self) -> None:
        self._pending.clear()
        self._header_emitted = False

    def _header(self) -> bytes:
        if self._header_emitted:
            return b""
        self._header_emitted = True
        return SNAPPY_FRAMED_FRAME.encode_preamble()

    def _feed(self, chunk: bytes) -> bytes:
        self._pending += chunk
        out = bytearray(self._header())
        while len(self._pending) >= MAX_CHUNK_DATA:
            block = bytes(self._pending[:MAX_CHUNK_DATA])
            del self._pending[:MAX_CHUNK_DATA]
            out += self._encode_block(block)
        return bytes(out)

    def _flush(self, end: bool) -> bytes:
        if not end:
            return b""
        out = bytearray(self._header())
        if self._pending:
            out += self._encode_block(bytes(self._pending))
            self._pending.clear()
        return bytes(out)

    def _encode_block(self, block: bytes) -> bytes:
        crc = masked_crc32c(block).to_bytes(4, "little")
        compressed = self._snappy.compress_block(block)
        if len(compressed) < len(block):
            return _chunk(CHUNK_COMPRESSED, crc + compressed)
        return _chunk(CHUNK_UNCOMPRESSED, crc + block)


class _SnappyFramedDecompressContext(DecompressContext):
    """Chunk-at-a-time framed decompressor.

    Holds at most one incomplete chunk (≤ 16 MiB by the 24-bit length field;
    ≤ 64 KiB + framing for chunks our compressor emits) and no output
    history — data chunks are self-contained, which is the framing format's
    whole point.
    """

    bounded = True

    def __init__(self, codec: "SnappyFramedCodec") -> None:
        super().__init__(codec)
        self._pending = bytearray()
        self._snappy = SnappyCodec()
        self._saw_identifier = False

    @property
    def buffered_bytes(self) -> int:
        return len(self._pending)

    def _reset(self) -> None:
        self._pending.clear()
        self._saw_identifier = False

    def _feed(self, chunk: bytes) -> bytes:
        self._pending += chunk
        return self._drain()

    def _drain(self) -> bytes:
        data = self._pending
        if not self._saw_identifier:
            parsed = SNAPPY_FRAMED_FRAME.try_decode_preamble(data)
            if parsed is None:
                return b""
            del data[: parsed[1]]
            self._saw_identifier = True
        out = bytearray()
        while len(data) >= 4:
            chunk_type = data[0]
            length = int.from_bytes(data[1:4], "little")
            if len(data) < 4 + length:
                break
            payload = bytes(data[4 : 4 + length])
            del data[: 4 + length]
            if chunk_type == CHUNK_STREAM_IDENTIFIER:
                if payload != b"sNaPpY":
                    raise CorruptStreamError("bad stream identifier payload")
                continue
            out += _decode_chunk(chunk_type, payload, self._snappy)
        return bytes(out)

    def _flush(self, end: bool) -> bytes:
        if not end:
            return b""
        if not self._saw_identifier:
            # Never saw the full identifier: report the short preamble.
            SNAPPY_FRAMED_FRAME.decode_preamble(bytes(self._pending))
        if self._pending:
            if len(self._pending) < 4:
                raise CorruptStreamError("truncated chunk header")
            raise CorruptStreamError("truncated chunk payload")
        return b""


class SnappyFramedCodec(Codec):
    """Buffer-in/buffer-out adapter over the framing format.

    Unlike raw Snappy, every chunk carries a masked CRC-32C, so this is the
    integrity-checked variant of the codec pair — corruption anywhere in a
    data chunk surfaces as :class:`CorruptStreamError`. Both streaming
    directions are bounded: the format was designed chunk-restartable.
    """

    info = SNAPPY_FRAMED_INFO

    def compress_context(
        self,
        *,
        level: Optional[int] = None,
        window_size: Optional[int] = None,
    ) -> CompressContext:
        return _SnappyFramedCompressContext(self)

    def decompress_context(
        self, *, window_size: Optional[int] = None
    ) -> DecompressContext:
        return _SnappyFramedDecompressContext(self)
