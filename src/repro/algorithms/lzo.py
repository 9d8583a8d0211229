"""An LZO-like lightweight codec (paper §2.2, refs [4, 57]).

LZO is byte-oriented LZ77 with no entropy coding but *with* compression
levels. We mirror that: a tag-byte element stream (distinct from Snappy's) and
levels 1-9 that scale the match-finder's hash table and search depth.

The frame is not self-terminating (elements run to the end of the frame
body), so the streaming decoder withholds the last ``CHECKSUM_BYTES`` of
every feed — they may be the CRC-32C trailer — and parses one complete
element at a time, retaining only the format's structural maximum offset of
output history.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.algorithms.base import Codec, CodecInfo, WeightClass
from repro.algorithms.container import (
    CHECKSUM_BYTES,
    FrameSpec,
    append_content_checksum,
    split_content_checksum,
    verify_running_checksum,
)
from repro.algorithms.lz77 import (
    Lz77Encoder,
    Lz77Params,
    TokenStream,
    copy_match,
    split_long_copies,
)
from repro.algorithms.streaming import DecompressContext
from repro.common.crc32c import crc32c
from repro.common.errors import CorruptStreamError
from repro.common.units import KiB

MAGIC = b"LZRL"

#: Copy elements carry a 3-byte (offset16, len8) body; lengths cap at 255+4.
_MAX_COPY_LEN = 259
#: Largest offset the 20-bit copy encoding can express: the decoder retains
#: this much output history, so every offset within the produced output is
#: in reach however the frame is fed (the encoder itself never exceeds its
#: 64 KiB window).
_MAX_COPY_OFFSET = 0xFFFFF

#: Frame layout: magic, varint content length, element stream, CRC trailer.
LZO_FRAME = FrameSpec(
    display="LZO-like stream",
    magic=MAGIC,
    has_length=True,
    length_bits=32,
    has_checksum=True,
)

LZO_INFO = CodecInfo(
    name="lzo",
    display_name="LZO",
    weight_class=WeightClass.LIGHTWEIGHT,
    has_entropy_coding=False,
    supports_levels=True,
    min_level=1,
    max_level=9,
    default_level=1,
    fixed_window_bytes=64 * KiB,
)


def _level_lz77(level: int) -> Lz77Params:
    return Lz77Params(
        window_size=64 * KiB - 1,
        hash_table_entries=1 << min(16, 11 + level // 2),
        associativity=max(1, level // 3 + 1),
        hash_function="xor_shift",
        use_skipping=level <= 3,
    )


def _try_parse_element(data, pos: int, end: int) -> Optional[Tuple[int, int, int]]:
    """Parse one element from ``data[pos:end]``: ``(offset, length, next)``,
    or ``None`` if incomplete. A literal run has offset 0 and its bytes are
    ``data[next - length:next]``."""
    if pos >= end:
        return None
    tag = data[pos]
    pos += 1
    if tag < 0x80:
        if tag == 0:
            raise CorruptStreamError("zero-length literal run")
        if pos + tag > end:
            return None
        return 0, tag, pos + tag
    if pos + 3 > end:
        return None
    hi = tag & 0x7F
    second = data[pos]
    pos += 1
    length = hi * 16 + (second >> 4) + 4
    offset = ((second & 0x0F) << 16) | int.from_bytes(data[pos : pos + 2], "little")
    pos += 2
    if offset == 0:
        raise CorruptStreamError("copy with zero offset")
    return offset, length, pos


class _LzoDecompressContext(DecompressContext):
    """Element-at-a-time LZO decoder with bounded history and running CRC:
    the codec's one element loop (``decompress`` is one feed of it).

    Withholds the final ``CHECKSUM_BYTES`` of input at all times (the frame
    body is only delimited by the trailer), verifies the CRC-32C from a
    running digest at flush, and retains at most the structural maximum
    copy offset of decoded history — O(window + chunk) buffering.
    """

    bounded = True

    def __init__(self, codec: "LzoCodec") -> None:
        super().__init__(codec)
        self._pending = bytearray()
        self._history = bytearray()
        self._expected: Optional[int] = None
        self._produced = 0
        self._crc = 0

    @property
    def buffered_bytes(self) -> int:
        return len(self._pending) + len(self._history)

    def _reset(self) -> None:
        self._pending.clear()
        self._history.clear()
        self._expected = None
        self._produced = 0
        self._crc = 0

    def _feed(self, chunk: bytes) -> bytes:
        self._pending += chunk
        if len(self._pending) <= CHECKSUM_BYTES:
            return b""
        return self._parse(len(self._pending) - CHECKSUM_BYTES)

    def _parse(self, avail: int) -> bytes:
        data = self._pending
        pos = 0
        if self._expected is None:
            # Probe through a view: the preamble must end before the
            # withheld trailer, and the body is not copied to find it.
            with memoryview(data) as view, view[:avail] as head:
                parsed = LZO_FRAME.try_decode_preamble(head)
            if parsed is None:
                return b""
            preamble, pos = parsed
            self._expected = preamble.content_length
        work = self._history
        base = len(work)
        while True:
            element = _try_parse_element(data, pos, avail)
            if element is None:
                break
            offset, length, pos = element
            if not offset:
                work += data[pos - length : pos]
            else:
                if offset > self._produced:
                    raise CorruptStreamError(
                        f"copy offset {offset} reaches before start of "
                        f"output (only {self._produced} bytes produced)"
                    )
                copy_match(work, offset, length)
            self._produced += length
            if self._produced > self._expected:
                raise CorruptStreamError(
                    f"decoded length exceeds expected {self._expected}"
                )
        del data[:pos]
        with memoryview(work) as view:
            out = bytes(view[base:])
        if len(work) > _MAX_COPY_OFFSET:
            del work[: len(work) - _MAX_COPY_OFFSET]
        self._crc = crc32c(out, self._crc)
        return out

    def _flush(self, end: bool) -> bytes:
        if not end:
            return b""
        body, stored = split_content_checksum(bytes(self._pending))
        self._pending = bytearray(body)
        out = self._parse(len(self._pending))
        if self._expected is None:
            LZO_FRAME.decode_preamble(bytes(self._pending))  # raises: truncated
        if self._pending:
            raise CorruptStreamError("truncated element at end of stream")
        if self._produced != self._expected:
            raise CorruptStreamError(
                f"decoded length {self._produced} != expected {self._expected}"
            )
        verify_running_checksum(self._crc, self._produced, stored)
        self._history.clear()
        return out


def _emit_literal(out: bytearray, run: bytes) -> None:
    for pos in range(0, len(run), 127):
        chunk = run[pos : pos + 127]
        out.append(len(chunk))  # 0x00-0x7F: literal run
        out += chunk


class LzoCodec(Codec):
    """Byte-oriented lightweight codec with levels, no entropy stage."""

    info = LZO_INFO

    def tokenize(self, data: bytes, *, level: Optional[int] = None) -> TokenStream:
        resolved = self.info.clamp_level(level)
        return Lz77Encoder(_level_lz77(resolved)).encode(data)

    def decompress_context(
        self, *, window_size: Optional[int] = None
    ) -> DecompressContext:
        return _LzoDecompressContext(self)

    def _compress_buffer(
        self,
        data: bytes,
        *,
        level: Optional[int] = None,
        window_size: Optional[int] = None,
    ) -> bytes:
        stream = self.tokenize(data, level=level)
        out = bytearray(LZO_FRAME.encode_preamble(content_length=len(data)))
        stream = split_long_copies(stream, _MAX_COPY_LEN)
        for literal, offset, length in stream.sequences():
            _emit_literal(out, literal)
            out.append(0x80 | (length - 4) // 16)  # coarse length hint
            out.append((length - 4) % 16 * 16 | (offset >> 16))
            out += (offset & 0xFFFF).to_bytes(2, "little")
        _emit_literal(out, stream.tail)
        return append_content_checksum(bytes(out), data)
