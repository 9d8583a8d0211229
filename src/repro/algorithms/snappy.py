"""Snappy codec, wire-format compatible with the open-source library.

Implements the block format from ``format_description.txt`` (paper ref [9]):
a varint uncompressed-length preamble followed by literal / copy elements.
The compressor mirrors the open-source library's structure — greedy hash-table
matching over a fixed 64 KiB window, no entropy coding, no compression levels
(paper §2.2) — including its *skipping* heuristic for incompressible data,
which §6.3 identifies as the reason hardware can beat software ratio.

One element loop, the streaming decompress context's, executes the element
grammar one complete element at a time, retaining only the format's 64 KiB
history window. ``decompress`` is one feed of it, and the hardware model
reads the same loop through a sink (:func:`parse_elements` returns the LZ77
token stream a decompressor CDPU executes).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro import obs
from repro.algorithms.base import Codec, CodecInfo, WeightClass
from repro.algorithms.container import FrameSpec
from repro.algorithms.lz77 import (
    Lz77Encoder,
    Lz77Params,
    TokenStream,
    TokenStreamBuilder,
    copy_match,
)
from repro.algorithms.streaming import DecompressContext
from repro.common.errors import CorruptStreamError, UnsupportedInputError
from repro.common.units import KiB

#: Snappy's fixed history window (§2.2, §3.6).
SNAPPY_WINDOW = 64 * KiB
#: Maximum offset a two-byte copy element can encode.
_MAX_COPY2_OFFSET = 65535
#: Copy elements encode at most 64 bytes; longer matches are split.
_MAX_COPY_LEN = 64
#: Literal runs are chunked here, so a length needs at most three extra bytes.
_MAX_LITERAL_RUN = 1 << 24

_TAG_LITERAL = 0b00
_TAG_COPY1 = 0b01
_TAG_COPY2 = 0b10
_TAG_COPY4 = 0b11

#: Raw Snappy's whole frame layout: just the 32-bit varint uncompressed
#: length — no magic and no content trailer (``format_description.txt``
#: carries no checksum; use the framed codec for integrity).
SNAPPY_FRAME = FrameSpec(
    display="Snappy stream",
    has_length=True,
    length_bits=32,
    has_checksum=False,
)

SNAPPY_INFO = CodecInfo(
    name="snappy",
    display_name="Snappy",
    weight_class=WeightClass.LIGHTWEIGHT,
    has_entropy_coding=False,
    supports_levels=False,
    fixed_window_bytes=SNAPPY_WINDOW,
)


def _default_params(use_skipping: bool) -> Lz77Params:
    # The library uses a 2^14-entry direct-mapped table of positions and a
    # multiplicative hash; offsets are capped at what copy2 can encode.
    return Lz77Params(
        window_size=_MAX_COPY2_OFFSET,
        hash_table_entries=1 << 14,
        associativity=1,
        hash_table_contents="position",
        hash_function="multiplicative",
        max_match_length=None,
        use_skipping=use_skipping,
    )


def emit_elements(stream: TokenStream) -> bytes:
    """Serialize an LZ77 token stream as Snappy literal/copy elements.

    One scalar pass over the token columns, with the trailing literals as
    a last run without a copy. Each literal run becomes one element, its
    header written inline; a run past 2^24 bytes is chunked so that its
    length needs at most three extra bytes. A copy of 4-11 bytes at an
    offset below 2048 takes the two-byte copy1 form. Any other copy takes
    copy2, or copy4 past offset 65535; one longer than 64 bytes is split as
    the pass goes into 64-byte copies and a remainder, all from the same
    offset.
    """
    out = bytearray()
    append = out.append
    literals = stream.literals
    pos = 0
    for literal_length, offset, length in zip(
        [*stream.literal_lengths, stream.trailing],
        [*stream.offsets, 0],
        [*stream.match_lengths, 0],
    ):
        if literal_length:
            end = pos + literal_length
            if literal_length <= 60:
                append((literal_length - 1) << 2 | _TAG_LITERAL)
                out += literals[pos:end]
            else:
                while pos < end:
                    stop = min(end, pos + _MAX_LITERAL_RUN)
                    n = stop - pos - 1
                    if n < 60:
                        append(n << 2 | _TAG_LITERAL)
                    else:
                        extra = (n.bit_length() + 7) // 8
                        append((59 + extra) << 2 | _TAG_LITERAL)
                        out += n.to_bytes(extra, "little")
                    out += literals[pos:stop]
                    pos = stop
            pos = end
        if not length:  # the trailing run
            continue
        if offset <= _MAX_COPY2_OFFSET:
            while length > _MAX_COPY_LEN:
                out += bytes(((_MAX_COPY_LEN - 1) << 2 | _TAG_COPY2, offset & 0xFF, offset >> 8))
                length -= _MAX_COPY_LEN
            if 4 <= length <= 11 and offset < 2048:
                append((offset >> 8) << 5 | (length - 4) << 2 | _TAG_COPY1)
                append(offset & 0xFF)
            else:
                append((length - 1) << 2 | _TAG_COPY2)
                append(offset & 0xFF)
                append(offset >> 8)
        else:
            far = offset.to_bytes(4, "little")
            while length > _MAX_COPY_LEN:
                append((_MAX_COPY_LEN - 1) << 2 | _TAG_COPY4)
                out += far
                length -= _MAX_COPY_LEN
            append((length - 1) << 2 | _TAG_COPY4)
            out += far
    return bytes(out)


def try_parse_element(data, pos: int) -> Optional[Tuple[int, int, int]]:
    """Parse one element from ``data[pos:]``: ``(offset, length, end)``, or
    ``None`` if it is incomplete. A literal element has offset 0 and its
    bytes are ``data[end - length:end]``.

    Structural validation only (a zero copy offset is corruption regardless
    of position); offset-vs-produced validation is the caller's job since it
    depends on stream position. Its one caller is the streaming decoder's
    element loop.
    """
    n = len(data)
    if pos >= n:
        return None
    tag_byte = data[pos]
    pos += 1
    tag = tag_byte & 0x3
    if tag == _TAG_LITERAL:
        field = tag_byte >> 2
        if field < 60:
            length = field + 1
        else:
            extra = field - 59
            if pos + extra > n:
                return None
            length = int.from_bytes(data[pos : pos + extra], "little") + 1
            pos += extra
        if pos + length > n:
            return None
        return 0, length, pos + length
    if tag == _TAG_COPY1:
        if pos + 1 > n:
            return None
        length = ((tag_byte >> 2) & 0x7) + 4
        offset = ((tag_byte >> 5) & 0x7) << 8 | data[pos]
        pos += 1
    elif tag == _TAG_COPY2:
        if pos + 2 > n:
            return None
        length = (tag_byte >> 2) + 1
        offset = int.from_bytes(data[pos : pos + 2], "little")
        pos += 2
    else:
        if pos + 4 > n:
            return None
        length = (tag_byte >> 2) + 1
        offset = int.from_bytes(data[pos : pos + 4], "little")
        pos += 4
    if offset == 0:
        raise CorruptStreamError("copy element with zero offset")
    return offset, length, pos


def decode_with_tokens(data: bytes) -> Tuple[bytes, TokenStream]:
    """Decode a whole Snappy stream: ``(content, token stream)``.

    This is the codec's element loop run with a sink over one feed, so it
    accepts and rejects exactly what :meth:`SnappyCodec.decompress` does,
    and the stream is the element sequence the loop executed. Like
    :meth:`SnappyCodec.decompress_block` it drives the uninstrumented
    ``_feed``/``_flush``: the hardware model's parse is not a Snappy call.
    """
    sink = TokenStreamBuilder()
    ctx = _SnappyDecompressContext(SnappyCodec(), sink)
    content = ctx._feed(data) + ctx._flush(True)
    return content, sink.build()


def parse_elements(data: bytes) -> Tuple[int, TokenStream]:
    """Parse a Snappy stream into (uncompressed_length, token stream).

    This is the exact element sequence a decompressor CDPU executes; the
    hardware model consumes it directly.
    """
    content, stream = decode_with_tokens(data)
    return len(content), stream


class _SnappyDecompressContext(DecompressContext):
    """Element-at-a-time Snappy decoder with window-bounded history: the
    codec's one element loop.

    Retains only the last 64 KiB of output (the format's fixed window, which
    also covers every offset our encoder can emit) plus any incomplete
    element bytes — O(window + chunk), never O(stream). A copy offset beyond
    the window is rejected as corrupt however the stream is fed. With a
    ``sink``, every executed element is also appended to it.
    """

    bounded = True

    def __init__(
        self, codec: "SnappyCodec", sink: Optional[TokenStreamBuilder] = None
    ) -> None:
        super().__init__(codec)
        self._pending = bytearray()
        self._history = bytearray()
        self._expected: Optional[int] = None
        self._produced = 0
        self._sink = sink

    @property
    def buffered_bytes(self) -> int:
        return len(self._pending) + len(self._history)

    def _reset(self) -> None:
        self._pending.clear()
        self._history.clear()
        self._expected = None
        self._produced = 0

    def _feed(self, chunk: bytes) -> bytes:
        self._pending += chunk
        return self._drain()

    def _drain(self) -> bytes:
        data = self._pending
        pos = 0
        if self._expected is None:
            parsed = SNAPPY_FRAME.try_decode_preamble(data)
            if parsed is None:
                return b""
            preamble, pos = parsed
            self._expected = preamble.content_length
        work = self._history
        base = len(work)
        sink = self._sink
        with obs.stage("stage.lz77.decode"):
            while True:
                element = try_parse_element(data, pos)
                if element is None:
                    break
                offset, length, pos = element
                if not offset:
                    run = data[pos - length : pos]
                    work += run
                    if sink is not None:
                        sink.literal(run)
                else:
                    if offset > self._produced:
                        raise CorruptStreamError(
                            f"copy offset {offset} exceeds produced output "
                            f"{self._produced}"
                        )
                    if offset > SNAPPY_WINDOW:
                        raise CorruptStreamError(
                            f"copy offset {offset} exceeds the "
                            f"{SNAPPY_WINDOW}-byte window"
                        )
                    copy_match(work, offset, length)
                    if sink is not None:
                        sink.copy(offset, length)
                self._produced += length
                if self._produced > self._expected:
                    raise CorruptStreamError(
                        f"stream produces {self._produced} bytes, preamble "
                        f"promised {self._expected}"
                    )
        del data[:pos]
        # One copy of this feed's output; the view is released before the
        # window trim resizes ``work``.
        with memoryview(work) as view:
            out = bytes(view[base:])
        if len(work) > SNAPPY_WINDOW:
            del work[: len(work) - SNAPPY_WINDOW]
        return out

    def _flush(self, end: bool) -> bytes:
        if not end:
            return b""
        if self._expected is None:
            # Never saw a complete preamble: report the short preamble.
            SNAPPY_FRAME.decode_preamble(bytes(self._pending))
        if self._pending:
            raise CorruptStreamError("truncated element at end of stream")
        if self._produced != self._expected:
            raise CorruptStreamError(
                f"stream produced {self._produced} bytes, preamble promised "
                f"{self._expected}"
            )
        self._history.clear()
        return b""


class SnappyCodec(Codec):
    """Snappy codec, structured like the C++ library.

    ``use_skipping`` toggles the software incompressible-data heuristic; the
    hardware pipeline and the graph ``lz77`` stage run the same matcher
    with skipping disabled.
    """

    info = SNAPPY_INFO

    def __init__(self, *, use_skipping: bool = True) -> None:
        self._encoder = Lz77Encoder(_default_params(use_skipping))

    def decompress_context(
        self, *, window_size: Optional[int] = None
    ) -> DecompressContext:
        return _SnappyDecompressContext(self)

    def _compress_buffer(
        self,
        data: bytes,
        *,
        level: Optional[int] = None,
        window_size: Optional[int] = None,
    ) -> bytes:
        if len(data) > (1 << SNAPPY_FRAME.length_bits) - 1:
            raise UnsupportedInputError("snappy inputs are limited to 2^32-1 bytes")
        stream = self._encoder.encode(data)
        preamble = SNAPPY_FRAME.encode_preamble(content_length=len(data))
        return preamble + emit_elements(stream)

    def compress_block(self, data: bytes) -> bytes:
        """``compress`` outside observability.

        For the codecs that carry Snappy streams inside their own frames
        (framed Snappy's chunks, the graph ``lz77`` stage): obs counts their
        calls, so an inner block must not also count as a Snappy call.
        """
        return self._compress_buffer(data)

    def decompress_block(self, data: bytes) -> bytes:
        """``decompress`` outside observability (see :meth:`compress_block`)."""
        ctx = _SnappyDecompressContext(self)
        return ctx._feed(data) + ctx._flush(True)
