"""Dictionary compression for the ZStd-like codec (paper §3.4).

The stable (de)compression API the paper leans on is "a stateless, buffer-in,
buffer-out API, **sometimes with a separate dictionary**, and a streaming
equivalent". Dictionaries matter precisely for the fleet's small calls
(Figure 3's sub-32 KiB mass): a shared prefix of common structure gives the
LZ77 stage history to match against before the payload has produced any.

:class:`ZstdDictCodec` is the dictionary variant of
:class:`~repro.algorithms.zstd.ZstdCodec`: the dictionary (capped to the
window) is virtually prepended to the first block's history, so copies may
reach back into it; the decoder seeds its history with the same dictionary,
verified by CRC-32C. Later blocks are matched independently, as in the base
container.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algorithms.base import Codec
from repro.algorithms.container import (
    FrameSpec,
    append_content_checksum,
    split_content_checksum,
    verify_content_checksum,
)
from repro.algorithms.lz77 import Lz77Encoder, TokenStream, execute_sequences
from repro.algorithms.zstd import (
    BLOCK_SIZE,
    DEFAULT_LEVEL,
    SequenceCoder,
    ZSTD_INFO,
    ZstdCodec,
    _decode_literals,
    _encode_block_body,
    level_params,
)
from repro.common.crc32c import crc32c
from repro.common.errors import CorruptStreamError
from repro.common.units import KiB
from repro.common.varint import decode_varint, encode_varint

DICT_MAGIC = b"ZSRD"
#: Version 2 added the CRC-32C content trailer (see algorithms.container).
DICT_FORMAT_VERSION = 2

#: Frame layout: magic, version byte, window-log byte, 4-byte dictionary
#: CRC-32C (the ``extra`` header), varint content length, blocks, trailer.
DICT_FRAME = FrameSpec(
    display="dictionary frame",
    magic=DICT_MAGIC,
    version=DICT_FORMAT_VERSION,
    has_window_log=True,
    extra_header_bytes=4,
    has_length=True,
    length_bits=32,
    has_checksum=True,
)


def strip_prefix_tokens(stream: TokenStream, prefix_length: int) -> TokenStream:
    """The stream reconstructing only the bytes after ``prefix_length``.

    Elements inside the prefix are dropped and the one crossing it is
    trimmed. Trimming a copy keeps its offset: an LZ77 copy is a sequential
    byte copy (``dst[i] = dst[i - offset]``), so any suffix of it is itself
    a valid copy at the same offset.
    """
    pos = 0  # output position of the current sequence's literal run
    lit_pos = 0  # its start in the literal buffer
    for index, (literal_length, match_length) in enumerate(
        zip(stream.literal_lengths, stream.match_lengths)
    ):
        end = pos + literal_length + match_length
        if end > prefix_length:
            break
        pos = end
        lit_pos += literal_length
    else:
        # Only the trailing literals reach past the prefix.
        skip = max(0, prefix_length - pos)
        return TokenStream(
            [], [], [], stream.literals[lit_pos + skip :], max(0, stream.trailing - skip)
        )
    skip = min(prefix_length - pos, literal_length)  # trimmed off the literal run
    literal_lengths = [literal_length - skip] + stream.literal_lengths[index + 1 :]
    match_lengths = [min(match_length, end - prefix_length)] + stream.match_lengths[index + 1 :]
    return TokenStream(
        literal_lengths, stream.offsets[index:], match_lengths,
        stream.literals[lit_pos + skip :], stream.trailing,
    )


class ZstdDictCodec(Codec):
    """ZStd-like compression with a caller-supplied prefix dictionary.

    A full :class:`~repro.algorithms.base.Codec`: the one-shot entry points
    and (whole-stream buffered) streaming contexts come from the base class;
    this class supplies the dictionary-seeded block transforms.
    """

    info = ZSTD_INFO

    def __init__(self, dictionary: bytes) -> None:
        if not dictionary:
            raise ValueError("dictionary must be non-empty (use ZstdCodec otherwise)")
        self.dictionary = dictionary
        self._checksum = crc32c(dictionary)

    def _compress_buffer(
        self,
        data: bytes,
        *,
        level: Optional[int] = None,
        window_size: Optional[int] = None,
    ) -> bytes:
        resolved_level = self.info.clamp_level(level)
        plain = ZstdCodec()
        window = plain.resolve_window(window_size, level=resolved_level)
        params = level_params(resolved_level)
        matcher = Lz77Encoder(params.lz77_params(window))
        coder = SequenceCoder(params.accuracy_log)
        dict_tail = self.dictionary[-window:]

        out = bytearray(
            DICT_FRAME.encode_preamble(
                content_length=len(data),
                window_log=window.bit_length() - 1,
                extra=self._checksum.to_bytes(4, "little"),
            )
        )

        if not data:
            out.append(0x80)  # empty last block
            out += encode_varint(0)
            return append_content_checksum(bytes(out), data)

        for start in range(0, len(data), BLOCK_SIZE):
            block = data[start : start + BLOCK_SIZE]
            last = start + BLOCK_SIZE >= len(data)
            if start == 0:
                out += self._compress_first_block(block, dict_tail, matcher, coder, last)
            else:
                # Later blocks: standard independent matching.
                out += self._compress_plain_block(block, matcher, coder, last)
        return append_content_checksum(bytes(out), data)

    def _compress_first_block(
        self,
        block: bytes,
        dict_tail: bytes,
        matcher: Lz77Encoder,
        coder: SequenceCoder,
        last: bool,
    ) -> bytes:
        stream = matcher.encode(dict_tail + block)
        body = _encode_block_body(strip_prefix_tokens(stream, len(dict_tail)), coder)
        last_flag = 0x80 if last else 0
        if len(body) + 6 >= len(block):
            header = bytearray([0x00 | last_flag])  # raw
            header += encode_varint(len(block))
            return bytes(header) + block
        header = bytearray([0x02 | last_flag])  # compressed
        header += encode_varint(len(block))
        header += encode_varint(len(body))
        return bytes(header) + bytes(body)

    def _compress_plain_block(
        self, block: bytes, matcher: Lz77Encoder, coder: SequenceCoder, last: bool
    ) -> bytes:
        return self._compress_first_block(block, b"", matcher, coder, last)

    def _decompress_buffer(
        self, data: bytes, *, window_size: Optional[int] = None
    ) -> bytes:
        frame, stored_crc = split_content_checksum(data)
        out = self._decompress_frame(frame)
        verify_content_checksum(out, stored_crc)
        return out

    def _decompress_frame(self, data: bytes) -> bytes:
        preamble, pos = DICT_FRAME.decode_preamble(data)
        window = preamble.window
        expected = preamble.content_length
        stored_checksum = int.from_bytes(preamble.extra, "little")
        if stored_checksum != self._checksum:
            raise CorruptStreamError(
                "frame was compressed with a different dictionary (CRC mismatch)"
            )
        dict_tail = self.dictionary[-window:]
        out = bytearray()
        saw_last = False
        first = True
        while pos < len(data):
            if saw_last:
                raise CorruptStreamError("data after last block")
            tag = data[pos]
            pos += 1
            block_type = tag & 0x7F
            saw_last = bool(tag & 0x80)
            raw_size, pos = decode_varint(data, pos)
            if block_type == 0x00:  # raw
                if pos + raw_size > len(data):
                    raise CorruptStreamError("truncated raw block")
                out += data[pos : pos + raw_size]
                pos += raw_size
            elif block_type == 0x02:  # compressed
                body_size, pos = decode_varint(data, pos)
                if pos + body_size > len(data):
                    raise CorruptStreamError("truncated compressed block")
                prefix = dict_tail if first else b""
                self._decode_block(data, pos, raw_size, window, prefix, out)
                pos += body_size
            else:
                raise CorruptStreamError(f"unknown dict-frame block type {block_type}")
            first = False
        if not saw_last:
            raise CorruptStreamError("frame missing last block")
        if len(out) != expected:
            raise CorruptStreamError("frame produced wrong number of bytes")
        return bytes(out)

    def _decode_block(
        self,
        data: bytes,
        pos: int,
        raw_size: int,
        window: int,
        prefix: bytes,
        out: bytearray,
    ) -> None:
        if raw_size > BLOCK_SIZE:
            raise CorruptStreamError(f"compressed block size {raw_size} exceeds block limit")
        literals, pos = _decode_literals(data, pos)
        literal_lengths, offsets, match_lengths, pos = SequenceCoder.decode_columns(data, pos)
        trailing, pos = decode_varint(data, pos)
        # Execute against a scratch buffer seeded with the dictionary so
        # copies may reach into it; only the produced part is appended.
        scratch = bytearray(prefix)
        execute_sequences(
            scratch, literals, literal_lengths, offsets, match_lengths, trailing,
            history_start=0,
            max_offset=window + len(prefix),
            end=len(prefix) + raw_size,
            bad_offset="match offset {offset} outside history",
            bad_trailing="trailing literal count mismatch",
            wrong_size="block decoded to wrong size",
        )
        out += scratch[len(prefix) :]


def train_dictionary(samples: List[bytes], max_size: int = 4 * KiB) -> bytes:
    """Build a simple shared dictionary from sample payloads.

    A lightweight stand-in for ``zstd --train``: concatenates the most common
    fixed-size grams across samples (most common last, so the hottest content
    sits at the smallest offsets). Good enough to demonstrate the small-call
    ratio benefit; not a COVER/FastCover implementation.
    """
    if not samples:
        raise ValueError("need at least one sample to train a dictionary")
    from collections import Counter

    gram = 16
    counts: Counter = Counter()
    for sample in samples:
        for i in range(0, max(0, len(sample) - gram), gram):
            counts[sample[i : i + gram]] += 1
    ranked = [g for g, c in counts.most_common() if c >= 2]
    if not ranked:
        ranked = [g for g, _ in counts.most_common(max_size // gram)]
    budget = max_size // gram
    # Most common last = closest to the data = cheapest offsets.
    chosen = list(reversed(ranked[:budget]))
    dictionary = b"".join(chosen)[:max_size]
    return dictionary or samples[0][:max_size]
