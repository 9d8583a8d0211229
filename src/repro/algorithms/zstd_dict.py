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
from repro.algorithms.lz77 import Lz77Encoder, TokenStream
from repro.algorithms.zstd import (
    BLOCK_SIZE,
    SequenceCoder,
    ZSTD_INFO,
    ZstdCodec,
    _decode_blocks,
    _encode_block_body,
    level_params,
)
from repro.common.crc32c import crc32c
from repro.common.errors import CorruptStreamError
from repro.common.units import KiB
from repro.common.varint import encode_varint

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
        preamble, pos = DICT_FRAME.decode_preamble(frame)
        if int.from_bytes(preamble.extra, "little") != self._checksum:
            raise CorruptStreamError(
                "frame was compressed with a different dictionary (CRC mismatch)"
            )
        # The plain container's block loop; the dictionary tail is block
        # 0's history, so its copies may reach into it.
        out = _decode_blocks(frame, pos, preamble, self.dictionary[-preamble.window :])
        verify_content_checksum(out, stored_crc)
        return out


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
