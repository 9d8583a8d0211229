"""One element loop per LZ wire format: Snappy, LZO and framed Snappy.

Each codec decodes only through its streaming context (``decompress`` is
one feed of it), and the hardware model reads Snappy's loop through a sink
(``parse_elements``). Two checks pin that down: on every stream the encoder
writes, the sink reports the token columns the retired mirrored parser
(``snappy_parse_reference``) did; and on hand-built frames, every path into
a codec's loop accepts and rejects alike, with the same output and the same
error type.
"""

import pytest

from repro.algorithms.base import Operation
from repro.algorithms.container import append_content_checksum
from repro.algorithms.lz77 import decode_tokens
from repro.algorithms.lzo import LZO_FRAME, LzoCodec
from repro.algorithms.snappy import SNAPPY_WINDOW, SnappyCodec, parse_elements
from repro.algorithms.snappy_framing import (
    CHUNK_COMPRESSED,
    STREAM_IDENTIFIER,
    SnappyFramedCodec,
)
from repro.common.crc32c import masked_crc32c
from repro.common.errors import CorruptStreamError, ReproError
from repro.common.varint import encode_varint
from tests.algorithms.snappy_parse_reference import parse_elements as reference_parse_elements

TOKEN_COLUMNS = ("literal_lengths", "offsets", "match_lengths", "literals", "trailing", "breaks")


def _assert_matches_reference(stream: bytes) -> None:
    (expected, tokens), (ref_expected, ref_tokens) = (
        parse_elements(stream), reference_parse_elements(stream)
    )
    assert expected == ref_expected
    for column in TOKEN_COLUMNS:
        assert getattr(tokens, column) == getattr(ref_tokens, column), column


class TestSnappySinkMatchesReference:
    """The element loop's sink reports the token columns, ``breaks``
    included, that the mirrored parser read."""

    def test_sample_inputs(self, sample_inputs):
        for data in sample_inputs.values():
            for use_skipping in (True, False):
                _assert_matches_reference(SnappyCodec(use_skipping=use_skipping).compress(data))

    def test_every_hcbench_snappy_decompress_file(self, bench):
        suite = bench.suite("snappy", Operation.DECOMPRESS)
        assert any(len(file.data) > SNAPPY_WINDOW for file in suite.files)  # history trimmed
        for file in suite.files:
            _assert_matches_reference(suite.compressed_form(file))


# --- Hand-built Snappy streams ---------------------------------------------


def _lit(run: bytes) -> bytes:
    n = len(run) - 1
    if n < 60:
        return bytes([n << 2]) + run
    extra = (n.bit_length() + 7) // 8
    return bytes([(59 + extra) << 2]) + n.to_bytes(extra, "little") + run


def _copy2(offset: int, length: int) -> bytes:
    return bytes([(length - 1) << 2 | 0b10]) + offset.to_bytes(2, "little")


def _copy4(offset: int, length: int) -> bytes:
    return bytes([(length - 1) << 2 | 0b11]) + offset.to_bytes(4, "little")


def _snappy(content_length: int, *elements: bytes) -> bytes:
    return encode_varint(content_length) + b"".join(elements)


#: A literal longer than the window: the copy below reaches past the
#: window but inside the produced output, so a decoder that checked only
#: the history it still held would accept it or not by how it was fed.
LONG = bytes(range(256)) * 300
assert len(LONG) == 76_800 > 70_000 > SNAPPY_WINDOW

SNAPPY_VALID = _snappy(12, _lit(b"abcd"), _copy2(4, 8))

SNAPPY_CASES = {
    "valid": (SNAPPY_VALID, b"abcd" * 3),
    "offset-at-window": (
        _snappy(len(LONG) + 8, _lit(LONG), _copy4(SNAPPY_WINDOW, 8)),
        LONG + LONG[-SNAPPY_WINDOW:][:8],
    ),
    "offset-past-window": (
        _snappy(len(LONG) + 8, _lit(LONG), _copy4(70_000, 8)),
        CorruptStreamError,
    ),
    "truncated-preamble": (b"\x80", CorruptStreamError),
    "truncated-literal": (_snappy(100, bytes([49 << 2]) + b"short"), CorruptStreamError),
    "truncated-copy": (SNAPPY_VALID[:-1], CorruptStreamError),
    "zero-offset": (_snappy(8, _lit(b"abcd"), _copy2(0, 4)), CorruptStreamError),
    "offset-past-produced": (_snappy(8, _lit(b"abcd"), _copy2(5, 4)), CorruptStreamError),
    "over-long": (_snappy(2, _lit(b"abc")), CorruptStreamError),
    "short": (_snappy(10, _lit(b"abc")), CorruptStreamError),
}


# --- Hand-built LZO frames --------------------------------------------------


def _lzo_lit(run: bytes) -> bytes:
    return bytes([len(run)]) + run


def _lzo_copy(offset: int, length: int) -> bytes:
    return bytes(
        [0x80 | (length - 4) // 16, (length - 4) % 16 * 16 | offset >> 16]
    ) + (offset & 0xFFFF).to_bytes(2, "little")


def _lzo(content: bytes, *elements: bytes, content_length=None) -> bytes:
    length = len(content) if content_length is None else content_length
    frame = LZO_FRAME.encode_preamble(content_length=length) + b"".join(elements)
    return append_content_checksum(frame, content)


LZO_VALID = _lzo(b"abcd" * 3, _lzo_lit(b"abcd"), _lzo_copy(4, 8))

LZO_CASES = {
    "valid": (LZO_VALID, b"abcd" * 3),
    "truncated-magic": (LZO_VALID[:3], CorruptStreamError),
    "truncated-trailer": (LZO_VALID[:-1], CorruptStreamError),
    "truncated-copy": (_lzo(b"abcd", _lzo_lit(b"abcd"), _lzo_copy(4, 8)[:2]), CorruptStreamError),
    "truncated-literal": (_lzo(b"ab", bytes([5]) + b"ab", content_length=5), CorruptStreamError),
    "zero-length-literal": (_lzo(b"", bytes([0])), CorruptStreamError),
    "zero-offset": (_lzo(b"abcd" * 2, _lzo_lit(b"abcd"), _lzo_copy(0, 4)), CorruptStreamError),
    "offset-past-produced": (
        _lzo(b"abcd" * 2, _lzo_lit(b"abcd"), _lzo_copy(5, 4)),
        CorruptStreamError,
    ),
    "over-long": (_lzo(b"abc", _lzo_lit(b"abc"), content_length=2), CorruptStreamError),
    "short": (_lzo(b"abc", _lzo_lit(b"abc"), content_length=10), CorruptStreamError),
    "checksum-mismatch": (LZO_VALID[:-1] + bytes([LZO_VALID[-1] ^ 1]), CorruptStreamError),
}


# --- Hand-built framed Snappy streams ---------------------------------------


def _compressed_chunk(snappy_stream: bytes, content: bytes) -> bytes:
    payload = masked_crc32c(content).to_bytes(4, "little") + snappy_stream
    return bytes([CHUNK_COMPRESSED]) + len(payload).to_bytes(3, "little") + payload


FRAMED_VALID = STREAM_IDENTIFIER + _compressed_chunk(SNAPPY_VALID, b"abcd" * 3)

FRAMED_CASES = {
    "valid": (FRAMED_VALID, b"abcd" * 3),
    "empty": (STREAM_IDENTIFIER, b""),
    "truncated-identifier": (STREAM_IDENTIFIER[:-1], CorruptStreamError),
    "truncated-chunk-header": (FRAMED_VALID[: len(STREAM_IDENTIFIER) + 2], CorruptStreamError),
    "truncated-chunk-payload": (FRAMED_VALID[:-1], CorruptStreamError),
    "zero-offset": (
        STREAM_IDENTIFIER + _compressed_chunk(SNAPPY_CASES["zero-offset"][0], b"abcd" * 2),
        CorruptStreamError,
    ),
    "offset-past-produced": (
        STREAM_IDENTIFIER
        + _compressed_chunk(SNAPPY_CASES["offset-past-produced"][0], b"abcd" * 2),
        CorruptStreamError,
    ),
    "over-long": (
        STREAM_IDENTIFIER + _compressed_chunk(SNAPPY_CASES["over-long"][0], b"ab"),
        CorruptStreamError,
    ),
    "crc-mismatch": (STREAM_IDENTIFIER + _compressed_chunk(SNAPPY_VALID, b"abcd"), CorruptStreamError),
}


# --- Every path into each codec's loop --------------------------------------


def _one_shot(codec_cls):
    return lambda frame: codec_cls().decompress(frame)


def _streamed(codec_cls, chunk: int):
    def decode(frame: bytes) -> bytes:
        ctx = codec_cls().decompress_context()
        out = b"".join(ctx.feed(frame[i : i + chunk]) for i in range(0, len(frame), chunk))
        return out + ctx.flush(end=True)

    return decode


def _parsed(frame: bytes) -> bytes:
    expected, stream = parse_elements(frame)
    return decode_tokens(stream, expected_length=expected)


def _paths(codec_cls):
    return {
        "one-shot": _one_shot(codec_cls),
        "stream-whole": _streamed(codec_cls, 1 << 30),
        "stream-bytewise": _streamed(codec_cls, 1),
    }


DECODERS = {
    "snappy": {**_paths(SnappyCodec), "parse-elements": _parsed},
    "lzo": _paths(LzoCodec),
    "snappy-framed": _paths(SnappyFramedCodec),
}

CASES = {"snappy": SNAPPY_CASES, "lzo": LZO_CASES, "snappy-framed": FRAMED_CASES}


def _outcome(decode, frame: bytes):
    try:
        return decode(frame)
    except ReproError as exc:  # the error *type* is what must agree
        return type(exc)


@pytest.mark.parametrize(
    "codec,case", [(codec, case) for codec in sorted(CASES) for case in sorted(CASES[codec])]
)
def test_decoders_agree(codec, case):
    """Every path into a codec's element loop accepts and rejects alike,
    with the same output and the same error type."""
    frame, expected = CASES[codec][case]
    outcomes = {name: _outcome(decode, frame) for name, decode in DECODERS[codec].items()}
    assert outcomes == {name: expected for name in DECODERS[codec]}
