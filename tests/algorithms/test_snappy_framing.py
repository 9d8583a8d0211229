"""Unit tests for the Snappy framing (streaming) format and CRC-32C."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.snappy_framing import (
    CHUNK_COMPRESSED,
    CHUNK_PADDING,
    CHUNK_STREAM_IDENTIFIER,
    CHUNK_UNCOMPRESSED,
    MAX_CHUNK_DATA,
    STREAM_IDENTIFIER,
    SnappyFramedCodec,
)
from repro.common.crc32c import crc32c, masked_crc32c, unmask_crc32c
from repro.common.errors import CorruptStreamError

CODEC = SnappyFramedCodec()
compress_framed = CODEC.compress
decompress_framed = CODEC.decompress


def chunk_types(stream: bytes) -> list:
    """The type byte of every chunk in a well-formed framed stream."""
    types, pos = [], 0
    while pos < len(stream):
        types.append(stream[pos])
        pos += 4 + int.from_bytes(stream[pos + 1 : pos + 4], "little")
    assert pos == len(stream)
    return types


class TestCrc32c:
    def test_known_vectors(self):
        # RFC 3720 test vectors.
        assert crc32c(b"") == 0
        assert crc32c(b"\x00" * 32) == 0x8A9136AA
        assert crc32c(b"\xff" * 32) == 0x62A8AB43
        assert crc32c(bytes(range(32))) == 0x46DD794E

    def test_incremental(self):
        data = b"incremental crc check"
        assert crc32c(data) == crc32c(data[7:], crc32c(data[:7]))

    def test_mask_roundtrip(self):
        for data in (b"", b"a", b"snappy framing"):
            assert unmask_crc32c(masked_crc32c(data)) == crc32c(data)

    def test_mask_changes_value(self):
        assert masked_crc32c(b"x") != crc32c(b"x")


class TestFraming:
    def test_roundtrip_small(self):
        data = b"framed snappy stream " * 100
        assert decompress_framed(compress_framed(data)) == data

    def test_roundtrip_empty(self):
        stream = compress_framed(b"")
        assert stream == STREAM_IDENTIFIER
        assert decompress_framed(stream) == b""

    def test_roundtrip_multi_chunk(self):
        data = b"ABCD" * (MAX_CHUNK_DATA // 2)  # > one chunk of source
        stream = compress_framed(data)
        types = chunk_types(stream)
        assert types[0] == CHUNK_STREAM_IDENTIFIER
        assert types.count(CHUNK_COMPRESSED) + types.count(CHUNK_UNCOMPRESSED) >= 2
        assert decompress_framed(stream) == data

    def test_incompressible_data_stored_uncompressed(self):
        import random

        rng = random.Random(3)
        data = bytes(rng.getrandbits(8) for _ in range(8192))
        types = chunk_types(compress_framed(data))
        assert CHUNK_UNCOMPRESSED in types

    def test_streaming_writes_accumulate(self):
        stream = CODEC.compress_context()
        pieces = [stream.feed(b"x" * 30000) for _ in range(5)]
        pieces.append(stream.flush())
        assert decompress_framed(b"".join(pieces)) == b"x" * 150000

    def test_padding_chunks_skipped(self):
        data = b"padded"
        stream = compress_framed(data)
        padded = (
            stream[: len(STREAM_IDENTIFIER)]
            + bytes([CHUNK_PADDING, 3, 0, 0]) + b"\x00" * 3
            + stream[len(STREAM_IDENTIFIER):]
        )
        assert decompress_framed(padded) == data

    def test_crc_mismatch_rejected(self):
        stream = bytearray(compress_framed(b"check me " * 50))
        stream[len(STREAM_IDENTIFIER) + 4] ^= 0xFF  # flip a CRC byte
        with pytest.raises(CorruptStreamError):
            decompress_framed(bytes(stream))

    def test_missing_identifier_rejected(self):
        stream = compress_framed(b"hello")[len(STREAM_IDENTIFIER):]
        with pytest.raises(CorruptStreamError):
            decompress_framed(stream)

    def test_bad_identifier_payload_rejected(self):
        with pytest.raises(CorruptStreamError):
            decompress_framed(b"\xff\x06\x00\x00sNOPpY")

    def test_unskippable_reserved_chunk_rejected(self):
        stream = STREAM_IDENTIFIER + bytes([0x02, 1, 0, 0, 0])
        with pytest.raises(CorruptStreamError):
            decompress_framed(stream)

    def test_truncated_chunk_rejected(self):
        stream = compress_framed(b"truncate " * 100)
        with pytest.raises(CorruptStreamError):
            decompress_framed(stream[:-3])


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=5000))
def test_roundtrip_arbitrary(data):
    assert decompress_framed(compress_framed(data)) == data
