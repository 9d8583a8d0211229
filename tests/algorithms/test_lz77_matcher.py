"""The head/chain matcher equals the retained LRU-bucket loop, and token
streams keep their element count.

``Lz77Encoder.encode`` walks a zlib-style head/chain table newest first;
``lz77_reference.reference_encode`` is the per-slot LRU bucket loop it
replaced. Both must produce the same tokens and the same ``MatcherStats``
counts on every parameter point: the golden vectors, the DSE figures and
the cycle model all read them. ``len(TokenStream)`` is the element count
the cycle model charges per token, so parsed streams must keep literal
elements that sit back to back.
"""

import random

import pytest

from repro.algorithms.container import append_content_checksum
from repro.algorithms.lz77 import (
    Copy,
    Literal,
    Lz77Encoder,
    Lz77Params,
    MatcherStats,
    TokenStream,
)
from repro.algorithms.snappy import parse_elements
from repro.algorithms.zstd import ZSTD_FRAME, SequenceCoder, _encode_block_body, analyze_frame
from repro.common.varint import encode_varint
from tests.algorithms.lz77_reference import reference_encode

HASH_FUNCTIONS = ("multiplicative", "zstd5", "xor_shift")


def _input(rng: random.Random, size: int) -> bytes:
    """Random bytes, a two-letter alphabet, or words with noise."""
    kind = rng.randrange(4)
    if kind == 0:
        return bytes(rng.getrandbits(8) for _ in range(size))
    if kind == 1:
        return bytes(rng.choice(b"ab\x00") for _ in range(size))
    words = [
        bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 12)))
        for _ in range(rng.randrange(1, 20))
    ]
    out = bytearray()
    while len(out) < size:
        out += rng.choice(words)
        if kind == 3 and rng.random() < 0.3:
            out.append(rng.getrandbits(8))
    return bytes(out[:size])


def _params(rng: random.Random, index: int) -> Lz77Params:
    min_match = (3, 4)[index % 2]
    return Lz77Params(
        window_size=rng.choice([16, 64, 1024, 65535]),
        # Small tables force collisions; 2**18 entries exceed the inputs
        # enough to take the densely numbered table.
        hash_table_entries=1 << rng.choice([2, 6, 10, 14, 18]),
        associativity=1 + index % 8,
        hash_table_contents=("position", "position_and_tag")[index // 2 % 2],
        hash_function=HASH_FUNCTIONS[index % 3],
        max_match_length=rng.choice([None, min_match, min_match + 1, 16, 100]),
        use_skipping=index % 5 == 0,
        min_match=min_match,
        lazy=index // 4 % 2 == 1,
    )


#: Sizes straddle the scalar/numpy hashing threshold (512 bytes).
SIZES = (0, 1, 3, 5, 60, 300, 700, 3000)
POINTS = [_params(random.Random(index), index) for index in range(96)]


def _assert_equivalent(params: Lz77Params, data: bytes) -> None:
    encoder = Lz77Encoder(params)
    stream, stats = encoder.encode_with_stats(data)
    expected_stats = MatcherStats()
    expected = reference_encode(encoder, data, expected_stats)
    assert stream.tokens() == expected
    assert len(stream) == len(expected)
    assert stats == expected_stats


def test_random_points_cover_every_knob():
    assert {p.associativity for p in POINTS} == set(range(1, 9))
    assert {p.hash_function for p in POINTS} == set(HASH_FUNCTIONS)
    assert {p.hash_table_contents for p in POINTS} == {"position", "position_and_tag"}
    assert {p.min_match for p in POINTS} == {3, 4}
    assert {p.lazy for p in POINTS} == {True, False}
    assert {p.use_skipping for p in POINTS} == {True, False}
    assert any(p.max_match_length == p.min_match for p in POINTS)
    assert any(p.max_match_length is None for p in POINTS)


@pytest.mark.parametrize("index", range(len(POINTS)))
def test_encode_equals_reference_encode(index):
    rng = random.Random(1000 + index)
    for size in SIZES:
        _assert_equivalent(POINTS[index], _input(rng, size))


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("min_match", [3, 4])
def test_long_matches_equal_reference(lazy, min_match):
    # Matches past the word-compare stretch extend a memcmp block at a time.
    rng = random.Random(7)
    block = bytes(rng.getrandbits(8) for _ in range(300))
    data = block + b"x" + block * 3 + block[:77] + b"a" * 700
    _assert_equivalent(Lz77Params(min_match=min_match, lazy=lazy), data)


def test_equal_length_tie_inside_one_set_takes_the_oldest():
    # At 10, both 0 and 5 match "abcd" and then differ: a tie. The bucket
    # loop scanned oldest first taking ">", the chain walks newest first
    # taking ">=": both keep position 0.
    params = Lz77Params(associativity=2)
    data = b"abcdXabcdYabcdZ"
    _assert_equivalent(params, data)
    stream = Lz77Encoder(params).encode(data)
    assert stream.offsets == [5, 10]


def test_lazy_double_insert_occupies_two_ways():
    # min_match 3 + lazy: the lookahead probe inserts position 7 and the
    # in-match insert of the length-3 match at 6 inserts it again, into the
    # same set (its fourth byte is zero, so both hashes agree). Both
    # entries hold a way and both are checked; a table indexed per
    # position would keep one, evict less and pick offset 2 at 10.
    params = Lz77Params(min_match=3, lazy=True, associativity=2, hash_table_entries=1 << 10)
    data = b"\x00\x00ab\x00a\x00\x00a\x00a\x00"
    _assert_equivalent(params, data)
    stream, stats = Lz77Encoder(params).encode_with_stats(data)
    assert stream.tokens() == [Literal(b"\x00\x00ab\x00a"), Copy(6, 3), Copy(5, 3)]
    assert stats.candidates_checked == 4


class TestTokenCount:
    def test_encoder_output(self):
        data = b"the rain in spain falls mainly " * 40 + bytes(range(256))
        encoder = Lz77Encoder(Lz77Params())
        stream = encoder.encode(data)
        expected = reference_encode(encoder, data)
        assert len(stream) == len(expected)
        assert stream.tokens() == expected
        assert TokenStream.from_tokens(expected).tokens() == expected

    def test_zstd_frame_mixing_raw_rle_and_compressed_blocks(self):
        # Hand-assembled blocks: raw, RLE, compressed, RLE of one byte, raw.
        # Back-to-back literal elements straddle every block boundary.
        payload = b"compressed block payload, compressed block payload!"
        block_stream = Lz77Encoder(Lz77Params()).encode(payload)
        body = _encode_block_body(block_stream, SequenceCoder(9))
        blocks = [
            bytes([0x00]) + encode_varint(5) + b"raw-1",
            bytes([0x01]) + encode_varint(20) + b"z",
            bytes([0x02]) + encode_varint(len(payload)) + encode_varint(len(body)) + body,
            bytes([0x01]) + encode_varint(1) + b"q",
            bytes([0x80]) + encode_varint(3) + b"end",
        ]
        content = b"raw-1" + b"z" * 20 + payload + b"q" + b"end"
        frame = ZSTD_FRAME.encode_preamble(content_length=len(content), window_log=16)
        frame = append_content_checksum(frame + b"".join(blocks), content)

        stream = analyze_frame(frame).tokens
        expected = (
            [Literal(b"raw-1"), Literal(b"z"), Copy(1, 19)]
            + block_stream.tokens()
            + [Literal(b"q"), Literal(b"end")]
        )
        assert block_stream.tokens()[0] == Literal(b"compressed block payload, ")
        assert stream.tokens() == expected
        assert len(stream) == len(expected)
        assert stream.num_copies == 1 + block_stream.num_copies
        assert stream.literals == b"raw-1z" + block_stream.literals + b"qend"

    def test_snappy_frame_with_consecutive_literal_elements(self):
        elements = (
            bytes([2 << 2]) + b"abc"  # literal "abc"
            + bytes([1 << 2]) + b"de"  # literal "de", straight after
            + bytes([(5 - 4) << 2 | 0b01, 5])  # copy1: offset 5, length 5
            + bytes([0 << 2]) + b"f"
            + bytes([0 << 2]) + b"g"
        )
        expected_length, stream = parse_elements(encode_varint(12) + elements)
        expected = [Literal(b"abc"), Literal(b"de"), Copy(5, 5), Literal(b"f"), Literal(b"g")]
        assert expected_length == 12
        assert stream.tokens() == expected
        assert len(stream) == 5
        assert (stream.literal_lengths, stream.trailing) == ([5], 2)
