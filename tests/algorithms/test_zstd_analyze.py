"""Unit tests for ZStd-frame structural analysis (the HW model's input).

``analyze_frame`` is the decoder run with a sink. Two checks pin that
down: on every frame the encoder writes, it reports what the retired
mirrored parser (``zstd_analyze_reference``) did; and on hand-built
frames, the one-shot decoder, the streaming context and the analysis
accept and reject alike.
"""

import pytest

from repro.algorithms.base import Operation
from repro.algorithms.container import append_content_checksum
from repro.algorithms.lz77 import Lz77Encoder, Lz77Params, TokenStream, decode_tokens
from repro.algorithms.zstd import (
    BLOCK_SIZE,
    ZSTD_FRAME,
    SequenceCoder,
    ZstdCodec,
    _encode_block_body,
    analyze_frame,
)
from repro.common.errors import CorruptStreamError, ReproError
from repro.common.varint import encode_varint
from tests.algorithms.zstd_analyze_reference import analyze_frame as reference_analyze_frame


@pytest.fixture(scope="module")
def codec():
    return ZstdCodec()


class TestAnalyzeFrame:
    def test_tokens_reconstruct_content(self, codec, sample_inputs):
        for name, data in sample_inputs.items():
            stats = analyze_frame(codec.compress(data))
            assert decode_tokens(stats.tokens) == data, name

    def test_content_and_compressed_sizes(self, codec):
        data = b"measure me " * 500
        frame = codec.compress(data)
        stats = analyze_frame(frame)
        assert stats.content_bytes == len(data)
        assert stats.compressed_bytes == len(frame)

    def test_huffman_symbols_counted_for_literal_heavy_data(self, codec):
        import random

        rng = random.Random(6)
        data = bytes(rng.choice(b"abcdefgh") for _ in range(20000))
        stats = analyze_frame(codec.compress(data))
        assert stats.huffman_symbols > 0
        assert stats.huffman_tables >= 1

    def test_rle_block_detected(self, codec):
        stats = analyze_frame(codec.compress(b"\x00" * 4096))
        assert any(b.block_type == "rle" for b in stats.blocks)

    def test_raw_block_for_random_data(self, codec):
        import random

        rng = random.Random(7)
        data = bytes(rng.getrandbits(8) for _ in range(4096))
        stats = analyze_frame(codec.compress(data))
        assert any(b.block_type == "raw" for b in stats.blocks)
        assert stats.huffman_symbols == 0

    def test_sequences_counted(self, codec):
        data = b"sequences everywhere " * 400
        stats = analyze_frame(codec.compress(data))
        assert stats.total_sequences > 0
        assert stats.total_fse_tables in (0, 3) or stats.total_fse_tables % 3 == 0

    def test_accuracy_logs_extracted(self, codec):
        data = b"accuracy logs " * 400
        stats = analyze_frame(codec.compress(data))
        compressed = [b for b in stats.blocks if b.block_type == "compressed"]
        assert compressed
        assert all(5 <= a <= 12 for b in compressed for a in b.fse_accuracy_logs)

    def test_window_log_passthrough(self, codec):
        frame = codec.compress(b"w" * 100, window_size=1 << 17)
        assert analyze_frame(frame).window_log == 17

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptStreamError):
            analyze_frame(b"JUNK" + b"\x00" * 10)

    def test_truncated_frame_rejected(self, codec):
        frame = codec.compress(b"truncate " * 200)
        with pytest.raises(CorruptStreamError):
            analyze_frame(frame[:-3])

    def test_agrees_with_decoder_on_multiblock(self, codec):
        data = (b"multi block content! " * 1300 + b"\xff") * 8  # > 128 KiB
        frame = codec.compress(data)
        stats = analyze_frame(frame)
        assert len(stats.blocks) >= 2
        assert decode_tokens(stats.tokens) == codec.decompress(frame)


TOKEN_COLUMNS = ("literal_lengths", "offsets", "match_lengths", "literals", "trailing", "breaks")


def _assert_matches_reference(frame: bytes) -> None:
    stats, reference = analyze_frame(frame), reference_analyze_frame(frame)
    for column in TOKEN_COLUMNS:
        assert getattr(stats.tokens, column) == getattr(reference.tokens, column), column
    assert stats.blocks == reference.blocks
    assert (stats.window_log, stats.content_bytes, stats.compressed_bytes) == (
        reference.window_log, reference.content_bytes, reference.compressed_bytes,
    )


class TestMatchesReference:
    """The sink reports the blocks, sizes and token columns the mirrored
    parser read from every frame the encoder writes."""

    def test_sample_inputs(self, codec, sample_inputs):
        for data in sample_inputs.values():
            for level in (-7, 3, 19):
                _assert_matches_reference(codec.compress(data, level=level))

    def test_every_hcbench_zstd_decompress_file(self, bench):
        suite = bench.suite("zstd", Operation.DECOMPRESS)
        assert any(len(file.data) > BLOCK_SIZE for file in suite.files)  # multi-block
        for file in suite.files:
            _assert_matches_reference(suite.compressed_form(file))


# --- Hand-built frames for the agreement table -----------------------------


def _raw(data: bytes, last: bool = False) -> bytes:
    return bytes([0x00 | last << 7]) + encode_varint(len(data)) + data


def _rle(byte: int, size: int, last: bool = False) -> bytes:
    return bytes([0x01 | last << 7]) + encode_varint(size) + bytes([byte])


def _compressed(stream: TokenStream, raw_size: int, last: bool = False) -> bytes:
    body = _encode_block_body(stream, SequenceCoder(9))
    return bytes([0x02 | last << 7]) + encode_varint(raw_size) + encode_varint(len(body)) + body


def _frame(blocks, content: bytes) -> bytes:
    preamble = ZSTD_FRAME.encode_preamble(content_length=len(content), window_log=17)
    return append_content_checksum(preamble + b"".join(blocks), content)


TEXT = b"the block loop decodes this text, and this text again. " * 8
TEXT_STREAM = Lz77Encoder(Lz77Params()).encode(TEXT)
#: Raw, RLE and compressed blocks: the valid frame the truncation cases cut.
MIXED_BLOCKS = [
    _raw(b"raw block"),
    _rle(ord("r"), 40),
    _compressed(TEXT_STREAM, len(TEXT), last=True),
]
MIXED_CONTENT = b"raw block" + b"r" * 40 + TEXT
MIXED = _frame(MIXED_BLOCKS, MIXED_CONTENT)


def _cut_inside(index: int, into: int) -> bytes:
    """``MIXED`` cut ``into`` bytes into its block ``index``."""
    start = len(MIXED) - 4 - sum(len(block) for block in MIXED_BLOCKS[index:])
    return MIXED[: start + into]


def _size_swap() -> bytes:
    # Two compressed blocks each declare the other's size: the declared
    # sizes still sum to the frame's content length.
    first, second = b"the first block's text, " * 3, b"second" * 5
    blocks = [
        _compressed(Lz77Encoder(Lz77Params()).encode(first), len(second)),
        _compressed(Lz77Encoder(Lz77Params()).encode(second), len(first), last=True),
    ]
    return _frame(blocks, first + second)


AGREEMENT_CASES = {
    "raw-rle-compressed": (MIXED, MIXED_CONTENT),
    "oversize-rle": (
        _frame([_rle(ord("a"), BLOCK_SIZE + 1, last=True)], b"a" * (BLOCK_SIZE + 1)),
        CorruptStreamError,
    ),
    "empty-rle-then-raw": (_frame([_rle(ord("z"), 0), _raw(b"abc", last=True)], b"abc"), b"abc"),
    "copy-into-previous-block": (
        _frame([_raw(b"abcd"), _compressed(TokenStream([0], [4], [4], b"", 0), 4, last=True)],
               b"abcdabcd"),
        CorruptStreamError,
    ),
    "block-size-mismatch": (_size_swap(), CorruptStreamError),
    "truncated-raw": (_cut_inside(0, 5), CorruptStreamError),
    "truncated-rle": (_cut_inside(1, 2), CorruptStreamError),
    "truncated-compressed-header": (_cut_inside(2, 2), CorruptStreamError),
    "truncated-compressed-body": (_cut_inside(2, len(MIXED_BLOCKS[2]) // 2), CorruptStreamError),
}


def _one_shot(frame: bytes) -> bytes:
    return ZstdCodec().decompress(frame)


def _streamed(chunk: int):
    def decode(frame: bytes) -> bytes:
        ctx = ZstdCodec().decompress_context()
        out = b"".join(ctx.feed(frame[i : i + chunk]) for i in range(0, len(frame), chunk))
        return out + ctx.flush(end=True)

    return decode


def _analyzed(frame: bytes) -> bytes:
    stats = analyze_frame(frame)
    return decode_tokens(stats.tokens, expected_length=stats.content_bytes)


DECODERS = {
    "one-shot": _one_shot,
    "stream-whole": _streamed(1 << 30),
    "stream-bytewise": _streamed(1),
    "analyze": _analyzed,
}


def _outcome(decode, frame: bytes):
    try:
        return decode(frame)
    except ReproError as exc:  # the error *type* is what must agree
        return type(exc)


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_decoders_agree(case):
    """Every consumer of the block grammar accepts and rejects alike, with
    the same output and the same error type."""
    frame, expected = AGREEMENT_CASES[case]
    outcomes = {name: _outcome(decode, frame) for name, decode in DECODERS.items()}
    assert outcomes == {name: expected for name in DECODERS}
