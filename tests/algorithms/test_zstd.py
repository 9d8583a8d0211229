"""Unit tests for the ZStd-like codec: container, levels, windows, sequences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.lz77 import Copy, Literal, TokenStream, TokenStreamBuilder, decode_tokens
from repro.algorithms.zstd import (
    BLOCK_SIZE,
    DEFAULT_LEVEL,
    MAGIC,
    MAX_LEVEL,
    MIN_LEVEL,
    SequenceCoder,
    ZstdCodec,
    code_to_value,
    decode_with_stats,
    level_params,
    value_to_code,
)
from repro.common.errors import ConfigError, CorruptStreamError
from repro.common.varint import decode_varint, encode_varint


@pytest.fixture(scope="module")
def codec():
    return ZstdCodec()


class TestRoundTrip:
    def test_sample_inputs(self, codec, sample_inputs):
        for name, data in sample_inputs.items():
            assert codec.decompress(codec.compress(data)) == data, name

    @pytest.mark.parametrize("level", [-7, -1, 1, 3, 9, 19, 22])
    def test_levels_roundtrip(self, codec, level):
        data = b"levels change effort, not the format " * 80
        assert codec.decompress(codec.compress(data, level=level)) == data

    @pytest.mark.parametrize("window", [1 << 15, 1 << 17, 1 << 20])
    def test_windows_roundtrip(self, codec, window):
        data = b"window " * 600
        assert codec.decompress(codec.compress(data, window_size=window)) == data

    def test_multi_block_input(self, codec):
        data = (b"block boundary " * 1000 + b"X") * 10  # > 128 KiB
        assert len(data) > BLOCK_SIZE
        assert codec.decompress(codec.compress(data)) == data

    def test_rle_block(self, codec):
        data = b"\x42" * 5000
        compressed = codec.compress(data)
        assert len(compressed) < 50
        assert codec.decompress(compressed) == data

    def test_incompressible_falls_back_to_raw_block(self, codec):
        import random

        rng = random.Random(4)
        data = bytes(rng.getrandbits(8) for _ in range(10000))
        compressed = codec.compress(data)
        assert len(compressed) <= len(data) + 32  # bounded expansion
        assert codec.decompress(compressed) == data

    def test_heavyweight_beats_snappy_on_text(self, codec, sample_inputs):
        from repro.algorithms.snappy import SnappyCodec

        text = sample_inputs["text"]
        zstd_size = len(codec.compress(text, level=DEFAULT_LEVEL))
        snappy_size = len(SnappyCodec().compress(text))
        assert zstd_size < snappy_size

    def test_magic_prefix(self, codec):
        assert codec.compress(b"x").startswith(MAGIC)

    def test_compressed_output_decodable_after_reencode(self, codec):
        data = b"idempotence check " * 50
        once = codec.compress(data)
        twice = codec.compress(once)
        assert codec.decompress(codec.decompress(twice)) == data


class TestLevels:
    def test_level_clamping(self, codec):
        data = b"clamp " * 200
        assert codec.compress(data, level=-100) == codec.compress(data, level=MIN_LEVEL)
        assert codec.compress(data, level=100) == codec.compress(data, level=MAX_LEVEL)

    def test_level_params_monotone_effort(self):
        previous_entries = 0
        previous_assoc = 0
        for level in range(MIN_LEVEL, MAX_LEVEL + 1):
            params = level_params(level)
            assert (1 << params.hash_table_log) >= previous_entries
            assert params.associativity >= previous_assoc
            previous_entries = 1 << params.hash_table_log
            previous_assoc = params.associativity

    def test_default_window_grows_with_level(self):
        assert level_params(22).default_window > level_params(1).default_window

    def test_high_level_ratio_not_worse_on_structured_data(self, codec):
        from repro.corpus.sources import text_source

        data = text_source(5, 60_000)
        low = len(codec.compress(data, level=-5))
        high = len(codec.compress(data, level=9))
        assert high <= low * 1.02

    def test_bad_window_rejected(self, codec):
        with pytest.raises(ConfigError):
            codec.compress(b"x" * 100, window_size=1000)

    @pytest.mark.parametrize("window", [1 << 7, 1 << 9, 1 << 28])
    def test_out_of_range_window_rejected_at_compress_time(self, codec, window):
        """The encoder must never emit a frame its own decoder rejects:
        window logs outside [10, 27] fail fast with ConfigError."""
        with pytest.raises(ConfigError):
            codec.compress(b"x" * 100, window_size=window)

    def test_boundary_windows_roundtrip(self, codec):
        data = b"boundary windows " * 100
        for window in (1 << 10, 1 << 27):
            assert codec.decompress(codec.compress(data, window_size=window)) == data


class TestSequenceConversion:
    def test_tokens_to_sequences_roundtrip(self):
        tokens = [
            Literal(b"abcd"),
            Copy(offset=4, length=8),
            Copy(offset=2, length=5),
            Literal(b"tail"),
        ]
        stream = TokenStream.from_tokens(tokens)
        assert stream.literal_lengths == [4, 0]
        assert stream.offsets == [4, 2]
        assert stream.match_lengths == [8, 5]
        assert stream.literals == b"abcdtail"
        assert stream.trailing == 4
        assert stream.tokens() == tokens
        assert decode_tokens(stream) == b"abcd" * 3 + b"cdcdc" + b"tail"

    @staticmethod
    def _block(literals, literal_lengths, trailing):
        TokenStreamBuilder().extend(
            literals, literal_lengths, [1] * len(literal_lengths), [4] * len(literal_lengths), trailing
        )

    def test_literal_overrun_rejected(self):
        with pytest.raises(CorruptStreamError):
            self._block(b"short", [10], 0)

    def test_trailing_mismatch_rejected(self):
        with pytest.raises(CorruptStreamError):
            self._block(b"abcdef", [2], 1)


class TestSeqToCode:
    @pytest.mark.parametrize("value", [0, 1, 2, 3, 4, 7, 8, 100, 65535, 1 << 20])
    def test_roundtrip(self, value):
        code, width, bits = value_to_code(value)
        assert code_to_value(code, bits) == value
        assert bits < (1 << width) if width else bits == 0

    def test_code_zero_is_value_zero(self):
        assert value_to_code(0) == (0, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            value_to_code(-1)

    def test_code_is_bit_length(self):
        assert value_to_code(1)[0] == 1
        assert value_to_code(255)[0] == 8
        assert value_to_code(256)[0] == 9


class TestSequenceCoder:
    def test_roundtrip(self):
        columns = (
            [i % 7 for i in range(200)],
            [(i % 30) + 1 for i in range(200)],
            [(i % 11) + 3 for i in range(200)],
        )
        blob = SequenceCoder(9).encode(*columns)
        *decoded, accuracy_logs, consumed = SequenceCoder.decode_columns(blob, 0)
        assert consumed == len(blob)
        assert tuple(decoded) == columns
        assert accuracy_logs == [9, 9, 9]

    def test_empty_sequences(self):
        blob = SequenceCoder(9).encode([], [], [])
        assert SequenceCoder.decode_columns(blob, 0) == ([], [], [], [], len(blob))

    def test_sequence_count_beyond_block_rejected(self):
        # A one-symbol FSE table reads no bits per symbol: only the count
        # bounds the decode loop.
        blob = bytearray(SequenceCoder(9).encode([1] * 20, [2] * 20, [4] * 20))
        blob[0:1] = encode_varint(BLOCK_SIZE + 1)
        with pytest.raises(CorruptStreamError, match="sequence count"):
            SequenceCoder.decode_columns(bytes(blob), 0)

    def test_truncated_rejected(self):
        blob = SequenceCoder(9).encode([1] * 20, [2] * 20, [4] * 20)
        with pytest.raises(CorruptStreamError):
            SequenceCoder.decode_columns(blob[: len(blob) // 2], 0)


class TestCorruptFrames:
    def test_bad_magic(self, codec):
        with pytest.raises(CorruptStreamError):
            codec.decompress(b"NOPE" + b"\x00" * 20)

    def test_bad_version(self, codec):
        frame = bytearray(codec.compress(b"hello world" * 10))
        frame[4] = 99
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(frame))

    def test_bad_window_log(self, codec):
        frame = bytearray(codec.compress(b"hello world" * 10))
        frame[5] = 40
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(frame))

    def test_truncated_frame(self, codec):
        frame = codec.compress(b"truncate me " * 100)
        with pytest.raises(CorruptStreamError):
            codec.decompress(frame[: len(frame) - 5])

    def test_missing_last_block(self, codec):
        frame = bytearray(codec.compress(b"q" * 10))
        # Clear the last-block flag on the (single) block tag.
        # Frame: magic(4) version(1) windowlog(1) varint-len... find block tag.
        pos = 6
        from repro.common.varint import decode_varint

        _, pos = decode_varint(bytes(frame), pos)
        frame[pos] &= 0x7F
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(frame))

    def test_declared_length_mismatch(self, codec):
        frame = bytearray(codec.compress(b"hello"))
        # Inflate the declared content size (single-byte varint here).
        from repro.common.varint import decode_varint, encode_varint

        value, end = decode_varint(bytes(frame), 6)
        assert end == 7 and len(encode_varint(value + 1)) == 1
        frame[6] = value + 1
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(frame))


    def test_unknown_literals_mode(self, codec):
        data = b"literals mode " * 200
        frame = bytearray(codec.compress(data))
        assert [b.block_type for b in decode_with_stats(bytes(frame))[1].blocks] == [
            "compressed"
        ]
        # Preamble: magic(4) version(1) window log(1) varint content length;
        # then the block tag, varint raw size and varint body size; the
        # body opens with the literals-mode byte.
        _, pos = decode_varint(bytes(frame), 6)
        _, pos = decode_varint(bytes(frame), pos + 1)
        _, pos = decode_varint(bytes(frame), pos)
        assert frame[pos] in (0, 1)
        frame[pos] = 7
        corrupt = bytes(frame)
        with pytest.raises(CorruptStreamError, match="unknown literals mode 7"):
            codec.decompress(corrupt)
        with pytest.raises(CorruptStreamError, match="unknown literals mode 7"):
            decode_with_stats(corrupt)
        ctx = codec.decompress_context()
        with pytest.raises(CorruptStreamError, match="unknown literals mode 7"):
            for i in range(len(corrupt)):
                ctx.feed(corrupt[i : i + 1])
            ctx.flush()


class TestHardwareOverrides:
    def test_lz77_override_restricts_offsets(self):
        from repro.algorithms.lz77 import Lz77Params

        data = (b"far away pattern " * 400) + b"far away pattern "
        hw = ZstdCodec(lz77_params=Lz77Params(window_size=2048))
        assert hw.decompress(hw.compress(data)) == data

    def test_accuracy_override_roundtrip(self):
        hw = ZstdCodec(accuracy_log=7)
        data = b"accuracy " * 300
        assert hw.decompress(hw.compress(data)) == data

    def test_smaller_window_never_improves_ratio(self, codec):
        from repro.algorithms.lz77 import Lz77Params
        from repro.corpus.sources import text_source

        data = text_source(9, 40_000)
        small = ZstdCodec(lz77_params=Lz77Params(window_size=1024))
        big = ZstdCodec(lz77_params=Lz77Params(window_size=65536))
        assert len(small.compress(data)) >= len(big.compress(data))


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=5000), st.sampled_from([-5, 1, 3, 9]))
def test_roundtrip_arbitrary(data, level):
    codec = ZstdCodec()
    assert codec.decompress(codec.compress(data, level=level)) == data
