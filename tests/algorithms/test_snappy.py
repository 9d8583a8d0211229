"""Unit tests for the wire-format-compatible Snappy codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.snappy import (
    SNAPPY_WINDOW,
    SnappyCodec,
    emit_elements,
    parse_elements,
)
from repro.algorithms.lz77 import Copy, Literal, TokenStream
from repro.common.errors import CorruptStreamError
from repro.common.varint import encode_varint


@pytest.fixture(scope="module")
def codec():
    return SnappyCodec()


class TestRoundTrip:
    def test_sample_inputs(self, codec, sample_inputs):
        for name, data in sample_inputs.items():
            assert codec.decompress(codec.compress(data)) == data, name

    def test_compressible_data_shrinks(self, codec):
        data = b"snappy snappy snappy " * 400
        assert len(codec.compress(data)) < len(data) / 3

    def test_random_data_grows_only_slightly(self, codec):
        import random

        rng = random.Random(2)
        data = bytes(rng.getrandbits(8) for _ in range(8192))
        assert len(codec.compress(data)) < len(data) * 1.02 + 64

    def test_no_levels_accepted_silently(self, codec):
        data = b"abc" * 100
        assert codec.compress(data, level=9) == codec.compress(data)

    def test_window_is_fixed_64k(self, codec):
        assert codec.info.fixed_window_bytes == SNAPPY_WINDOW
        assert codec.resolve_window(None) == SNAPPY_WINDOW


    def test_one_shot_decompress_copies_its_output_once(self, codec):
        """Peak traced memory of a one-shot decompress over ~1 MB of the
        repo's own source stays under 2.5x the output: the pending input,
        the history and one copy of the output, with no second output copy
        per feed."""
        import tracemalloc
        from pathlib import Path

        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        data = b"".join(p.read_bytes() for p in sorted(root.rglob("*.py")))[: 1 << 20]
        frame = codec.compress(data)
        tracemalloc.start()
        try:
            out = codec.decompress(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == data
        assert peak < 2.5 * len(out), f"peak {peak} B for {len(out)} B of output"


class TestWireFormat:
    """Byte-level checks against format_description.txt."""

    def test_preamble_is_varint_of_length(self, codec):
        compressed = codec.compress(b"hello")
        assert compressed.startswith(encode_varint(5))

    def test_short_literal_element(self):
        # literal of length 5: tag byte (5-1)<<2 | 00, then the bytes
        payload = emit_elements(TokenStream.from_tokens([Literal(b"hello")]))
        assert payload == bytes([4 << 2]) + b"hello"

    def test_long_literal_uses_extra_length_bytes(self):
        data = bytes(61)
        payload = emit_elements(TokenStream.from_tokens([Literal(data)]))
        assert payload[0] == 60 << 2  # one extra length byte
        assert payload[1] == 60  # len-1
        assert payload[2:] == data

    def test_copy1_encoding(self):
        # len 4..11, offset < 2048 -> 2-byte element
        payload = emit_elements(TokenStream.from_tokens([Literal(b"abcd"), Copy(offset=4, length=4)]))
        element = payload[1 + 4 :]
        assert len(element) == 2
        assert element[0] & 0x3 == 0b01
        assert element[1] == 4  # low offset byte

    def test_copy2_encoding(self):
        payload = emit_elements(TokenStream.from_tokens([Copy(offset=3000, length=40)]))
        assert payload[0] & 0x3 == 0b10
        assert int.from_bytes(payload[1:3], "little") == 3000

    def test_copy4_encoding_for_huge_offsets(self):
        payload = emit_elements(TokenStream.from_tokens([Copy(offset=70000, length=10)]))
        assert payload[0] & 0x3 == 0b11
        assert int.from_bytes(payload[1:5], "little") == 70000

    def test_long_copies_split_to_64_bytes(self):
        _, stream = parse_elements(
            encode_varint(300) + emit_elements(TokenStream.from_tokens([Literal(b"ab"), Copy(offset=2, length=298)]))
        )
        copies = [t for t in stream.tokens() if isinstance(t, Copy)]
        assert all(c.length <= 64 for c in copies)
        assert sum(c.length for c in copies) == 298

    def test_decoder_accepts_golden_stream(self, codec):
        # Hand-assembled: length 10, literal "ab", copy offset 2 length 8.
        golden = encode_varint(10) + bytes([1 << 2]) + b"ab" + bytes([(8 - 1) << 2 | 0b10]) + (2).to_bytes(2, "little")
        assert codec.decompress(golden) == b"ababababab"


class TestCorruptStreams:
    def test_truncated_preamble(self, codec):
        with pytest.raises(CorruptStreamError):
            codec.decompress(b"\x80")

    def test_length_mismatch_too_short(self, codec):
        stream = encode_varint(10) + emit_elements(TokenStream.from_tokens([Literal(b"abc")]))
        with pytest.raises(CorruptStreamError):
            codec.decompress(stream)

    def test_length_mismatch_too_long(self, codec):
        stream = encode_varint(2) + emit_elements(TokenStream.from_tokens([Literal(b"abc")]))
        with pytest.raises(CorruptStreamError):
            codec.decompress(stream)

    def test_zero_offset_copy_rejected(self, codec):
        stream = encode_varint(4) + bytes([(4 - 1) << 2 | 0b10, 0, 0])
        with pytest.raises(CorruptStreamError):
            codec.decompress(stream)

    def test_offset_before_start_rejected(self, codec):
        stream = encode_varint(4) + bytes([(4 - 1) << 2 | 0b10]) + (100).to_bytes(2, "little")
        with pytest.raises(CorruptStreamError):
            codec.decompress(stream)

    def test_literal_past_end_rejected(self, codec):
        stream = encode_varint(100) + bytes([50 << 2]) + b"short"
        with pytest.raises(CorruptStreamError):
            codec.decompress(stream)

    def test_truncated_copy_rejected(self, codec):
        stream = encode_varint(4) + bytes([(4 - 1) << 2 | 0b10, 0x01])
        with pytest.raises(CorruptStreamError):
            codec.decompress(stream)

    @pytest.mark.parametrize("flip", [0, 1, 5, -1])
    def test_bit_flips_never_decode_silently_to_wrong_length(self, codec, flip):
        data = b"the fleet compresses everything " * 30
        compressed = bytearray(codec.compress(data))
        compressed[flip] ^= 0x40
        try:
            out = codec.decompress(bytes(compressed))
        except CorruptStreamError:
            return
        # If it decodes, the declared length must still hold.
        assert len(out) == len(data)


class TestSkippingHeuristic:
    def test_hw_matcher_no_skipping_ratio_at_least_sw(self):
        """§6.3: hardware (no skipping) gets more chances to find matches."""
        import random

        rng = random.Random(11)
        # Mostly random with embedded repeats: skipping makes SW miss some.
        chunks = []
        for _ in range(60):
            chunks.append(bytes(rng.getrandbits(8) for _ in range(200)))
            chunks.append(b"needle-in-haystack-pattern!")
        data = b"".join(chunks)
        sw = SnappyCodec(use_skipping=True).compress(data)
        hw = SnappyCodec(use_skipping=False).compress(data)
        assert len(hw) <= len(sw)


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=6000))
def test_roundtrip_arbitrary(data):
    codec = SnappyCodec()
    assert codec.decompress(codec.compress(data)) == data
