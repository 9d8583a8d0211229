"""Unit tests for dictionary compression (§3.4's 'separate dictionary')."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.lz77 import Copy, Literal, TokenStream, decode_tokens
from repro.algorithms.zstd import ZstdCodec
from repro.algorithms.zstd_dict import ZstdDictCodec, strip_prefix_tokens, train_dictionary
from repro.common.errors import CorruptStreamError

RECORD = (
    b'{"user_id":12345,"operation":"read","status_code":200,"region":"us-east1",'
    b'"service":"storage-frontend","latency_us":'
)


def _record(i: int) -> bytes:
    return RECORD + str(100 + i * 7).encode() + b"}\n"


@pytest.fixture(scope="module")
def dictionary():
    return train_dictionary([_record(i) for i in range(50)], max_size=2048)


class TestStripPrefixTokens:
    def test_drop_trim_keep(self):
        tokens = [Literal(b"abcdef"), Copy(offset=3, length=6), Literal(b"xy")]
        stripped = strip_prefix_tokens(TokenStream.from_tokens(tokens), 8).tokens()
        # First literal gone (6 <= 8); copy trimmed from 6 to 4; literal kept.
        assert stripped[0] == Copy(offset=3, length=4)
        assert stripped[1] == Literal(b"xy")

    def test_literal_boundary_split(self):
        tokens = [Literal(b"0123456789")]
        assert strip_prefix_tokens(TokenStream.from_tokens(tokens), 4).tokens() == [Literal(b"456789")]

    def test_zero_prefix_identity(self):
        tokens = [Literal(b"ab"), Copy(offset=2, length=4)]
        assert strip_prefix_tokens(TokenStream.from_tokens(tokens), 0).tokens() == tokens

    def test_copy_suffix_semantics_preserved(self):
        # Full stream decodes to X; stripped stream must decode to X[p:]
        # when executed with X[:p] as preloaded history.
        data = b"abcabcabcabc"
        from repro.algorithms.lz77 import Lz77Encoder

        stream = Lz77Encoder().encode(data)
        for p in (0, 3, 5, 7):
            stripped = strip_prefix_tokens(stream, p).tokens()
            # Execute with prefix seeded.
            out = bytearray(data[:p])
            for token in stripped:
                if isinstance(token, Literal):
                    out += token.data
                else:
                    start = len(out) - token.offset
                    for i in range(token.length):
                        out.append(out[start + i])
            assert bytes(out) == data, p


class TestDictCodec:
    def test_roundtrip(self, dictionary):
        codec = ZstdDictCodec(dictionary)
        payload = _record(999)
        assert codec.decompress(codec.compress(payload)) == payload

    def test_dictionary_improves_small_call_ratio(self, dictionary):
        """The point of dictionaries: small fleet calls compress far better."""
        payload = _record(4242)
        plain = len(ZstdCodec().compress(payload))
        with_dict = len(ZstdDictCodec(dictionary).compress(payload))
        assert with_dict < plain * 0.8

    def test_large_payload_roundtrip(self, dictionary):
        codec = ZstdDictCodec(dictionary)
        payload = b"".join(_record(i) for i in range(5000))  # multi-block
        assert codec.decompress(codec.compress(payload)) == payload

    def test_empty_payload(self, dictionary):
        codec = ZstdDictCodec(dictionary)
        assert codec.decompress(codec.compress(b"")) == b""

    def test_wrong_dictionary_rejected(self, dictionary):
        frame = ZstdDictCodec(dictionary).compress(_record(1))
        other = ZstdDictCodec(b"a completely different dictionary body")
        with pytest.raises(CorruptStreamError, match="different dictionary"):
            other.decompress(frame)

    def test_plain_decoder_rejects_dict_frames(self, dictionary):
        frame = ZstdDictCodec(dictionary).compress(_record(1))
        with pytest.raises(CorruptStreamError):
            ZstdCodec().decompress(frame)

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValueError):
            ZstdDictCodec(b"")

    def test_truncation_detected(self, dictionary):
        frame = ZstdDictCodec(dictionary).compress(b"".join(_record(i) for i in range(50)))
        with pytest.raises(CorruptStreamError):
            ZstdDictCodec(dictionary).decompress(frame[:-4])

    def test_levels_respected(self, dictionary):
        codec = ZstdDictCodec(dictionary)
        payload = b"".join(_record(i) for i in range(200))
        for level in (-3, 3, 9):
            assert codec.decompress(codec.compress(payload, level=level)) == payload


class TestTrainDictionary:
    def test_size_bounded(self):
        dictionary = train_dictionary([_record(i) for i in range(20)], max_size=512)
        assert 0 < len(dictionary) <= 512

    def test_contains_common_substring(self):
        dictionary = train_dictionary([_record(i) for i in range(20)], max_size=4096)
        assert b"status_code" in dictionary or b"region" in dictionary

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            train_dictionary([])

    def test_unique_samples_still_produce_something(self):
        import random

        rng = random.Random(1)
        samples = [bytes(rng.getrandbits(8) for _ in range(64)) for _ in range(4)]
        assert train_dictionary(samples)


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=2000))
def test_roundtrip_arbitrary_payloads(data):
    codec = ZstdDictCodec(RECORD * 4)
    assert codec.decompress(codec.compress(data)) == data
