"""Unit + property tests for the parameterized LZ77 matcher/decoder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.lz77 import (
    Copy,
    Literal,
    Lz77Encoder,
    Lz77Params,
    TokenStream,
    decode_tokens,
    split_long_copies,
)
from repro.common.errors import ConfigError, CorruptStreamError


def roundtrip(data: bytes, params: Lz77Params = Lz77Params()) -> TokenStream:
    stream = Lz77Encoder(params).encode(data)
    assert decode_tokens(stream, expected_length=len(data)) == data
    return stream


class TestEncoderRoundTrip:
    def test_empty(self):
        assert len(roundtrip(b"")) == 0

    def test_short_input_is_single_literal(self):
        stream = roundtrip(b"abc")
        assert len(stream) == 1
        assert stream.tokens() == [Literal(b"abc")]

    def test_repetitive_data_produces_copies(self):
        stream = roundtrip(b"abcd" * 256)
        assert stream.num_copies >= 1
        assert stream.copy_bytes > stream.literal_bytes

    def test_incompressible_data_is_mostly_literals(self):
        import random

        rng = random.Random(5)
        data = bytes(rng.getrandbits(8) for _ in range(4096))
        stream = roundtrip(data)
        assert stream.literal_bytes > 0.9 * len(data)

    def test_overlapping_copy_roundtrip(self):
        # "aaaa..." forces offset-1 copies longer than the offset.
        stream = roundtrip(b"a" * 500)
        assert any(isinstance(t, Copy) and t.offset < t.length for t in stream.tokens())

    def test_all_byte_values(self):
        data = bytes(range(256)) * 8
        roundtrip(data)

    @pytest.mark.parametrize("window", [64, 1024, 65535])
    def test_window_bounds_offsets(self, window):
        data = (b"0123456789abcdef" * 64) * 8
        stream = roundtrip(data, Lz77Params(window_size=window))
        assert all(c.offset <= window for c in stream.tokens() if isinstance(c, Copy))

    def test_max_match_length_respected(self):
        params = Lz77Params(max_match_length=16)
        stream = roundtrip(b"z" * 1000, params)
        assert all(c.length <= 16 for c in stream.tokens() if isinstance(c, Copy))

    @pytest.mark.parametrize("min_match", [3, 4])
    def test_max_match_length_equal_to_min_match_is_the_cap(self, min_match):
        params = Lz77Params(min_match=min_match, max_match_length=min_match)
        stream = roundtrip(b"abcdefgh" * 20, params)
        copies = [c for c in stream.tokens() if isinstance(c, Copy)]
        assert copies and all(c.length == min_match for c in copies)

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_associativity_roundtrips(self, assoc):
        data = b"the rain in spain " * 100
        roundtrip(data, Lz77Params(associativity=assoc))

    def test_higher_associativity_never_reduces_match_bytes(self):
        data = (b"alpha beta gamma delta " * 40 + b"alpha beta gamma delta epsilon ") * 4
        low = Lz77Encoder(Lz77Params(associativity=1)).encode(data)
        high = Lz77Encoder(Lz77Params(associativity=8)).encode(data)
        assert high.copy_bytes >= low.copy_bytes

    def test_lazy_matching_roundtrips_and_does_not_hurt(self):
        data = (b"abcdefgh12345678" * 50 + b"xbcdefgh12345678") * 6
        greedy = Lz77Encoder(Lz77Params(lazy=False)).encode(data)
        lazy = Lz77Encoder(Lz77Params(lazy=True)).encode(data)
        assert decode_tokens(lazy) == data
        assert lazy.copy_bytes >= greedy.copy_bytes * 0.95

    def test_min_match_3_finds_short_matches(self):
        data = (b"abcX" + b"abcY") * 200  # only 3-byte repeats
        four = Lz77Encoder(Lz77Params(min_match=4)).encode(data)
        three = Lz77Encoder(Lz77Params(min_match=3)).encode(data)
        assert decode_tokens(three) == data
        assert three.copy_bytes >= four.copy_bytes

    def test_skipping_reduces_hash_work_on_random_data(self):
        import random

        rng = random.Random(9)
        data = bytes(rng.getrandbits(8) for _ in range(16384))
        _, no_skip = Lz77Encoder(Lz77Params(use_skipping=False)).encode_with_stats(data)
        _, skip = Lz77Encoder(Lz77Params(use_skipping=True)).encode_with_stats(data)
        assert skip.positions_hashed < no_skip.positions_hashed

    def test_tagged_table_produces_same_output_kind(self):
        data = b"hello world " * 200
        plain = Lz77Encoder(Lz77Params(hash_table_contents="position")).encode(data)
        tagged = Lz77Encoder(Lz77Params(hash_table_contents="position_and_tag")).encode(data)
        assert decode_tokens(tagged) == data
        # tags only filter false candidates; match quality is preserved
        assert tagged.copy_bytes == pytest.approx(plain.copy_bytes, rel=0.05)


class TestMatcherStats:
    def test_stats_account_all_bytes(self):
        data = b"compression " * 300
        stream, stats = Lz77Encoder(Lz77Params()).encode_with_stats(data)
        assert stats.match_bytes + stats.literal_bytes == len(data)
        assert stats.match_bytes == stream.copy_bytes

    def test_collision_rate_bounds(self):
        data = b"ratio " * 500
        _, stats = Lz77Encoder(Lz77Params()).encode_with_stats(data)
        assert 0.0 <= stats.collision_rate <= 1.0

    def test_small_table_increases_collisions(self):
        data = bytes((i * 37 + (i >> 3)) & 0xFF for i in range(16384)) * 2
        _, big = Lz77Encoder(Lz77Params(hash_table_entries=1 << 15)).encode_with_stats(data)
        _, small = Lz77Encoder(Lz77Params(hash_table_entries=1 << 6)).encode_with_stats(data)
        assert small.candidates_rejected >= big.candidates_rejected


class TestTokenStream:
    def test_fallback_counts(self):
        tokens = [
            Literal(b"x" * 10),
            Copy(offset=100, length=5),
            Copy(offset=5000, length=7),
            Copy(offset=70000, length=9),
        ]
        stream = TokenStream.from_tokens(tokens)
        assert stream.fallback_copy_count(4096) == 2
        assert stream.fallback_copy_bytes(4096) == 16
        assert stream.fallback_copy_count(1 << 20) == 0

    def test_output_length(self):
        stream = TokenStream.from_tokens([Literal(b"ab"), Copy(offset=2, length=6)])
        assert stream.output_length() == 8

    def test_array_views(self):
        stream = TokenStream.from_tokens([Literal(b"abc"), Copy(offset=3, length=4)])
        assert (stream.literal_lengths, stream.trailing) == ([3], 0)
        assert list(stream.copy_offsets) == [3]
        assert list(stream.copy_lengths) == [4]


class TestDecoder:
    def test_offset_beyond_output_raises(self):
        with pytest.raises(CorruptStreamError):
            decode_tokens(TokenStream.from_tokens([Copy(offset=1, length=1)]))

    def test_length_mismatch_raises(self):
        with pytest.raises(CorruptStreamError):
            decode_tokens(TokenStream.from_tokens([Literal(b"abc")]), expected_length=4)

    def test_copy_validation_in_token_constructors(self):
        with pytest.raises(ValueError):
            Copy(offset=0, length=1)
        with pytest.raises(ValueError):
            Copy(offset=1, length=0)


class TestSplitLongCopies:
    def test_splits_preserve_semantics(self):
        stream = TokenStream.from_tokens([Literal(b"abcdefgh"), Copy(offset=8, length=200)])
        split = split_long_copies(stream, 64)
        assert decode_tokens(split) == decode_tokens(stream)
        assert all(t.length <= 64 for t in split.tokens() if isinstance(t, Copy))
        assert len(split) == 1 + 4

    def test_overlapping_copy_split(self):
        stream = TokenStream.from_tokens([Literal(b"ab"), Copy(offset=2, length=100)])
        assert decode_tokens(split_long_copies(stream, 7)) == decode_tokens(stream)

    def test_short_copies_untouched(self):
        tokens = [Literal(b"abcd"), Copy(offset=4, length=4)]
        assert split_long_copies(TokenStream.from_tokens(tokens), 64).tokens() == tokens


class TestParamsValidation:
    def test_non_power_of_two_table_rejected(self):
        with pytest.raises(ConfigError):
            Lz77Params(hash_table_entries=1000)

    def test_tiny_window_rejected(self):
        with pytest.raises(ConfigError):
            Lz77Params(window_size=2)

    def test_bad_associativity_rejected(self):
        with pytest.raises(ConfigError):
            Lz77Params(associativity=0)

    def test_bad_contents_rejected(self):
        with pytest.raises(ConfigError):
            Lz77Params(hash_table_contents="everything")

    def test_bad_hash_function_rejected(self):
        with pytest.raises(KeyError):
            Lz77Params(hash_function="md5")

    @pytest.mark.parametrize("max_match_length", [0, 2, 3, -3])
    def test_max_match_length_below_min_match_rejected(self, max_match_length):
        # 0 must not silently mean "unlimited", nor 2 let 4-byte copies pass.
        with pytest.raises(ConfigError, match="max_match_length"):
            Lz77Params(max_match_length=max_match_length)

    def test_max_match_length_three_allowed_with_min_match_three(self):
        assert Lz77Params(min_match=3, max_match_length=3).max_match_length == 3

    def test_bad_min_match_rejected(self):
        with pytest.raises(ConfigError):
            Lz77Params(min_match=2)


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=4096))
def test_roundtrip_arbitrary_bytes(data):
    """Property: encode/decode is the identity for any input."""
    roundtrip(data)


@settings(max_examples=30, deadline=None)
@given(
    st.binary(min_size=1, max_size=2048),
    st.sampled_from([64, 256, 4096]),
    st.sampled_from([1 << 6, 1 << 10, 1 << 14]),
)
def test_roundtrip_across_parameter_grid(data, window, entries):
    """Property: identity holds across window/table parameter combinations."""
    roundtrip(data, Lz77Params(window_size=window, hash_table_entries=entries))


class TestVectorizedPrecompute:
    """The numpy batch-hash path must equal the scalar path bit-for-bit.

    ``Lz77Encoder._hash_positions`` switches on input size; the golden wire
    vectors pin the large-input behaviour, and these tests pin the two paths
    against each other directly (and a reused encoder against a fresh one).
    """

    PARAM_GRID = [
        Lz77Params(),
        Lz77Params(min_match=3, lazy=True, hash_function="zstd5"),
        Lz77Params(
            hash_table_contents="position_and_tag",
            associativity=4,
            hash_function="xor_shift",
        ),
        Lz77Params(use_skipping=True, hash_table_entries=1 << 8),
    ]

    @staticmethod
    def scalar_reference(data, params):
        """Recompute slots/tags with the scalar hash, independent of size."""
        from repro.common.hashing import get_hash_function, load_u32le

        hash_fn = get_hash_function(params.hash_function)
        hash_mask = (
            (1 << (8 * params.min_match)) - 1 if params.min_match < 4 else 0xFFFFFFFF
        )
        tagged = params.hash_table_contents == "position_and_tag"
        slots, slots_raw, words, tags = [], [], [], [] if tagged else None
        for pos in range(len(data)):
            word = load_u32le(data, pos)
            words.append(word & hash_mask)
            slots.append(hash_fn(word & hash_mask, params.hash_bits))
            slots_raw.append(hash_fn(word, params.hash_bits))
            if tags is not None:
                tags.append(word & 0xFF)
        return slots, slots_raw, words, tags

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_hash_positions_matches_scalar_reference(self, params):
        data = bytes((i * 131 + i // 7) & 0xFF for i in range(3000))
        encoder = Lz77Encoder(params)
        slots, slots_raw, words, tags = encoder._hash_positions(data, len(data))
        ref_slots, ref_raw, ref_words, ref_tags = self.scalar_reference(data, params)
        assert slots == ref_slots
        assert slots_raw == ref_raw
        assert words == ref_words
        assert tags == ref_tags

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_small_input_scalar_path_agrees(self, params):
        data = b"below the vectorization threshold" * 3  # < 512 bytes
        assert len(data) < 512
        encoder = Lz77Encoder(params)
        slots, slots_raw, words, tags = encoder._hash_positions(data, len(data))
        ref_slots, ref_raw, ref_words, ref_tags = self.scalar_reference(data, params)
        assert slots == ref_slots
        assert words == ref_words
        assert tags == ref_tags
        if params.min_match < 4:
            assert slots_raw == ref_raw
        else:
            assert slots_raw is slots  # raw word == masked word, list aliased

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_scratch_table_reuse_is_stateless(self, params):
        # The hash table lives only inside one encode call: a reused encoder
        # carries nothing from the previous call, not even scratch space.
        a = b"first stream with its own repeated repeated content " * 40
        b = bytes((i * 17) & 0xFF for i in range(2500))
        reused = Lz77Encoder(params)
        before = dict(vars(reused))
        reused.encode(a)
        assert vars(reused) == before
        second = reused.encode(b)
        fresh = Lz77Encoder(params).encode(b)
        assert second.tokens() == fresh.tokens()

    def test_encode_identical_across_threshold_styles(self):
        # The same content encoded below and above the threshold must agree
        # where the parse is position-independent: a doubled buffer's first
        # half parse only depends on the first half's content.
        params = Lz77Params()
        small = b"abcdabcdabcdabcd" * 8  # 128 bytes: scalar path
        big = small * 8  # 1024 bytes: vector path
        enc = Lz77Encoder(params)
        assert decode_tokens(enc.encode(big), expected_length=len(big)) == big
        assert decode_tokens(enc.encode(small), expected_length=len(small)) == small
