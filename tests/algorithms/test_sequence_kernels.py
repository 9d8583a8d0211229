"""The shared LZ77 sequence-execution kernels equal their references.

``copy_match`` (every decoder's match copy), ``read_fields`` /
``decode_code_values`` (the windowed extra-bits decoder),
``encode_code_values`` (the vectorized SeqToCode conversion) and
``execute_sequences`` (the zstd/flate/brotli execution loop) replace byte-
and field-at-a-time loops; each must be indistinguishable from the retained
reference, including where and how it fails.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.lz77 import copy_match, execute_sequences
from repro.algorithms.zstd import (
    code_to_value,
    decode_code_values,
    encode_code_values,
    value_to_code,
)
from repro.common.bitio import WINDOW64_MAX_WIDTH, BitReader, BitWriter, read_fields
from repro.common.errors import CorruptStreamError
from tests.algorithms.lz77_reference import reference_copy_match


def _reference_fields(data: bytes, widths):
    """Per-field BitReader loop: values read before the first underflow."""
    reader = BitReader(data)
    values = []
    for width in widths:
        try:
            values.append(reader.read(width))
        except CorruptStreamError as exc:
            return values, str(exc)
    return values, None


class TestCopyMatch:
    @pytest.mark.parametrize(
        "offset,length",
        [(1, 0), (1, 1), (1, 9), (3, 0), (3, 2), (3, 3), (3, 7), (3, 9), (5, 1), (8, 8), (8, 64)],
    )
    def test_edge_cases_equal_byte_loop(self, offset, length):
        history = bytearray(b"abcdefgh")
        fast, slow = bytearray(history), bytearray(history)
        copy_match(fast, offset, length)
        reference_copy_match(slow, offset, length)
        assert fast == slow
        assert len(fast) == len(history) + length

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=1, max_size=64), st.data())
    def test_every_offset_length_equals_byte_loop(self, history, data):
        offset = data.draw(st.integers(1, len(history)))
        length = data.draw(st.integers(0, 4 * len(history) + 3))
        fast, slow = bytearray(history), bytearray(history)
        copy_match(fast, offset, length)
        reference_copy_match(slow, offset, length)
        assert fast == slow


class TestReadFields:
    @settings(max_examples=200, deadline=None)
    @given(
        st.binary(max_size=48),
        st.lists(st.sampled_from([0, 1, 2, 5, 8, 13, 31, 38, 56, 57, 58, 62, 63]), max_size=24),
    )
    def test_equals_per_field_reader(self, payload, widths):
        values, error = read_fields(payload, widths)
        expected_values, expected_error = _reference_fields(payload, widths)
        assert values.tolist() == expected_values
        assert (str(error) if error else None) == expected_error

    def test_wide_fields_fall_back_to_reference_reader(self):
        payload = bytes(range(1, 17))
        widths = [3, WINDOW64_MAX_WIDTH + 5, 9]
        values, error = read_fields(payload, widths)
        assert (values.tolist(), error) == (_reference_fields(payload, widths)[0], None)


class TestDecodeCodeValues:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=40), st.lists(st.tuples(*[st.integers(0, 63)] * 3), max_size=10))
    def test_equals_per_field_code_to_value(self, payload, triples):
        ll, ml, off = ([t[i] for t in triples] for i in range(3))
        literal_lengths, offsets, match_lengths, error = decode_code_values(payload, ll, ml, off)
        codes = [code for triple in triples for code in triple]
        bits, expected_error = _reference_fields(payload, [max(0, c - 1) for c in codes])
        values = [code_to_value(c, b) for c, b in zip(codes, bits)]
        assert literal_lengths == values[0::3]
        assert match_lengths == values[1::3]
        assert offsets == values[2::3]
        assert len(offsets) == len(values) // 3  # exactly the complete sequences
        assert (str(error) if error else None) == expected_error

    def test_round_trips_encode_code_values(self):
        ll, ml, off, extra, _ = encode_code_values([0, 5, 1], [1, 1 << 20, 7], [3, 70000, 0])
        decoded = decode_code_values(extra, ll, ml, off)
        assert decoded == ([0, 5, 1], [1, 1 << 20, 7], [3, 70000, 0], None)


def _columns(triples):
    """``(literal_lengths, offsets, match_lengths)`` of ``(ll, off, ml)`` triples."""
    return [t[0] for t in triples], [t[1] for t in triples], [t[2] for t in triples]


def _reference_code_values(triples):
    """Per-field ``value_to_code`` + ``BitWriter``: the SeqToCode reference."""
    columns = ([], [], [])
    writer = BitWriter()
    for literal_length, offset, match_length in triples:
        for value, codes in zip((literal_length, match_length, offset), columns):
            code, width, bits = value_to_code(value)
            codes.append(code)
            writer.write(bits, width)
    return (*columns, writer.getvalue(), writer.bit_length)


#: 0, 1 and each power of two +-1 up to the widest offset the format codes
#: (code 39), plus values past float64's exact range.
_EDGE_VALUES = sorted(
    {0, 1, 2**39 - 1, 2**53 - 1, 2**53 + 1, 2**60 - 1, 2**63 - 1}
    | {v for k in range(1, 40) for v in (2**k - 1, 2**k, 2**k + 1)}
)


class TestEncodeCodeValues:
    def test_edge_values_equal_reference(self):
        triples = [
            (v, _EDGE_VALUES[-1 - i], _EDGE_VALUES[(7 * i) % len(_EDGE_VALUES)])
            for i, v in enumerate(_EDGE_VALUES)
        ]
        assert encode_code_values(*_columns(triples)) == _reference_code_values(triples)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.sampled_from(_EDGE_VALUES) | st.integers(0, 2**39 - 1)] * 3), max_size=40))
    def test_equals_per_field_writer(self, triples):
        assert encode_code_values(*_columns(triples)) == _reference_code_values(triples)

    def test_empty(self):
        assert encode_code_values([], [], []) == ([], [], [], b"", 0)

    def test_negative_value_raises_like_value_to_code(self):
        triples = [(1, 2, 3), (4, -5, -6)]
        with pytest.raises(ValueError) as expected:
            _reference_code_values(triples)
        with pytest.raises(ValueError, match=str(expected.value)):
            encode_code_values(*_columns(triples))


def _execute(out, literal_lengths, offsets, match_lengths, trailing=0, end=1 << 20, **kwargs):
    execute_sequences(
        out,
        b"xyzw",
        literal_lengths,
        offsets,
        match_lengths,
        trailing,
        history_start=0,
        max_offset=1 << 16,
        end=end,
        bad_offset="bad offset {offset}",
        bad_trailing="bad trailing",
        wrong_size="wrong size",
        **kwargs,
    )


class TestExecuteSequences:
    def test_literals_matches_then_trailing_literals(self):
        out = bytearray()
        _execute(out, [2, 1], [1, 3], [3, 4], trailing=1, end=11)
        assert out == b"xyyyyzyyzyw"

    def test_offset_beyond_history_names_the_offset(self):
        with pytest.raises(CorruptStreamError, match="bad offset 3"):
            _execute(bytearray(), [2], [3], [1])

    def test_zero_offset_rejected(self):
        with pytest.raises(CorruptStreamError, match="bad offset 0"):
            _execute(bytearray(), [1], [0], [1])

    def test_literal_buffer_overrun_rejected(self):
        with pytest.raises(CorruptStreamError, match="overrun literal buffer"):
            _execute(bytearray(), [5], [1], [1])

    def test_trailing_count_and_final_size_checked(self):
        with pytest.raises(CorruptStreamError, match="bad trailing"):
            _execute(bytearray(), [1], [1], [1], trailing=2)
        with pytest.raises(CorruptStreamError, match="wrong size"):
            _execute(bytearray(), [1], [1], [1], trailing=3, end=6)

    def test_pending_error_raised_after_complete_sequences(self):
        out = bytearray()
        pending = CorruptStreamError("later sequence underflowed")
        with pytest.raises(CorruptStreamError, match="later sequence"):
            _execute(out, [1], [1], [2], pending=pending)
        assert out == b"xxx"

    @pytest.mark.parametrize("literal_lengths,match_lengths", [([4], [0]), ([1], [1 << 40])])
    def test_output_overrun_rejected_before_copying(self, literal_lengths, match_lengths):
        out = bytearray()
        with pytest.raises(CorruptStreamError, match="^wrong size$"):
            _execute(out, literal_lengths, [1], match_lengths, end=3)
        assert len(out) <= 3
