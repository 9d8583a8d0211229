"""Unit tests for the LSB-first bit reader/writer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.bitio import PACK_MAX_WIDTH, BitReader, BitWriter, pack_fields
from repro.common.errors import CorruptStreamError


class TestBitWriter:
    def test_empty_writer_produces_no_bytes(self):
        assert BitWriter().getvalue() == b""

    def test_single_bit_sets_lsb(self):
        writer = BitWriter()
        writer.write(1, 1)
        assert writer.getvalue() == b"\x01"

    def test_bits_fill_lsb_first(self):
        writer = BitWriter()
        writer.write(0b1, 1)
        writer.write(0b11, 2)
        # bit0=1, bits1-2=11 -> 0b00000111
        assert writer.getvalue() == b"\x07"

    def test_multi_byte_value(self):
        writer = BitWriter()
        writer.write(0xABCD, 16)
        assert writer.getvalue() == b"\xcd\xab"

    def test_bit_length_tracks_written_bits(self):
        writer = BitWriter()
        writer.write(0, 3)
        writer.write(0, 12)
        assert writer.bit_length == 15

    def test_align_to_byte_pads_with_zeros(self):
        writer = BitWriter()
        writer.write(1, 1)
        writer.align_to_byte()
        writer.write(0xFF, 8)
        assert writer.getvalue() == b"\x01\xff"

    def test_align_on_boundary_is_noop(self):
        writer = BitWriter()
        writer.write(0xAA, 8)
        writer.align_to_byte()
        assert writer.bit_length == 8

    def test_zero_width_write_is_noop(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.bit_length == 0

    def test_value_too_wide_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(4, 2)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(0, -1)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(-1, 4)

    def test_getvalue_does_not_consume_partial_byte(self):
        writer = BitWriter()
        writer.write(1, 1)
        assert writer.getvalue() == b"\x01"
        writer.write(1, 1)
        assert writer.getvalue() == b"\x03"


class TestBitReader:
    def test_read_mirrors_write(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write(0x5A, 8)
        reader = BitReader(writer.getvalue())
        assert reader.read(3) == 0b101
        assert reader.read(8) == 0x5A

    def test_peek_does_not_consume(self):
        reader = BitReader(b"\xff")
        assert reader.peek(4) == 0xF
        assert reader.read(8) == 0xFF

    def test_underflow_raises(self):
        reader = BitReader(b"\x01")
        with pytest.raises(CorruptStreamError):
            reader.read(9)

    def test_peek_padded_zero_extends(self):
        reader = BitReader(b"\x03")
        reader.skip(7)
        # one real bit (0) remains; padding supplies the rest as zeros
        assert reader.peek_padded(8) == 0

    def test_skip_advances(self):
        reader = BitReader(b"\xf0")
        reader.skip(4)
        assert reader.read(4) == 0xF

    def test_skip_past_end_raises(self):
        with pytest.raises(CorruptStreamError):
            BitReader(b"").skip(1)

    def test_bits_remaining(self):
        reader = BitReader(b"\x00\x00")
        assert reader.bits_remaining == 16
        reader.read(5)
        assert reader.bits_remaining == 11

    def test_align_to_byte(self):
        reader = BitReader(b"\x00\xff")
        reader.read(3)
        reader.align_to_byte()
        assert reader.read(8) == 0xFF

    def test_byte_position_requires_alignment(self):
        reader = BitReader(b"\x00\x00")
        reader.read(1)
        with pytest.raises(ValueError):
            reader.byte_position()

    def test_byte_position_when_aligned(self):
        reader = BitReader(b"\x00\x00")
        reader.read(8)
        assert reader.byte_position() == 1

    def test_start_bit_offset(self):
        reader = BitReader(b"\x0f", start_bit=2)
        assert reader.read(2) == 0b11

    def test_bad_start_bit_rejected(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00", start_bit=9)


@given(st.lists(st.tuples(st.integers(0, 2**20 - 1), st.integers(1, 20)), max_size=60))
def test_roundtrip_arbitrary_field_sequences(fields):
    """Property: any sequence of (value, width) fields round-trips."""
    writer = BitWriter()
    for value, width in fields:
        writer.write(value & ((1 << width) - 1), width)
    reader = BitReader(writer.getvalue())
    for value, width in fields:
        assert reader.read(width) == value & ((1 << width) - 1)


@given(st.binary(max_size=64))
def test_reader_reproduces_bytes(data):
    """Property: reading 8-bit fields reproduces the byte string."""
    reader = BitReader(data)
    assert bytes(reader.read(8) for _ in range(len(data))) == data


class TestBitReaderExtend:
    """extend(): resume a reader across streaming feeds."""

    def test_extend_resumes_at_same_bit_position(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write(0xABCD, 16)
        stream = writer.getvalue()
        reader = BitReader(stream[:1])
        assert reader.read(3) == 0b101
        with pytest.raises(CorruptStreamError):
            reader.read(16)  # underflow: only 5 bits left
        assert reader.bit_position == 3  # failed read consumed nothing
        reader.extend(stream[1:])
        assert reader.read(16) == 0xABCD

    def test_extend_empty_is_noop(self):
        reader = BitReader(b"\xff")
        reader.read(4)
        reader.extend(b"")
        assert reader.bits_remaining == 4
        assert reader.read(4) == 0xF

    def test_extend_after_exhaustion(self):
        reader = BitReader(b"\x0f")
        assert reader.read(8) == 0x0F
        assert reader.bits_remaining == 0
        reader.extend(b"\xf0")
        assert reader.bits_remaining == 8
        assert reader.read(8) == 0xF0

    @given(st.binary(min_size=1, max_size=64), st.integers(1, 63))
    def test_chunked_extend_equals_whole_buffer(self, data, split):
        split = min(split, len(data))
        whole = BitReader(data)
        chunked = BitReader(data[:split])
        chunked.extend(data[split:])
        for _ in range(len(data)):
            assert chunked.read(8) == whole.read(8)


def _written(values, widths):
    """One ``BitWriter.write`` per field: the reference :func:`pack_fields`
    must equal, error for error."""
    writer = BitWriter()
    for value, width in zip(values, widths):
        writer.write(value, width)
    return writer.getvalue(), writer.bit_length


#: Valid leading fields that push a short case past the per-field cut-over,
#: so each case runs on both the per-field and the vectorized path.
_PADDINGS = [0, 100]


def _padded(padding, values, widths):
    return [5] * padding + list(values), [3] * padding + list(widths)


class TestPackFields:
    def test_every_width_at_its_extremes(self):
        widths = [w for w in range(PACK_MAX_WIDTH + 1) for _ in range(3)]
        values = [v for w in range(PACK_MAX_WIDTH + 1) for v in (0, (1 << w) - 1, (1 << w) // 3)]
        assert pack_fields(values, widths) == _written(values, widths)
        # Every start offset within a word, for every width.
        for lead in range(64):
            assert pack_fields([0] + values, [lead] + widths) == _written(
                [0] + values, [lead] + widths
            )

    @pytest.mark.parametrize("padding", _PADDINGS)
    def test_zero_width_ignores_its_value(self, padding):
        # The writer skips a zero-width field before looking at its value.
        values, widths = _padded(padding, [5, -1, 1 << 70, 3], [0, 0, 0, 2])
        assert pack_fields(values, widths) == _written(values, widths)
        assert pack_fields([5, -1, 3], [0, 0, 2]) == (b"\x03", 2)

    def test_empty(self):
        assert pack_fields([], []) == (b"", 0)

    @pytest.mark.parametrize("padding", _PADDINGS)
    def test_wider_fields_use_the_reference_writer(self, padding):
        values, widths = _padded(padding, [1, (1 << 64) + 5, 3], [1, 65, 2])
        assert pack_fields(values, widths) == _written(values, widths)

    @pytest.mark.parametrize("padding", _PADDINGS)
    @pytest.mark.parametrize(
        "values,widths",
        [
            ([1], [-1]),
            ([2], [1]),
            ([-1], [3]),
            ([1 << 63], [63]),
            ([3, 0, 8], [2, 5, 3]),
            ([0, -4], [3, 7]),
            ([1 << 70], [70]),
        ],
    )
    def test_rejects_what_the_writer_rejects(self, padding, values, widths):
        values, widths = _padded(padding, values, widths)
        with pytest.raises(ValueError) as expected:
            _written(values, widths)
        with pytest.raises(ValueError) as actual:
            pack_fields(values, widths)
        assert str(actual.value) == str(expected.value)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pack_fields([1, 2], [3])

    def test_numpy_columns_equal_lists(self):
        import numpy as np

        widths = [(i * 7) % 64 for i in range(200)]
        values = [(1 << w) - 1 - i % 2 if w else 0 for i, w in enumerate(widths)]
        assert pack_fields(np.array(values), np.array(widths)) == _written(values, widths)

    @given(
        st.lists(
            st.integers(0, PACK_MAX_WIDTH).flatmap(
                lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))
            ),
            max_size=300,
        )
    )
    def test_equals_per_field_writer(self, fields):
        values = [v for v, _ in fields]
        widths = [w for _, w in fields]
        assert pack_fields(values, widths) == _written(values, widths)
