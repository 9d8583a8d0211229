"""Property-based invariants of the canonical Huffman coder.

``test_huffman.py`` covers the concrete cases; this file states the
*algebraic* contract hypothesis can hunt counterexamples for, over skewed,
uniform and degenerate symbol distributions:

* package-merge lengths form a **complete** prefix code (Kraft sum == 1)
  whenever two or more symbols are present, and respect ``max_bits``;
* canonical code assignment is prefix-free and ordered (shorter first,
  ties by symbol) — the property that lets decoders rebuild codes from
  lengths alone;
* the flat decode table agrees with the code table on every entry;
* encode→decode is the identity, and never beats the entropy bound;
* the column-lookup ``encode_symbols`` and the packed ``serialize_lengths``
  equal their per-symbol ``BitWriter`` references, error for error.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.huffman import (
    HuffmanTable,
    _reverse_bits,
    build_code_lengths,
    canonical_codes,
    decode_symbols,
    encode_symbols,
    reference_encode_symbols,
    serialize_lengths,
)
from repro.common.bitio import BitReader, BitWriter

MAX_BITS_CHOICES = [8, 11, 15]


@st.composite
def skewed_frequencies(draw, min_symbols=1, max_symbols=48):
    """Distributions with up to 2^12:1 skew, incl. uniform and degenerate."""
    count = draw(st.integers(min_symbols, max_symbols))
    symbols = draw(
        st.lists(st.integers(0, 255), min_size=count, max_size=count, unique=True)
    )
    shape = draw(st.sampled_from(["uniform", "skewed", "mixed"]))
    if shape == "uniform":
        weight = draw(st.integers(1, 1000))
        return {s: weight for s in symbols}
    exponents = draw(
        st.lists(st.integers(0, 12), min_size=count, max_size=count)
    )
    if shape == "skewed":
        return {s: 1 << e for s, e in zip(symbols, exponents)}
    extras = draw(st.lists(st.integers(1, 99), min_size=count, max_size=count))
    return {s: (1 << e) + x for s, e, x in zip(symbols, exponents, extras)}


def kraft(lengths):
    return sum(Fraction(1, 1 << l) for l in lengths.values())


@settings(max_examples=60, deadline=None)
@given(skewed_frequencies(), st.sampled_from(MAX_BITS_CHOICES))
def test_lengths_complete_and_limited(freqs, max_bits):
    lengths = build_code_lengths(freqs, max_bits=max_bits)
    assert set(lengths) == set(freqs)
    assert all(1 <= l <= max_bits for l in lengths.values())
    if len(freqs) >= 2:
        # Optimal prefix codes are complete: an unused leaf could shorten one.
        assert kraft(lengths) == 1
    else:
        assert list(lengths.values()) == [1]


@settings(max_examples=60, deadline=None)
@given(skewed_frequencies(min_symbols=2), st.sampled_from(MAX_BITS_CHOICES))
def test_more_frequent_symbols_never_get_longer_codes(freqs, max_bits):
    lengths = build_code_lengths(freqs, max_bits=max_bits)
    for a in freqs:
        for b in freqs:
            if freqs[a] > freqs[b]:
                assert lengths[a] <= lengths[b], (a, b)


@settings(max_examples=60, deadline=None)
@given(skewed_frequencies(min_symbols=2), st.sampled_from(MAX_BITS_CHOICES))
def test_canonical_assignment_is_prefix_free_and_ordered(freqs, max_bits):
    codes = canonical_codes(build_code_lengths(freqs, max_bits=max_bits))
    ordered = sorted(codes.items(), key=lambda kv: (kv[1][1], kv[0]))
    previous = None
    for symbol, (code, length) in ordered:
        assert 0 <= code < (1 << length)
        if previous is not None:
            prev_code, prev_len = previous
            # Canonical: strictly increasing when left-aligned to max length.
            assert code << (max_bits - length) > prev_code << (max_bits - prev_len)
            # Prefix-free: the previous code is never a prefix of this one.
            assert code >> (length - prev_len) != prev_code
        previous = (code, length)


@settings(max_examples=60, deadline=None)
@given(skewed_frequencies(), st.sampled_from(MAX_BITS_CHOICES))
def test_decode_table_agrees_with_codes(freqs, max_bits):
    table = HuffmanTable.from_frequencies(freqs, max_bits=max_bits)
    flat = table.decode_table()
    assert len(flat) == 1 << max_bits
    for symbol, (code, length) in table.codes.items():
        window = _reverse_bits(code, length)
        # Every padding of the reversed code maps back to the symbol.
        for pad in range(1 << (max_bits - length)):
            assert flat[window | (pad << length)] == (symbol, length)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=3000), st.sampled_from(MAX_BITS_CHOICES))
def test_roundtrip_and_entropy_bound(data, max_bits):
    freqs = {b: data.count(b) for b in set(data)}
    table = HuffmanTable.from_frequencies(freqs, max_bits=max_bits)
    payload = encode_symbols(data, table)
    assert bytes(decode_symbols(payload, len(data), table)) == data
    # Shannon lower bound: no prefix code beats the entropy of the source.
    entropy_bits = -sum(
        f * math.log2(f / len(data)) for f in freqs.values()
    )
    assert table.encoded_bit_length(freqs) >= entropy_bits - 1e-6
    assert len(payload) * 8 >= entropy_bits - 1e-6


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=2, max_size=1500))
def test_stream_decodes_incrementally(data):
    # The LSB-first stream must be decodable code-by-code with a BitReader —
    # the exact access pattern of the speculative hardware expander.
    freqs = {b: data.count(b) for b in set(data)}
    table = HuffmanTable.from_frequencies(freqs, max_bits=15)
    flat = table.decode_table()
    reader = BitReader(encode_symbols(data, table))
    out = bytearray()
    for _ in range(len(data)):
        symbol, length = flat[reader.peek_padded(table.max_bits)]
        assert symbol >= 0
        reader.skip(length)
        out.append(symbol)
    assert bytes(out) == data


@settings(max_examples=60, deadline=None)
@given(skewed_frequencies(), st.sampled_from(MAX_BITS_CHOICES), st.data())
def test_column_encode_equals_per_symbol_writer(freqs, max_bits, data):
    table = HuffmanTable.from_frequencies(freqs, max_bits=max_bits)
    symbols = data.draw(st.lists(st.sampled_from(sorted(freqs)), max_size=300))
    assert encode_symbols(symbols, table) == reference_encode_symbols(symbols, table)
    assert encode_symbols(bytes(symbols), table) == reference_encode_symbols(symbols, table)


def test_column_encode_beyond_the_byte_alphabet():
    table = HuffmanTable.from_frequencies({3: 9, 300: 4, 4095: 1}, max_bits=15)
    symbols = [4095, 3, 300, 3, 3, 4095]
    assert encode_symbols(symbols, table) == reference_encode_symbols(symbols, table)


@pytest.mark.parametrize("symbols", [[1, 2, 9], [1, -1], [70000], b"\x01\x05"])
def test_column_encode_rejects_absent_symbol_like_reference(symbols):
    table = HuffmanTable.from_frequencies({1: 5, 2: 3, 7: 1})
    with pytest.raises(ValueError) as expected:
        reference_encode_symbols(symbols, table)
    with pytest.raises(ValueError) as actual:
        encode_symbols(symbols, table)
    assert str(actual.value) == str(expected.value)


@settings(max_examples=40, deadline=None)
@given(skewed_frequencies(), st.sampled_from([256, 257, 300]))
def test_packed_header_equals_per_field_writer(freqs, alphabet_size):
    table = HuffmanTable.from_frequencies(freqs, max_bits=15)
    writer = BitWriter()
    for symbol in range(alphabet_size):
        writer.write(table.lengths.get(symbol, 0), 4)
    writer.align_to_byte()
    assert serialize_lengths(table, alphabet_size) == writer.getvalue()
