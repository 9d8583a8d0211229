"""The array-built encode-side tables equal the list-built oracles.

``huffman_reference`` keeps the list-based package-merge, the loop-built
canonical codes, the per-field header read and the Snappy emitter that split
long copies first. On every input here the live builders must return the
same lengths (in the same order), codes, reversed-code pairs and columns,
header tables and element bytes, and raise the same errors with the same
text.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import huffman
from repro.algorithms.lz77 import Lz77Encoder, TokenStreamBuilder
from repro.algorithms.snappy import _default_params, emit_elements
from repro.common.errors import CorruptStreamError
from tests.algorithms import huffman_reference as reference

MAX_BITS_CHOICES = [7, 11, 15]
ALPHABET_SIZES = [1, 2, 256, 286]
_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@st.composite
def tied_frequencies(draw):
    """Frequency tables over 1-, 2-, 256- and 286-symbol alphabets whose
    counts come from a handful of values, so most comparisons are ties."""
    alphabet = draw(st.sampled_from(ALPHABET_SIZES))
    present = draw(st.integers(1, alphabet))
    symbols = draw(st.permutations(range(alphabet)))[:present]
    values = draw(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=4))
    counts = draw(
        st.lists(st.sampled_from(values), min_size=present, max_size=present)
    )
    return dict(zip(symbols, counts))


def _outcome(build, *args):
    try:
        return "ok", build(*args)
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=150, deadline=None)
@given(tied_frequencies(), st.sampled_from(MAX_BITS_CHOICES))
def test_tables_equal_the_oracles(freqs, max_bits):
    expected = _outcome(reference.build_code_lengths, freqs, max_bits)
    assert _outcome(huffman.build_code_lengths, freqs, max_bits) == expected
    kind, lengths = expected
    if kind == "error" or not lengths:
        return
    assert list(huffman.build_code_lengths(freqs, max_bits)) == list(lengths)
    codes = huffman.canonical_codes(lengths)
    assert list(codes.items()) == list(reference.canonical_codes(lengths).items())
    table = huffman.HuffmanTable.from_lengths(lengths, max_bits)
    assert table._encode_pairs == reference.encode_pairs(table.codes)
    for column, expected_column in zip(table._encode_columns, reference.encode_columns(table.codes)):
        assert column.dtype == expected_column.dtype
        np.testing.assert_array_equal(column, expected_column)


@pytest.mark.parametrize(
    "build, args",
    [
        ("build_code_lengths", ({i: 1 for i in range(129)}, 7)),
        ("build_code_lengths", ({i: i + 1 for i in range(286)}, 7)),
        ("canonical_codes", ({0: 1, 1: 1, 2: 1},)),
        ("canonical_codes", ({0: 2, 1: 1, 2: 2, 3: 2, 4: 3},)),
        ("canonical_codes", ({5: 3, 2: 0, 9: 1},)),
        ("canonical_codes", ({5: -2, 2: -2, 9: 1},)),
    ],
)
def test_errors_equal_the_oracles(build, args):
    with pytest.raises(ValueError) as expected:
        getattr(reference, build)(*args)
    with pytest.raises(ValueError) as actual:
        getattr(huffman, build)(*args)
    assert str(actual.value) == str(expected.value)


def test_codes_wider_than_a_machine_word_equal_the_oracle():
    lengths = {0: 1, 1: 2, **{s: 70 for s in range(2, 6)}}
    assert huffman.canonical_codes(lengths) == reference.canonical_codes(lengths)


@pytest.mark.parametrize("alphabet_size", [3, 53, 256, 286])
def test_header_read_equals_the_oracle_at_every_cut(alphabet_size):
    freqs = {s: (s * 7919) % 97 + 1 for s in range(0, alphabet_size, 2)}
    table = huffman.HuffmanTable.from_frequencies(freqs, max_bits=15)
    stream = b"\xaa\x55" + huffman.serialize_lengths(table, alphabet_size) + b"\x01"
    for cut in range(2, len(stream) + 1):
        outcomes = []
        for read in (huffman.deserialize_lengths, reference.deserialize_lengths):
            try:
                read_table, consumed = read(stream[:cut], alphabet_size, 11, pos=2)
                outcomes.append((read_table.codes, read_table.max_bits, consumed))
            except CorruptStreamError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], cut


def test_header_declaring_nothing_or_too_much_equals_the_oracle():
    for header in (bytes(128), b"\x11" * 128):
        with pytest.raises(CorruptStreamError) as expected:
            reference.deserialize_lengths(header, 256)
        with pytest.raises(CorruptStreamError) as actual:
            huffman.deserialize_lengths(header, 256)
        assert str(actual.value) == str(expected.value)


def _matcher_streams():
    for use_skipping in (True, False):
        encoder = Lz77Encoder(_default_params(use_skipping))
        for path in sorted(_SRC.glob("algorithms/*.py")):
            yield encoder.encode(path.read_bytes())
        yield encoder.encode(bytes(range(256)) * 3 + b"a" * 5000 + b"xyz" * 900)


def test_emitter_equals_the_oracle_on_matcher_output():
    for stream in _matcher_streams():
        assert emit_elements(stream) == reference.emit_elements(stream)


def test_long_runs_split_like_the_oracle():
    stream = Lz77Encoder(_default_params(False)).encode(b"ab" + b"a" * 20000)
    assert max(stream.match_lengths) > 64
    assert emit_elements(stream) == reference.emit_elements(stream)


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=4000))
def test_emitter_equals_the_oracle_on_random_bytes(data):
    stream = Lz77Encoder(_default_params(True)).encode(data)
    assert emit_elements(stream) == reference.emit_elements(stream)


def test_far_copies_and_chunked_literals_equal_the_oracle():
    builder = TokenStreamBuilder()
    builder.literal(b"q" * 70_000)
    for offset, length in [(70_000, 300), (66_000, 5), (65_535, 65), (100, 7), (3000, 7), (2047, 75), (2048, 8), (9, 3)]:
        builder.copy(offset, length)
    builder.literal(b"z" * (1 << 24) + b"w" * 5)
    builder.copy(1 << 24, 1000)
    builder.literal(b"t" * 61)
    stream = builder.build()
    assert emit_elements(stream) == reference.emit_elements(stream)
