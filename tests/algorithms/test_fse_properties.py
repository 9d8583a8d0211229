"""Property-based invariants of the FSE (tANS) coder.

Complements the concrete cases in ``test_fse.py`` with the algebraic
contract, exercised over skewed, uniform and degenerate distributions:

* ``normalize_counts`` always produces a distribution summing to exactly
  ``2**accuracy_log`` with every present symbol kept encodable (count >= 1);
* ``spread_symbols`` is a permutation-with-multiplicity of the normalized
  counts over the whole state table;
* every decode-table entry covers a valid ``[baseline, baseline+2^bits)``
  sub-interval of the state space;
* the column-built (vectorized) decode table and encode transitions equal
  the retained scalar reference build, at every accuracy log;
* the table-driven encode (zstd's ``symbolTT``) equals the step-by-step
  ``reference_encode`` in payload, final state and bit length;
* encode→decode is the identity for any symbol sequence, at any accuracy;
* truncating the payload is always detected (sentinel-state check).
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms.fse import (
    MAX_ACCURACY_LOG,
    MIN_ACCURACY_LOG,
    FseTable,
    normalize_counts,
    reference_decode_entries,
    spread_symbols,
)
from repro.common.errors import CorruptStreamError

ACCURACY_LOGS = st.integers(MIN_ACCURACY_LOG, MAX_ACCURACY_LOG)


@st.composite
def skewed_frequencies(draw, min_symbols=1, max_symbols=30):
    """Raw counts with heavy skew, uniform and degenerate shapes."""
    count = draw(st.integers(min_symbols, max_symbols))
    symbols = draw(
        st.lists(st.integers(0, 63), min_size=count, max_size=count, unique=True)
    )
    shape = draw(st.sampled_from(["uniform", "skewed", "mixed"]))
    if shape == "uniform":
        weight = draw(st.integers(1, 5000))
        return {s: weight for s in symbols}
    exponents = draw(st.lists(st.integers(0, 14), min_size=count, max_size=count))
    if shape == "skewed":
        return {s: 1 << e for s, e in zip(symbols, exponents)}
    extras = draw(st.lists(st.integers(1, 999), min_size=count, max_size=count))
    return {s: (1 << e) + x for s, e, x in zip(symbols, exponents, extras)}


@settings(max_examples=60, deadline=None)
@given(skewed_frequencies(), ACCURACY_LOGS)
def test_normalize_counts_invariants(freqs, accuracy_log):
    assume(len(freqs) <= 1 << accuracy_log)
    normalized = normalize_counts(freqs, accuracy_log)
    assert sum(normalized.values()) == 1 << accuracy_log
    assert set(normalized) == set(freqs)
    assert all(count >= 1 for count in normalized.values())


@settings(max_examples=60, deadline=None)
@given(skewed_frequencies(), ACCURACY_LOGS)
def test_normalization_is_idempotent(freqs, accuracy_log):
    # A distribution already summing to the table size passes through
    # untouched, so re-normalizing a stored header never drifts.
    assume(len(freqs) <= 1 << accuracy_log)
    normalized = normalize_counts(freqs, accuracy_log)
    assert normalize_counts(normalized, accuracy_log) == normalized


@settings(max_examples=60, deadline=None)
@given(skewed_frequencies(), ACCURACY_LOGS)
def test_spread_covers_table_with_exact_multiplicity(freqs, accuracy_log):
    assume(len(freqs) <= 1 << accuracy_log)
    normalized = normalize_counts(freqs, accuracy_log)
    spread = spread_symbols(normalized, accuracy_log)
    assert len(spread) == 1 << accuracy_log
    for symbol, count in normalized.items():
        assert spread.count(symbol) == count


@settings(max_examples=60, deadline=None)
@given(skewed_frequencies(), ACCURACY_LOGS)
def test_decode_entries_partition_state_space(freqs, accuracy_log):
    assume(len(freqs) <= 1 << accuracy_log)
    table = FseTable.from_frequencies(freqs, accuracy_log)
    size = table.table_size
    for entry in table.decode_entries:
        assert 0 <= entry.num_bits <= accuracy_log
        assert 0 <= entry.baseline
        assert entry.baseline + (1 << entry.num_bits) <= size
    # Per symbol, the covered sub-intervals tile the state space exactly once.
    covered = {s: 0 for s in table.normalized}
    for entry in table.decode_entries:
        covered[entry.symbol] += 1 << entry.num_bits
    assert all(covered[s] == size for s in covered)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 31), min_size=1, max_size=400),
    st.sampled_from([5, 7, 9, 12]),
)
def test_roundtrip_any_sequence(symbols, accuracy_log):
    freqs = {s: symbols.count(s) for s in set(symbols)}
    table = FseTable.from_frequencies(freqs, accuracy_log)
    payload, state, bit_length = table.encode(symbols)
    assert len(payload) * 8 - bit_length in range(8)
    assert table.decode(payload, state, len(symbols)) == symbols


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=8, max_size=300))
def test_truncated_payload_is_detected(symbols):
    # At least two distinct symbols so some states consume bits.
    assume(len(set(symbols)) >= 2)
    freqs = {s: symbols.count(s) for s in set(symbols)}
    table = FseTable.from_frequencies(freqs, 7)
    payload, state, _ = table.encode(symbols)
    assume(len(payload) >= 1)
    try:
        decoded = table.decode(payload[:-1], state, len(symbols))
    except CorruptStreamError:
        return
    # Dropping a byte can only go unnoticed if the tail carried no
    # information; then the decode must still be exact.
    assert decoded == symbols


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=1, max_size=200), ACCURACY_LOGS)
def test_header_roundtrip_rebuilds_identical_tables(symbols, accuracy_log):
    freqs = {s: symbols.count(s) for s in set(symbols)}
    table = FseTable.from_frequencies(freqs, accuracy_log)
    header = table.serialize_counts(alphabet_size=16)
    rebuilt, consumed = FseTable.deserialize_counts(header, 16, accuracy_log)
    assert consumed == len(header)
    assert rebuilt.normalized == table.normalized
    assert rebuilt.decode_entries == table.decode_entries
    payload, state, _ = table.encode(symbols)
    assert rebuilt.decode(payload, state, len(symbols)) == symbols


@settings(max_examples=80, deadline=None)
@given(skewed_frequencies(max_symbols=40), ACCURACY_LOGS)
def test_column_built_tables_equal_reference_build(frequencies, accuracy_log):
    assume(len(frequencies) <= 1 << accuracy_log)
    normalized = normalize_counts(frequencies, accuracy_log)
    table = FseTable(normalized, accuracy_log)
    reference = reference_decode_entries(normalized, accuracy_log)
    assert table.decode_entries == reference
    symbols, num_bits, baselines, masks = table._decode_columns
    assert masks == [(1 << e.num_bits) - 1 for e in reference]
    # Encode transitions: each symbol's states in spread order.
    spread = spread_symbols(normalized, accuracy_log)
    table_size = 1 << accuracy_log
    assert table._states == {
        s: [state + table_size for state, t in enumerate(spread) if t == s]
        for s in normalized
    }


@pytest.mark.parametrize("accuracy_log", range(MIN_ACCURACY_LOG, MAX_ACCURACY_LOG + 1))
def test_column_build_covers_every_accuracy_log_with_many_symbols(accuracy_log):
    table_size = 1 << accuracy_log
    frequencies = {s: 1 + (s * 7919) % 97 for s in range(min(table_size, 64))}
    normalized = normalize_counts(frequencies, accuracy_log)
    assert FseTable(normalized, accuracy_log).decode_entries == reference_decode_entries(
        normalized, accuracy_log
    )


@settings(max_examples=80, deadline=None)
@given(skewed_frequencies(max_symbols=40), ACCURACY_LOGS, st.data())
def test_table_driven_encode_equals_reference(frequencies, accuracy_log, data):
    assume(len(frequencies) <= 1 << accuracy_log)
    table = FseTable.from_frequencies(frequencies, accuracy_log)
    symbols = data.draw(st.lists(st.sampled_from(sorted(frequencies)), max_size=200))
    assert table.encode(symbols) == table.reference_encode(symbols)


@pytest.mark.parametrize("accuracy_log", range(MIN_ACCURACY_LOG, MAX_ACCURACY_LOG + 1))
def test_table_driven_encode_with_count_one_symbols(accuracy_log):
    # Every symbol but one normalizes to count 1: the deltaNbBits corner.
    frequencies = {s: 1 for s in range(min(1 << accuracy_log, 64) - 1)}
    frequencies[99] = 1 << 20
    table = FseTable.from_frequencies(frequencies, accuracy_log)
    assert 1 in table.normalized.values()
    symbols = [(i * 37) % 99 if (i * 37) % 99 in frequencies else 99 for i in range(500)]
    assert table.encode(symbols) == table.reference_encode(symbols)
    assert table.encode(bytes(symbols)) == table.reference_encode(bytes(symbols))


@pytest.mark.parametrize("accuracy_log", [MIN_ACCURACY_LOG, MAX_ACCURACY_LOG])
def test_table_driven_encode_single_symbol_table(accuracy_log):
    table = FseTable({7: 1 << accuracy_log}, accuracy_log)
    for symbols in ([], [7], [7] * 300):
        assert table.encode(symbols) == table.reference_encode(symbols)
        payload, state, bits = table.encode(symbols)
        assert (payload, bits) == (b"", 0)
        assert table.decode(payload, state, len(symbols)) == symbols


@pytest.mark.parametrize("symbols", [[1, 9, 7, 8], [1, -1], [2**40]])
def test_table_driven_encode_rejects_absent_symbol_like_reference(symbols):
    table = FseTable.from_frequencies({1: 5, 7: 3}, MIN_ACCURACY_LOG)
    with pytest.raises(ValueError) as expected:
        table.reference_encode(symbols)
    with pytest.raises(ValueError) as actual:
        table.encode(symbols)
    assert str(actual.value) == str(expected.value)
