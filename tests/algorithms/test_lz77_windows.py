"""One window-set match pass equals a match run per window.

``Lz77Encoder.encode_windows(data, windows)`` follows the largest window
and splits off a run for the smaller ones where one of them rejects a
candidate the larger ones accept. For every window it must return what
``encode_with_stats`` returns for an encoder with that ``window_size``:
the same tokens, literals, trailing count and every ``MatcherStats``
field. The DSE's history-SRAM sweeps (Figures 12, 13 and 15) read these
streams as if each history had been matched on its own.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import Operation
from repro.algorithms.lz77 import Lz77Encoder, Lz77Params
from repro.common.errors import ConfigError
from repro.core.params import CdpuConfig

#: The encoder history sizes the paper's SRAM sweeps cover (§6.3).
HISTORIES = (2048, 4096, 8192, 16384, 32768, 65536)


def _columns(stream):
    return (
        stream.literal_lengths,
        stream.offsets,
        stream.match_lengths,
        stream.literals,
        stream.trailing,
    )


def _assert_windows_equal(params: Lz77Params, data: bytes, windows) -> None:
    runs = Lz77Encoder(params).encode_windows(data, windows)
    assert sorted(runs) == sorted(set(windows))
    for window in windows:
        alone, alone_stats = Lz77Encoder(replace(params, window_size=window)).encode_with_stats(
            data
        )
        stream, stats = runs[window]
        assert _columns(stream) == _columns(alone), window
        assert stats == alone_stats, window


@st.composite
def _repetitive(draw):
    """Words from a small vocabulary with noise: many candidates at every
    distance, so small windows reject what large ones accept."""
    vocabulary = draw(st.lists(st.binary(min_size=1, max_size=9), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(vocabulary) - 1), max_size=300))
    noise = draw(st.binary(max_size=3))
    return b"".join(vocabulary[i] + noise[: i % 3] for i in picks)


_PARAMS = st.builds(
    Lz77Params,
    hash_table_entries=st.sampled_from([1 << 4, 1 << 8, 1 << 12, 1 << 16]),
    associativity=st.sampled_from([1, 2, 4]),
    hash_table_contents=st.sampled_from(["position", "position_and_tag"]),
    use_skipping=st.booleans(),
    min_match=st.sampled_from([3, 4]),
    lazy=st.booleans(),
    max_match_length=st.sampled_from([None, 4, 7, 40]),
)


#: Mostly small windows, so candidates often sit exactly at one.
_WINDOWS = st.lists(
    st.one_of(st.integers(4, 48), st.integers(49, 2000)), min_size=1, max_size=6
)


@settings(max_examples=150, deadline=None)
@given(_PARAMS, _repetitive(), _WINDOWS)
def test_every_window_equals_its_own_run(params, data, windows):
    _assert_windows_equal(params, data, windows)


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("min_match", [3, 4])
def test_candidate_exactly_at_a_window_stays_with_it(lazy, min_match):
    # At 16 the only candidate is 16 back: inside window 16, past window 8.
    block = bytes(range(100, 116))
    params = Lz77Params(min_match=min_match, lazy=lazy)
    _assert_windows_equal(params, block + block, [8, 16, 64])
    runs = Lz77Encoder(params).encode_windows(block + block, [8, 16])
    assert runs[16][0].offsets == [16]
    assert runs[8][0].offsets == []


def test_inputs_too_short_to_match():
    for data in (b"", b"ab"):
        _assert_windows_equal(Lz77Params(), data, [4, 4096])


def test_window_set_must_be_valid():
    encoder = Lz77Encoder(Lz77Params())
    with pytest.raises(ConfigError):
        encoder.encode_windows(b"abcdabcd", [])
    with pytest.raises(ConfigError):
        encoder.encode_windows(b"abcdabcd", [3, 64])


@pytest.mark.parametrize("hash_table_entries", [1 << 9, 1 << 14])
def test_hcbench_files_at_the_sram_sweep(bench, hash_table_entries):
    """The hardware matcher (Figures 12, 13 and 15) on real suite files."""
    params = CdpuConfig(hash_table_entries=hash_table_entries).encoder_lz77_params()
    files = bench.suite("snappy", Operation.COMPRESS).files
    for file in sorted(files, key=lambda f: len(f.data))[-3:]:
        _assert_windows_equal(params, file.data[: 48 * 1024], HISTORIES)
