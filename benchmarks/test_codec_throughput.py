"""Codec throughput matrix + vectorized-kernel gates.

Emits ``results/BENCH_codecs.json`` — the codec layer's perf trajectory
artifact, mirroring ``BENCH_lint.json``/``BENCH_service.json``: MB/s for
every codec × operation × size class, one-shot vs streaming (the streaming
cell reuses one ``reset()`` context across iterations, i.e. it measures the
serving layer's per-worker regime).

Two kinds of gate:

* **Hard** — the vectorized CRC-32C and Huffman-decode kernels, zstd
  sequence execution (windowed extra bits + the shared match-copy kernel),
  the column-built FSE decode table, the array-built Huffman encode table,
  the table-driven FSE encode and the vectorized SeqToCode conversion must
  beat their retained scalar references by ``REQUIRED_KERNEL_SPEEDUP``x at
  the 4 KiB size class (the FSE table build at zstd's default accuracy log,
  the Huffman one at its literal length cap). This is architectural
  (vectorized or slice work vs per-byte/per-field/per-row Python loops), not
  machine-dependent, so it fails the build. The LZ77 matcher's head/chain
  loop must beat the retained LRU-bucket loop by
  ``REQUIRED_MATCHER_SPEEDUP``x: its per-position decisions stay in Python,
  so the bound is lower. A snappy-framed 1 KiB compress
  must also stay within ``FRAMED_SNAPPY_MAX_RATIO``x of plain snappy: the
  framing adds a header and a CRC, not a per-call matcher set-up.
* **Soft** — cell-by-cell comparison against the *committed* baseline. CI
  machines vary, so a throughput drop beyond ``SOFT_REGRESSION_RATIO``x
  emits a prominent warning for the reviewer rather than failing the build.

Refresh the baseline by committing the regenerated file::

    PYTHONPATH=src python -m pytest benchmarks/test_codec_throughput.py -q
    git add results/BENCH_codecs.json
"""

import json
import statistics
import time
import warnings
from pathlib import Path

import pytest

from repro.algorithms.registry import available_codecs, get_codec
from repro.corpus.sources import mixed_source

#: Hard gate: vectorized kernel vs retained scalar reference at 4 KiB.
REQUIRED_KERNEL_SPEEDUP = 3.0
#: Hard gate: the LZ77 matcher vs ``lz77_reference.reference_encode`` at 4 KiB.
REQUIRED_MATCHER_SPEEDUP = 1.3
#: Hard gate: snappy-framed 1 KiB compress time over plain snappy's.
FRAMED_SNAPPY_MAX_RATIO = 1.5
#: Soft gate: warn (don't fail) when a cell is this much slower than the
#: committed baseline.
SOFT_REGRESSION_RATIO = 3.0

SIZE_CLASSES = {"1KiB": 1024, "4KiB": 4096, "64KiB": 64 * 1024}

#: Per-cell measurement budget; slow pure-Python cells settle for one run.
TIME_BUDGET_SECONDS = 0.12
MAX_ITERATIONS = 30

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BASELINE = _REPO_ROOT / "results" / "BENCH_codecs.json"


def _mbps(fn, num_bytes: int) -> float:
    """Mean throughput of ``fn`` in MB/s under the cell time budget."""
    fn()  # warm caches (tables, scratch state) outside the timed region
    iterations = 0
    begin = time.perf_counter()
    while True:
        fn()
        iterations += 1
        elapsed = time.perf_counter() - begin
        if elapsed >= TIME_BUDGET_SECONDS or iterations >= MAX_ITERATIONS:
            break
    return num_bytes * iterations / elapsed / 1e6


def _paired_speedup(new, old, rounds: int = 7):
    """``(microseconds per new call, speedup)`` as medians over ``rounds``
    back-to-back pairs of cells. A pair's two cells last a few milliseconds
    each, so a slow spell of the machine usually covers both and cancels in
    their ratio; the median drops the pairs it splits."""
    new_us, ratios = [], []
    for _ in range(rounds):
        new_rate, old_rate = _mbps(new, 1), _mbps(old, 1)
        new_us.append(1 / new_rate)
        ratios.append(new_rate / old_rate)
    return statistics.median(new_us), statistics.median(ratios)


def _payload(size: int) -> bytes:
    return mixed_source(7, size)


@pytest.mark.bench
def test_codec_throughput_matrix_and_baseline(results_dir):
    matrix = {}
    for codec_name in sorted(available_codecs()):
        codec = get_codec(codec_name)
        matrix[codec_name] = {}
        for size_name, size in SIZE_CLASSES.items():
            raw = _payload(size)
            frame = codec.compress(raw)
            cctx = codec.compress_context()
            dctx = codec.decompress_context()

            def stream_compress():
                cctx.reset()
                return cctx.feed(raw) + cctx.flush()

            def stream_decompress():
                dctx.reset()
                return dctx.feed(frame) + dctx.flush()

            assert stream_compress() == frame
            assert stream_decompress() == raw
            cell = {
                "compress": {
                    "one_shot": round(_mbps(lambda: codec.compress(raw), size), 3),
                    "streaming": round(_mbps(stream_compress, size), 3),
                },
                "decompress": {
                    "one_shot": round(_mbps(lambda: codec.decompress(frame), size), 3),
                    "streaming": round(_mbps(stream_decompress, size), 3),
                },
            }
            matrix[codec_name][size_name] = cell

    kernels = _kernel_speedups()
    payload = {
        "benchmark": "codecs",
        "units": "MB/s of uncompressed bytes",
        "size_classes": SIZE_CLASSES,
        "throughput_mbps": matrix,
        "kernels": kernels,
    }

    previous = None
    if _BASELINE.exists():
        previous = json.loads(_BASELINE.read_text())
    (results_dir / "BENCH_codecs.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    if previous is not None:
        regressions = []
        for codec_name, sizes in previous.get("throughput_mbps", {}).items():
            for size_name, ops in sizes.items():
                for op, modes in ops.items():
                    for mode, before in modes.items():
                        now = (
                            matrix.get(codec_name, {})
                            .get(size_name, {})
                            .get(op, {})
                            .get(mode)
                        )
                        if before and now and before > SOFT_REGRESSION_RATIO * now:
                            regressions.append(
                                f"{codec_name}/{size_name}/{op}/{mode}: "
                                f"{before} -> {now} MB/s"
                            )
        if regressions:
            warnings.warn(
                "codec perf regression (soft, >"
                f"{SOFT_REGRESSION_RATIO}x vs committed baseline): "
                + "; ".join(regressions),
                stacklevel=1,
            )

    # The hard architectural gate rides with the artifact so a refresh can
    # never silently commit a de-vectorized kernel.
    assert kernels["crc32c_4KiB_speedup"] >= REQUIRED_KERNEL_SPEEDUP
    assert kernels["huffman_decode_4KiB_speedup"] >= REQUIRED_KERNEL_SPEEDUP
    assert kernels["zstd_sequence_exec_4KiB_speedup"] >= REQUIRED_KERNEL_SPEEDUP
    assert kernels["fse_table_build_speedup"] >= REQUIRED_KERNEL_SPEEDUP
    assert kernels["huffman_table_build_speedup"] >= REQUIRED_KERNEL_SPEEDUP
    assert kernels["fse_encode_4KiB_speedup"] >= REQUIRED_KERNEL_SPEEDUP
    assert kernels["seq_to_code_speedup"] >= REQUIRED_KERNEL_SPEEDUP
    assert kernels["lz77_encode_4KiB_speedup"] >= REQUIRED_MATCHER_SPEEDUP
    assert kernels["snappy_framed_1KiB_compress_ratio"] <= FRAMED_SNAPPY_MAX_RATIO

    # Graph presets register as ordinary codecs, so their one-shot and
    # streaming cells must appear in the matrix alongside the monoliths.
    graph_cells = [name for name in matrix if name.startswith("graph-")]
    assert len(graph_cells) >= 3, graph_cells


def _kernel_speedups():
    """Vectorized kernels vs the retained scalar reference loops at 4 KiB."""
    from repro.algorithms.huffman import (
        HuffmanTable,
        _decode_symbols_reader,
        byte_frequencies,
        decode_symbols,
        encode_symbols,
    )
    from repro.algorithms.lz77 import Lz77Encoder, Lz77Params
    from repro.common.crc32c import _update_scalar, crc32c
    from tests.algorithms.lz77_reference import reference_encode

    size = SIZE_CLASSES["4KiB"]
    raw = _payload(size)

    crc_new = _mbps(lambda: crc32c(raw), size)
    crc_old = _mbps(lambda: _update_scalar(0xFFFFFFFF, raw), size)

    table = HuffmanTable.from_frequencies(byte_frequencies(raw))
    coded = encode_symbols(raw, table)
    assert decode_symbols(coded, size, table) == list(raw)
    huff_new = _mbps(lambda: decode_symbols(coded, size, table), size)
    huff_old = _mbps(lambda: _decode_symbols_reader(coded, size, table), size)

    encoder = Lz77Encoder(Lz77Params())
    assert encoder.encode(raw).tokens() == reference_encode(encoder, raw)
    lz77_mbps = _mbps(lambda: encoder.encode(raw), size)
    lz77_old_mbps = _mbps(lambda: reference_encode(encoder, raw), size)

    seq_new, seq_old = _sequence_exec_pair(raw)
    assert seq_new() == seq_old() == raw
    seq_new_mbps = _mbps(seq_new, size)
    seq_old_mbps = _mbps(seq_old, size)

    table_new, table_old = _fse_table_build_pair(raw)
    # Rates in tables per microsecond (``_mbps`` over one unit per call).
    table_new_rate = _mbps(table_new, 1)
    table_old_rate = _mbps(table_old, 1)

    huff_table_new, huff_table_old = _huffman_table_build_pair(raw)
    huff_table_us, huff_table_speedup = _paired_speedup(huff_table_new, huff_table_old)

    fse_new, fse_old = _fse_encode_pair(raw)
    assert fse_new() == fse_old()
    fse_new_mbps = _mbps(fse_new, size)
    fse_old_mbps = _mbps(fse_old, size)

    stc_new, stc_old = _seq_to_code_pair(raw)
    assert stc_new() == stc_old()
    stc_new_mbps = _mbps(stc_new, size)
    stc_old_mbps = _mbps(stc_old, size)

    small = _payload(SIZE_CLASSES["1KiB"])
    framed, plain = get_codec("snappy-framed"), get_codec("snappy")
    framed_mbps = _mbps(lambda: framed.compress(small), len(small))
    plain_mbps = _mbps(lambda: plain.compress(small), len(small))

    return {
        "crc32c_4KiB_mbps": round(crc_new, 3),
        "crc32c_4KiB_speedup": round(crc_new / crc_old, 2),
        "huffman_decode_4KiB_mbps": round(huff_new, 3),
        "huffman_decode_4KiB_speedup": round(huff_new / huff_old, 2),
        "lz77_encode_4KiB_mbps": round(lz77_mbps, 3),
        "lz77_encode_4KiB_speedup": round(lz77_mbps / lz77_old_mbps, 2),
        "zstd_sequence_exec_4KiB_mbps": round(seq_new_mbps, 3),
        "zstd_sequence_exec_4KiB_speedup": round(seq_new_mbps / seq_old_mbps, 2),
        "fse_table_build_us": round(1 / table_new_rate, 1),
        "fse_table_build_speedup": round(table_new_rate / table_old_rate, 2),
        "huffman_table_build_us": round(huff_table_us, 1),
        "huffman_table_build_speedup": round(huff_table_speedup, 2),
        "fse_encode_4KiB_mbps": round(fse_new_mbps, 3),
        "fse_encode_4KiB_speedup": round(fse_new_mbps / fse_old_mbps, 2),
        "seq_to_code_4KiB_mbps": round(stc_new_mbps, 3),
        "seq_to_code_speedup": round(stc_new_mbps / stc_old_mbps, 2),
        "snappy_framed_1KiB_compress_ratio": round(plain_mbps / framed_mbps, 2),
    }


def _sequence_exec_pair(raw: bytes):
    """zstd sequence execution from decoded codes: the windowed extra-bits
    decoder + shared kernel vs the per-field reader + byte-loop copy."""
    from repro.algorithms.lz77 import execute_sequences
    from repro.algorithms.zstd import (
        ZstdCodec,
        code_to_value,
        decode_code_values,
        encode_code_values,
    )
    from repro.common.bitio import BitReader
    from tests.algorithms.lz77_reference import reference_copy_match

    stream = ZstdCodec().tokenize(raw)
    literals, trailing = stream.literals, stream.trailing
    ll, ml, off, extra, _ = encode_code_values(
        stream.literal_lengths, stream.offsets, stream.match_lengths
    )

    def new():
        literal_lengths, offsets, match_lengths, error = decode_code_values(extra, ll, ml, off)
        assert error is None
        out = bytearray()
        execute_sequences(
            out, literals, literal_lengths, offsets, match_lengths, trailing,
            history_start=0,
            max_offset=len(raw),
            end=len(raw),
            bad_offset="bad offset {offset}",
            bad_trailing="bad trailing",
            wrong_size="wrong size",
        )
        return bytes(out)

    def old():
        reader = BitReader(extra)
        out = bytearray()
        lit_pos = 0
        for triple in zip(ll, ml, off):
            literal_length, match_length, offset = (
                code_to_value(code, reader.read(code - 1) if code > 1 else 0)
                for code in triple
            )
            out += literals[lit_pos : lit_pos + literal_length]
            lit_pos += literal_length
            reference_copy_match(out, offset, match_length)
        out += literals[lit_pos:]
        return bytes(out)

    return new, old


def _fse_table_build_pair(raw: bytes):
    """One fresh decode table at zstd's default accuracy log: the numpy
    column build vs the retained row-by-row reference."""
    from repro.algorithms.fse import (
        DEFAULT_ACCURACY_LOG,
        FseTable,
        normalize_counts,
        reference_decode_entries,
    )

    frequencies = {}
    for byte in raw:
        frequencies[byte] = frequencies.get(byte, 0) + 1
    normalized = normalize_counts(frequencies, DEFAULT_ACCURACY_LOG)
    assert FseTable(normalized, DEFAULT_ACCURACY_LOG).decode_entries == (
        reference_decode_entries(normalized, DEFAULT_ACCURACY_LOG)
    )

    def new():
        return FseTable(normalized, DEFAULT_ACCURACY_LOG)._decode_columns

    def old():
        return reference_decode_entries(normalized, DEFAULT_ACCURACY_LOG)

    return new, old


def _huffman_table_build_pair(raw: bytes):
    """One fresh encode-side Huffman table for the 4 KiB payload's bytes at
    zstd's literal length cap: package-merge on count arrays, canonical
    codes and the writer's reversed-code columns, vs the retained list-based
    package-merge, loop-built codes and per-symbol column fill."""
    from repro.algorithms.huffman import HuffmanTable, byte_frequencies
    from tests.algorithms import huffman_reference as reference

    frequencies = byte_frequencies(raw)

    def new():
        return HuffmanTable.from_frequencies(frequencies)._encode_columns

    def old():
        lengths = reference.build_code_lengths(frequencies)
        return reference.encode_columns(reference.canonical_codes(lengths))

    for column, expected in zip(new(), old()):
        assert column.tolist() == expected.tolist()
    return new, old


def _fse_encode_pair(raw: bytes):
    """FSE-encode the 4 KiB payload's bytes at zstd's default accuracy log:
    the table-driven ``symbolTT`` loop + one ``pack_fields`` vs the
    step-by-step reference through ``BitWriter``. The table is built (and
    its lazy encode tables warmed) outside the timed region."""
    from repro.algorithms.fse import DEFAULT_ACCURACY_LOG, FseTable
    from repro.algorithms.huffman import byte_frequencies

    table = FseTable.from_frequencies(byte_frequencies(raw), DEFAULT_ACCURACY_LOG)
    return (lambda: table.encode(raw)), (lambda: table.reference_encode(raw))


def _seq_to_code_pair(raw: bytes):
    """SeqToCode over the 4 KiB payload's zstd sequences: the vectorized
    ``encode_code_values`` vs per-field ``value_to_code`` + ``BitWriter``."""
    from repro.algorithms.zstd import ZstdCodec, encode_code_values, value_to_code
    from repro.common.bitio import BitWriter

    stream = ZstdCodec().tokenize(raw)
    columns = (stream.literal_lengths, stream.offsets, stream.match_lengths)

    def old():
        codes_out = ([], [], [])
        writer = BitWriter()
        for literal_length, offset, match_length in zip(*columns):
            for value, codes in zip((literal_length, match_length, offset), codes_out):
                code, width, bits = value_to_code(value)
                codes.append(code)
                writer.write(bits, width)
        return (*codes_out, writer.getvalue(), writer.bit_length)

    return (lambda: encode_code_values(*columns)), old


@pytest.mark.bench
def test_snappy_parse_elements_roundtrip():
    """The decompression DSE hot path still parses a 64 KiB frame correctly."""
    from repro.algorithms.snappy import parse_elements

    raw = _payload(64 * 1024)
    compressed = get_codec("snappy").compress(raw)
    expected, stream = parse_elements(compressed)
    assert expected == len(raw)
    assert stream is not None


@pytest.mark.bench
def test_zstd_analyze_frame_roundtrip():
    """The ZStd decompression DSE hot path still analyzes a 64 KiB frame."""
    from repro.algorithms.zstd import analyze_frame

    raw = _payload(64 * 1024)
    frame = get_codec("zstd").compress(raw)
    stats = analyze_frame(frame)
    assert stats.content_bytes == len(raw)
