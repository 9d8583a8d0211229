"""Unit tests for ZStd-frame structural analysis (the HW model's input)."""

import pytest

from repro.algorithms.lz77 import decode_tokens
from repro.algorithms.zstd import ZstdCodec
from repro.algorithms.zstd_analyze import analyze_frame
from repro.common.errors import CorruptStreamError


@pytest.fixture(scope="module")
def codec():
    return ZstdCodec()


class TestAnalyzeFrame:
    def test_tokens_reconstruct_content(self, codec, sample_inputs):
        for name, data in sample_inputs.items():
            stats = analyze_frame(codec.compress(data))
            assert decode_tokens(stats.tokens) == data, name

    def test_content_and_compressed_sizes(self, codec):
        data = b"measure me " * 500
        frame = codec.compress(data)
        stats = analyze_frame(frame)
        assert stats.content_bytes == len(data)
        assert stats.compressed_bytes == len(frame)

    def test_huffman_symbols_counted_for_literal_heavy_data(self, codec):
        import random

        rng = random.Random(6)
        data = bytes(rng.choice(b"abcdefgh") for _ in range(20000))
        stats = analyze_frame(codec.compress(data))
        assert stats.huffman_symbols > 0
        assert stats.huffman_tables >= 1

    def test_rle_block_detected(self, codec):
        stats = analyze_frame(codec.compress(b"\x00" * 4096))
        assert any(b.block_type == "rle" for b in stats.blocks)

    def test_raw_block_for_random_data(self, codec):
        import random

        rng = random.Random(7)
        data = bytes(rng.getrandbits(8) for _ in range(4096))
        stats = analyze_frame(codec.compress(data))
        assert any(b.block_type == "raw" for b in stats.blocks)
        assert stats.huffman_symbols == 0

    def test_sequences_counted(self, codec):
        data = b"sequences everywhere " * 400
        stats = analyze_frame(codec.compress(data))
        assert stats.total_sequences > 0
        assert stats.total_fse_tables in (0, 3) or stats.total_fse_tables % 3 == 0

    def test_accuracy_logs_extracted(self, codec):
        data = b"accuracy logs " * 400
        stats = analyze_frame(codec.compress(data))
        compressed = [b for b in stats.blocks if b.block_type == "compressed"]
        assert compressed
        assert all(5 <= a <= 12 for b in compressed for a in b.fse_accuracy_logs)

    def test_window_log_passthrough(self, codec):
        frame = codec.compress(b"w" * 100, window_size=1 << 17)
        assert analyze_frame(frame).window_log == 17

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptStreamError):
            analyze_frame(b"JUNK" + b"\x00" * 10)

    def test_truncated_frame_rejected(self, codec):
        frame = codec.compress(b"truncate " * 200)
        with pytest.raises(CorruptStreamError):
            analyze_frame(frame[:-3])

    def test_agrees_with_decoder_on_multiblock(self, codec):
        data = (b"multi block content! " * 1300 + b"\xff") * 8  # > 128 KiB
        frame = codec.compress(data)
        stats = analyze_frame(frame)
        assert len(stats.blocks) >= 2
        assert decode_tokens(stats.tokens) == codec.decompress(frame)
