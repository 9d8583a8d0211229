"""Unit tests for the four CDPU pipelines: functional + cycle behaviour."""

import dataclasses
import random

import pytest

from repro.algorithms.base import Operation
from repro.algorithms.lz77 import Lz77Encoder, MatcherStats, TokenStream
from repro.algorithms.snappy import SNAPPY_WINDOW, SnappyCodec
from repro.algorithms.container import append_content_checksum
from repro.algorithms.zstd import (
    BLOCK_SIZE,
    ZSTD_FRAME,
    SequenceCoder,
    ZstdCodec,
    _encode_block_body,
    analyze_frame,
    level_params,
)
from repro.common.varint import encode_varint
from repro.core.blocks.entropy import FseExpanderBlock
from repro.core.generator import CdpuGenerator
from repro.core.params import CdpuConfig
from repro.core.pipelines.snappy import SnappyCompressorPipeline, SnappyDecompressorPipeline
from repro.core.pipelines.zstd import ZstdCompressorPipeline, ZstdDecompressorPipeline
from repro.soc.memory import MemorySystem
from repro.soc.placement import Placement

ROCC_MEM = MemorySystem.for_placement(Placement.ROCC)


def make(pipeline_cls, config=None, placement=Placement.ROCC):
    config = config or CdpuConfig()
    config = config.with_(placement=placement)
    return pipeline_cls(config, MemorySystem.for_placement(placement))


@pytest.fixture(scope="module")
def payloads(sample_inputs):
    return {k: v for k, v in sample_inputs.items() if v}


class TestSnappyDecompressor:
    def test_functional_verification(self, payloads):
        pipeline = make(SnappyDecompressorPipeline)
        codec = SnappyCodec()
        for name, data in payloads.items():
            result = pipeline.run(codec.compress(data), verify=True)
            assert result.output_bytes == len(data), name

    def test_corrupt_input_raises(self):
        from repro.common.errors import CorruptStreamError

        pipeline = make(SnappyDecompressorPipeline)
        with pytest.raises(CorruptStreamError):
            pipeline.run(b"\xff\xff\xff garbage")

    def test_placement_slows_calls(self, payloads):
        codec = SnappyCodec()
        stream = codec.compress(payloads["text"])
        near = make(SnappyDecompressorPipeline).run(stream)
        far = make(SnappyDecompressorPipeline, placement=Placement.PCIE_NO_CACHE).run(stream)
        assert far.cycles > 2 * near.cycles

    def test_small_sram_adds_fallback_cycles_on_chiplet(self):
        import random

        rng = random.Random(33)
        # Long-range structure: repeats at ~8 KiB distance force copy
        # offsets far beyond a 2 KiB history SRAM.
        block_a = bytes(rng.getrandbits(8) for _ in range(4096))
        block_b = bytes(rng.getrandbits(8) for _ in range(4096))
        data = (block_a + block_b) * 6
        stream = SnappyCodec().compress(data)
        big = make(
            SnappyDecompressorPipeline,
            CdpuConfig(decoder_history_bytes=64 * 1024),
            Placement.CHIPLET,
        ).run(stream)
        small = make(
            SnappyDecompressorPipeline,
            CdpuConfig(decoder_history_bytes=2048),
            Placement.CHIPLET,
        ).run(stream)
        assert small.cycles > big.cycles

    def test_throughput_in_plausible_range(self, payloads):
        result = make(SnappyDecompressorPipeline).run(SnappyCodec().compress(payloads["text"]))
        assert 1.0 < result.throughput_gbps < 40.0

    def test_requires_snappy_support(self):
        with pytest.raises(ValueError):
            make(SnappyDecompressorPipeline, CdpuConfig(algorithms=frozenset({"zstd"})))


class TestSnappyCompressor:
    def test_output_decodable_by_software(self, payloads):
        pipeline = make(SnappyCompressorPipeline)
        for name, data in payloads.items():
            pipeline.run(data, verify=True)  # verify asserts SW decodability

    def test_hw_ratio_at_64k_not_worse_than_sw(self, payloads):
        """§6.3: no skipping heuristic -> HW >= SW ratio on mixed data."""
        pipeline = make(SnappyCompressorPipeline)
        data = payloads["mixed"] * 4
        hw_size = len(pipeline.encode(data).frame)
        sw_size = len(SnappyCodec().compress(data))
        assert hw_size <= sw_size * 1.005

    def test_small_history_degrades_ratio(self, payloads):
        data = payloads["text"] * 8
        big = make(SnappyCompressorPipeline, CdpuConfig(encoder_history_bytes=64 * 1024))
        small = make(SnappyCompressorPipeline, CdpuConfig(encoder_history_bytes=1024))
        assert len(small.encode(data).frame) >= len(big.encode(data).frame)

    def test_history_beyond_the_format_window_stays_decodable(self):
        """A history SRAM larger than Snappy's 64 KiB window must not emit
        offsets the decoder rejects, however the frame is fed."""
        rng = random.Random(5)
        repeat = bytes(rng.getrandbits(8) for _ in range(1000))
        data = repeat + bytes(rng.getrandbits(8) for _ in range(100_000)) + repeat
        pipeline = make(SnappyCompressorPipeline, CdpuConfig(encoder_history_bytes=128 * 1024))
        encoded = pipeline.encode(data)
        assert max(encoded.tokens.offsets, default=0) <= SNAPPY_WINDOW
        pipeline.run(data, verify=True)
        ctx = SnappyCodec().decompress_context()
        frame = encoded.frame
        out = b"".join(ctx.feed(frame[i : i + 4096]) for i in range(0, len(frame), 4096))
        assert out + ctx.flush() == data

    def test_small_hash_table_degrades_ratio(self, payloads):
        data = payloads["mixed"] * 4
        big = make(SnappyCompressorPipeline, CdpuConfig(hash_table_entries=1 << 14))
        small = make(SnappyCompressorPipeline, CdpuConfig(hash_table_entries=1 << 6))
        assert len(small.encode(data).frame) >= len(big.encode(data).frame)

    def test_compression_less_placement_sensitive_than_decompression(self, payloads):
        """§6.6 lesson 2."""
        data = payloads["text"] * 4
        comp_near = make(SnappyCompressorPipeline).run(data)
        comp_far = make(SnappyCompressorPipeline, placement=Placement.PCIE_NO_CACHE).run(data)
        stream = SnappyCodec().compress(data)
        dec_near = make(SnappyDecompressorPipeline).run(stream)
        dec_far = make(SnappyDecompressorPipeline, placement=Placement.PCIE_NO_CACHE).run(stream)
        comp_penalty = comp_far.cycles / comp_near.cycles
        dec_penalty = dec_far.cycles / dec_near.cycles
        assert comp_penalty < dec_penalty


class TestZstdDecompressor:
    def test_functional_verification(self, payloads):
        pipeline = make(ZstdDecompressorPipeline)
        codec = ZstdCodec()
        for name, data in payloads.items():
            result = pipeline.run(codec.compress(data), verify=True)
            assert result.output_bytes == len(data), name

    def test_more_speculation_is_faster_on_literal_heavy_data(self):
        import random

        rng = random.Random(21)
        data = bytes(rng.choice(b"abcdefghijklmnop") for _ in range(60_000))
        stream = ZstdCodec().compress(data)
        slow = make(ZstdDecompressorPipeline, CdpuConfig(huffman_speculation=4)).run(stream)
        fast = make(ZstdDecompressorPipeline, CdpuConfig(huffman_speculation=32)).run(stream)
        assert fast.cycles < slow.cycles

    def test_fse_table_builds_charged_at_the_widest_block_table(self):
        """A frame opening with a raw block still pays for the accuracy
        log its later compressed block's tables use."""
        text = b"tables built at accuracy log eleven, block two. " * 40
        stream = Lz77Encoder(level_params(3).lz77_params(1 << 17)).encode(text)
        body = _encode_block_body(stream, SequenceCoder(11))
        raw = b"raw block zero"
        frame = ZSTD_FRAME.encode_preamble(content_length=len(raw) + len(text), window_log=17)
        frame += bytes([0x00]) + encode_varint(len(raw)) + raw
        frame += bytes([0x82]) + encode_varint(len(text)) + encode_varint(len(body)) + body
        stats = analyze_frame(append_content_checksum(frame, raw + text))
        assert [b.block_type for b in stats.blocks] == ["raw", "compressed"]
        assert stats.max_fse_accuracy_log == 11
        config = CdpuConfig(fse_max_accuracy_log=12)
        report = make(ZstdDecompressorPipeline, config).account(stats).report
        fse = FseExpanderBlock(config)
        assert report.serial["fse-table-build"] == fse.table_build_cycles(3, 11)
        assert report.serial["fse-table-build"] > fse.table_build_cycles(3, 9)

    def test_slower_than_snappy_decomp_per_byte(self, payloads):
        """§6.4: the entropy stages cost throughput vs the Snappy pipeline."""
        data = payloads["text"] * 4
        z = make(ZstdDecompressorPipeline).run(ZstdCodec().compress(data))
        s = make(SnappyDecompressorPipeline).run(SnappyCodec().compress(data))
        assert z.cycles > s.cycles


class TestZstdCompressor:
    def test_output_decodable_by_software(self, payloads):
        pipeline = make(ZstdCompressorPipeline)
        for name, data in payloads.items():
            pipeline.run(data, verify=True)

    def test_hw_ratio_at_most_software(self, payloads):
        """§6.5: greedy Snappy-configured matcher trails software levels."""
        data = payloads["text"] * 8
        hw = len(make(ZstdCompressorPipeline).encode(data).frame)
        sw = len(ZstdCodec().compress(data, level=3))
        assert hw >= sw * 0.98

    def test_entropy_stages_are_serial_cost(self, payloads):
        data = payloads["text"] * 4
        result = make(ZstdCompressorPipeline).run(data)
        assert "huffman-stats" in result.report.serial
        assert "fse-encoder" in result.report.serial


def _raw_rle_compressed(text: bytes) -> bytes:
    """Three blocks: incompressible (raw fallback), one byte (RLE), text."""
    noise = random.Random(7).randbytes(BLOCK_SIZE)
    return noise + b"z" * BLOCK_SIZE + text * 4


class TestAccountedStreamIsTheFrameStream:
    """The ZStd compressor accounts the tokens its frame carries:
    ``analyze_frame`` reads the same columns back, and the stats are the
    sums of one matcher run per matched block."""

    @staticmethod
    def _check(pipeline, data):
        encoded = pipeline.encode(data)
        frame = analyze_frame(encoded.frame)
        for column in (
            "literal_lengths", "offsets", "match_lengths", "literals", "trailing", "breaks"
        ):
            assert getattr(encoded.tokens, column) == getattr(frame.tokens, column), column
        encoder = Lz77Encoder(pipeline.config.encoder_lz77_params())
        expected = MatcherStats()
        for index, block in enumerate(frame.blocks):
            chunk = data[index * BLOCK_SIZE : (index + 1) * BLOCK_SIZE]
            if block.block_type != "rle" and chunk:
                expected += encoder.encode_with_stats(chunk)[1]
        assert encoded.stats == expected
        return frame

    def test_every_hcbench_zstd_file(self, bench):
        pipeline = make(ZstdCompressorPipeline)
        files = bench.suite("zstd", Operation.COMPRESS).files
        assert any(len(file.data) > BLOCK_SIZE for file in files)
        for file in files:
            self._check(pipeline, file.data)

    def test_raw_rle_and_compressed_blocks(self, payloads):
        frame = self._check(make(ZstdCompressorPipeline), _raw_rle_compressed(payloads["text"]))
        assert [block.block_type for block in frame.blocks] == ["raw", "rle", "compressed"]
        assert frame.tokens.breaks  # the raw block and the RLE byte stay two elements

    def test_run_matches_each_block_once(self, payloads, match_calls):
        data = _raw_rle_compressed(payloads["text"])
        make(ZstdCompressorPipeline).run(data, verify=True)
        assert match_calls == [BLOCK_SIZE, len(data) - 2 * BLOCK_SIZE]  # RLE is never matched
        match_calls.clear()
        make(SnappyCompressorPipeline).run(data, verify=True)
        assert match_calls == [len(data)]


class TestCycleReports:
    def test_breakdown_totals(self, payloads):
        result = make(SnappyDecompressorPipeline).run(SnappyCodec().compress(payloads["text"]))
        report = result.report
        assert report.total_cycles == pytest.approx(
            max(report.pipelined.values()) + sum(report.serial.values())
        )
        assert report.bottleneck in report.pipelined

    def test_seconds_conversion(self, payloads):
        result = make(SnappyDecompressorPipeline).run(SnappyCodec().compress(payloads["text"]))
        assert result.seconds == pytest.approx(result.cycles / 2e9)


class TestGeneratorStructure:
    def test_generates_requested_pipelines(self):
        instance = CdpuGenerator().generate(CdpuConfig(algorithms=frozenset({"snappy"})))
        assert ("snappy", Operation.COMPRESS) in instance.pipelines
        assert ("zstd", Operation.COMPRESS) not in instance.pipelines
        with pytest.raises(KeyError):
            instance.pipeline("zstd", Operation.COMPRESS)

    def test_block_inventory_mirrors_figures_9_and_10(self):
        instance = CdpuGenerator().generate(CdpuConfig())
        zstd_decomp = instance.block_inventory("zstd", Operation.DECOMPRESS)
        assert "fse-table-builder" in zstd_decomp
        assert "huff-table-builder" in zstd_decomp
        snappy_decomp = instance.block_inventory("snappy", Operation.DECOMPRESS)
        assert "fse-table-builder" not in snappy_decomp
        # The LZ77 decoder blocks are shared between the two (§6.4).
        from repro.core.generator import SHARED_BLOCKS

        for block in SHARED_BLOCKS[Operation.DECOMPRESS]:
            assert block in zstd_decomp and block in snappy_decomp

    def test_zstd_compressor_has_seq_to_code(self):
        instance = CdpuGenerator().generate(CdpuConfig())
        assert "seq-to-code-converter" in instance.block_inventory("zstd", Operation.COMPRESS)

    def test_area_accessor(self):
        instance = CdpuGenerator().generate(CdpuConfig())
        assert instance.area_mm2("snappy", Operation.DECOMPRESS) == pytest.approx(0.431, abs=0.001)


class TestVerifyIsByteExact:
    """``verify=True`` compares bytes with the software codec and raises a
    typed error — a same-length wrong reconstruction must not pass, and the
    check must not be an ``assert`` that ``python -O`` strips."""

    @staticmethod
    def _flip_first_byte(decode):
        def wrong(*args, **kwargs):
            out = bytearray(decode(*args, **kwargs))
            out[0] ^= 0xFF
            return bytes(out)

        return wrong

    @pytest.mark.parametrize(
        "module,pipeline_cls,codec_cls",
        [
            ("snappy", SnappyDecompressorPipeline, SnappyCodec),
            ("zstd", ZstdDecompressorPipeline, ZstdCodec),
        ],
    )
    def test_decompressor_same_length_mismatch_raises(
        self, monkeypatch, payloads, module, pipeline_cls, codec_cls
    ):
        import importlib

        from repro.common.errors import VerificationError

        pipelines = importlib.import_module(f"repro.core.pipelines.{module}")
        stream = codec_cls().compress(payloads["text"])
        monkeypatch.setattr(pipelines, "decode_tokens", self._flip_first_byte(pipelines.decode_tokens))
        with pytest.raises(VerificationError, match="differ from the software codec"):
            make(pipeline_cls).run(stream, verify=True)
        make(pipeline_cls).run(stream)  # without verify the model still runs

    @pytest.mark.parametrize(
        "pipeline_cls,codec_cls",
        [(SnappyCompressorPipeline, SnappyCodec), (ZstdCompressorPipeline, ZstdCodec)],
    )
    def test_compressor_mismatch_raises(self, monkeypatch, payloads, pipeline_cls, codec_cls):
        from repro.common.errors import VerificationError

        monkeypatch.setattr(codec_cls, "decompress", self._flip_first_byte(codec_cls.decompress))
        with pytest.raises(VerificationError, match="software codec"):
            make(pipeline_cls).run(payloads["text"], verify=True)

    @pytest.mark.parametrize("pipeline_cls", [SnappyCompressorPipeline, ZstdCompressorPipeline])
    @pytest.mark.parametrize("corrupt", ["same_length", "short"])
    def test_compressor_accounted_tokens_mismatch_raises(
        self, monkeypatch, payloads, pipeline_cls, corrupt
    ):
        """The frame decodes fine, but the accounted stream does not
        reproduce the input: verify must say so with a typed error."""
        from repro.common.errors import VerificationError

        encode = pipeline_cls.encode

        def wrong(self, data):
            encoded = encode(self, data)
            tokens = encoded.tokens
            literals = bytearray(tokens.literals)
            if corrupt == "same_length":
                literals[0] ^= 0xFF
                tokens = TokenStream(
                    tokens.literal_lengths, tokens.offsets, tokens.match_lengths,
                    bytes(literals), tokens.trailing, tokens.breaks,
                )
            else:
                tokens = TokenStream([], [], [], bytes(literals), len(literals))
            return dataclasses.replace(encoded, tokens=tokens)

        monkeypatch.setattr(pipeline_cls, "encode", wrong)
        with pytest.raises(VerificationError, match="accounted tokens"):
            make(pipeline_cls).run(payloads["text"], verify=True)
        make(pipeline_cls).run(payloads["text"])  # without verify the model still runs
