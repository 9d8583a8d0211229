"""Unit tests for the DSE runner (§6.1 methodology)."""

import pytest

from repro.algorithms.base import Operation
from repro.algorithms.zstd import analyze_frame
from repro.core.params import CdpuConfig
from repro.dse.runner import DseRunner
from repro.hcbench.suite import HyperCompressBench, Suite
from repro.soc.placement import Placement


class TestEvaluation:
    def test_design_point_fields(self, dse_runner):
        point = dse_runner.evaluate(CdpuConfig(), "snappy", Operation.DECOMPRESS)
        assert point.accel_seconds > 0
        assert point.xeon_seconds > 0
        assert point.area_mm2 == pytest.approx(0.431, abs=0.001)
        assert point.speedup == pytest.approx(point.xeon_seconds / point.accel_seconds)
        assert point.hw_ratio is None  # decompression has no ratio series

    def test_compression_point_has_ratios(self, dse_runner):
        point = dse_runner.evaluate(CdpuConfig(), "snappy", Operation.COMPRESS)
        assert point.hw_ratio is not None and point.sw_ratio is not None
        assert point.ratio_vs_software == pytest.approx(point.hw_ratio / point.sw_ratio)

    def test_throughput_properties(self, dse_runner):
        point = dse_runner.evaluate(CdpuConfig(), "snappy", Operation.DECOMPRESS)
        assert point.accel_gbps > point.xeon_gbps > 0

    def test_placements_share_decode_workload(self, dse_runner):
        """Parsing is config-independent; placements reuse it (cache hit)."""
        a = dse_runner.evaluate(CdpuConfig(), "zstd", Operation.DECOMPRESS)
        b = dse_runner.evaluate(
            CdpuConfig(placement=Placement.CHIPLET), "zstd", Operation.DECOMPRESS
        )
        assert a.xeon_seconds == b.xeon_seconds
        assert a.accel_seconds < b.accel_seconds

    def test_encode_workload_keyed_by_encoder_params(self, dse_runner):
        key_a = dse_runner._encoder_key("snappy", CdpuConfig())
        key_b = dse_runner._encoder_key("snappy", CdpuConfig(placement=Placement.CHIPLET))
        key_c = dse_runner._encoder_key("snappy", CdpuConfig(encoder_history_bytes=2048))
        assert key_a == key_b  # placement does not re-run the matcher
        assert key_a != key_c  # history size does

    def test_xeon_seconds_memoized(self, dse_runner):
        first = dse_runner.xeon_seconds("snappy", Operation.COMPRESS)
        assert dse_runner.xeon_seconds("snappy", Operation.COMPRESS) == first

    def test_encode_workload_matches_each_block_once(self, bench, match_calls):
        """One matcher run per matched block of each (file, encoder key):
        placements share it, and sizing the frame is not a second run."""
        suites = {}
        for algorithm in ("snappy", "zstd"):
            suite = bench.suite(algorithm, Operation.COMPRESS)
            largest = max(suite.files, key=lambda file: len(file.data))
            suites[(algorithm, Operation.COMPRESS)] = Suite(
                algorithm, Operation.COMPRESS, [largest, *suite.files[:2]]
            )
        runner = DseRunner(HyperCompressBench(suites=suites, config=bench.config))
        keys = [CdpuConfig(), CdpuConfig(encoder_history_bytes=2048)]
        expected = []
        for (algorithm, operation), suite in suites.items():
            for config in keys:
                pipeline = runner._generator.generate(config).pipeline(algorithm, operation)
                for file in suite.files:
                    if algorithm == "snappy":
                        expected.append(len(file.data))
                        continue
                    blocks = analyze_frame(pipeline.encode(file.data).frame).blocks
                    expected += [b.raw_size for b in blocks if b.block_type != "rle"]
        zstd_files = suites[("zstd", Operation.COMPRESS)].files
        assert max(len(file.data) for file in zstd_files) > 128 * 1024  # multi-block

        match_calls.clear()
        for algorithm, operation in suites:
            for config in keys:
                for placement in Placement:
                    runner.evaluate(config.with_(placement=placement), algorithm, operation)
        assert sorted(match_calls) == sorted(expected)
