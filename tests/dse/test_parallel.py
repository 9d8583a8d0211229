"""Bit-identical parallel + cached sweeps — the tentpole's core guarantee.

``DesignPointResult`` is a frozen dataclass, so ``==`` compares every float
field exactly: the assertions below demand *bit-identical* results across
worker counts and cache states, not approximate agreement.
"""

from repro.algorithms.base import Operation
from repro.core.params import CdpuConfig
from repro.dse.cache import DseCache
from repro.dse.parallel import evaluate_points
from repro.dse.runner import DesignPoint, DseRunner
from repro.soc.placement import Placement


def small_sweep():
    """Four quick points spanning placements, SRAM sizes and operations."""
    return [
        DesignPoint("snappy", Operation.DECOMPRESS, CdpuConfig()),
        DesignPoint(
            "snappy",
            Operation.DECOMPRESS,
            CdpuConfig(placement=Placement.CHIPLET, decoder_history_bytes=4096),
        ),
        DesignPoint("snappy", Operation.COMPRESS, CdpuConfig()),
        DesignPoint(
            "snappy",
            Operation.COMPRESS,
            CdpuConfig(
                placement=Placement.PCIE_NO_CACHE, encoder_history_bytes=16 * 1024
            ),
        ),
    ]


class TestDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self, dse_runner):
        points = small_sweep()
        serial = evaluate_points(dse_runner, points, jobs=1)
        parallel = evaluate_points(dse_runner, points, jobs=4)
        assert parallel == serial

    def test_results_align_with_point_order(self, dse_runner):
        points = small_sweep()
        results = evaluate_points(dse_runner, points, jobs=4)
        for point, result in zip(points, results):
            assert result.algorithm == point.algorithm
            assert result.operation == point.operation
            assert result.config == point.config

    def test_cold_and_warm_cache_match_uncached(self, dse_runner, tmp_path):
        points = small_sweep()
        cache = DseCache(tmp_path / "cache")
        uncached = evaluate_points(dse_runner, points)
        cold = evaluate_points(dse_runner, points, cache=cache)
        assert cache.stores == len(points)
        warm = evaluate_points(dse_runner, points, cache=cache)
        assert cache.hits == len(points)
        assert cold == uncached
        assert warm == uncached

    def test_partial_cache_mixes_correctly(self, dse_runner, tmp_path):
        points = small_sweep()
        cache = DseCache(tmp_path / "cache")
        evaluate_points(dse_runner, points[:2], cache=cache)
        mixed = evaluate_points(dse_runner, points, cache=cache)
        assert mixed == evaluate_points(dse_runner, points)
        assert cache.hits == 2 and cache.stores == len(points)


class TestRunnerIntegration:
    def test_evaluate_many_honours_runner_engine_options(self, bench, tmp_path):
        points = small_sweep()[:2]
        cache = DseCache(tmp_path / "cache")
        runner = DseRunner(bench, jobs=2, cache=cache)
        results = runner.evaluate_many(points)
        assert cache.stores == len(points)
        baseline = DseRunner(bench)
        assert results == [baseline.evaluate_point(p) for p in points]

    def test_empty_sweep(self, dse_runner):
        assert evaluate_points(dse_runner, []) == []
