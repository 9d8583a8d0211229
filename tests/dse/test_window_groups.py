"""A sweep matches each window group once, before any point is evaluated.

Compress points whose encoder parameters differ only in the history size
form one window group. ``evaluate_many`` fills the compression memo for
the whole group with one history-set matcher call per file (per matched
block for ZStd), and pool workers start with that memo, so they run no
matcher at all.
"""

import os

import pytest

from repro.algorithms.base import Operation
from repro.algorithms.lz77 import Lz77Encoder
from repro.algorithms.zstd import BLOCK_SIZE, analyze_frame
from repro.core.params import CdpuConfig
from repro.dse.runner import DesignPoint, DseRunner
from repro.hcbench.suite import HyperCompressBench, Suite
from repro.soc.placement import Placement

HISTORIES = (2048, 4096, 8192, 16384, 32768, 65536)


def _grid(algorithm: str):
    return [
        DesignPoint(
            algorithm,
            Operation.COMPRESS,
            CdpuConfig(encoder_history_bytes=history, placement=placement),
        )
        for history in HISTORIES
        for placement in Placement
    ]


@pytest.fixture(scope="module")
def small_bench(bench):
    """The smallest, the median and the largest file of each compression
    suite (zstd's largest spans blocks). The software frames travel with
    the suites, so no worker compresses."""
    suites = {}
    for algorithm in ("snappy", "zstd"):
        suite = bench.suite(algorithm, Operation.COMPRESS)
        by_size = sorted(suite.files, key=lambda file: len(file.data))
        files = [by_size[0], by_size[len(by_size) // 2], by_size[-1]]
        suites[(algorithm, Operation.COMPRESS)] = Suite(
            algorithm,
            Operation.COMPRESS,
            files,
            {file.name: suite.compressed_form(file) for file in files},
        )
    assert len(suites[("zstd", Operation.COMPRESS)].files[-1].data) > BLOCK_SIZE
    return HyperCompressBench(suites=suites, config=bench.config)


def _expected_calls(runner: DseRunner, algorithm: str):
    """Input length of each (file, matched block): RLE blocks are never
    matched."""
    suite = runner.bench.suite(algorithm, Operation.COMPRESS)
    if algorithm == "snappy":
        return [len(file.data) for file in suite.files]
    pipeline = runner._generator.generate(CdpuConfig()).pipeline(algorithm, Operation.COMPRESS)
    lengths = []
    for file in suite.files:
        blocks = analyze_frame(pipeline.encode(file.data).frame).blocks
        lengths += [block.raw_size for block in blocks if block.block_type != "rle"]
    return lengths


@pytest.fixture
def parent_only_matcher(monkeypatch):
    """Fail any matcher call made outside this process (a pool worker)."""
    parent = os.getpid()
    for name in ("encode_with_stats", "encode_windows"):
        original = getattr(Lz77Encoder, name)

        def guarded(self, *args, original=original):
            if os.getpid() != parent:
                raise AssertionError("a pool worker ran the matcher")
            return original(self, *args)

        monkeypatch.setattr(Lz77Encoder, name, guarded)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("algorithm", ["snappy", "zstd"])
def test_one_matcher_call_per_block_per_window_group(
    small_bench, match_calls, parent_only_matcher, algorithm, jobs
):
    expected = _expected_calls(DseRunner(small_bench), algorithm)
    points = _grid(algorithm)
    match_calls.clear()
    results = DseRunner(small_bench, jobs=jobs).evaluate_many(points)
    assert sorted(match_calls) == sorted(expected)
    assert set(match_calls.windows) == {HISTORIES}
    # The same numbers as a runner that matches each point's key alone.
    alone = DseRunner(small_bench)
    assert results == [alone.evaluate_point(point) for point in points]
    assert len(match_calls) == len(expected) * (1 + len(HISTORIES))


def test_a_warm_memo_matches_nothing(small_bench, match_calls):
    runner = DseRunner(small_bench)
    points = _grid("snappy")
    first = runner.evaluate_many(points)
    match_calls.clear()
    assert runner.evaluate_many(points) == first
    assert match_calls == []


def test_groups_split_by_everything_but_the_history(small_bench, match_calls):
    # Two hash-table sizes: two window groups, so two calls per file.
    points = _grid("snappy") + [
        DesignPoint(
            "snappy",
            Operation.COMPRESS,
            CdpuConfig(encoder_history_bytes=history, hash_table_entries=1 << 9),
        )
        for history in HISTORIES
    ]
    DseRunner(small_bench).evaluate_many(points)
    files = len(small_bench.suite("snappy", Operation.COMPRESS).files)
    assert len(match_calls) == 2 * files
    assert set(match_calls.windows) == {HISTORIES}
