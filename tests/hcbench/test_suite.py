"""Unit tests for the suite container and benchmark caching."""

import pickle

import numpy as np
import pytest

import repro.hcbench.suite as suite_module
from repro.algorithms.base import Operation
from repro.hcbench import default_benchmark
from repro.hcbench.suite import HyperCompressBench


class TestBenchmarkStructure:
    def test_four_suites(self, bench):
        assert len(bench.suites) == 4
        assert bench.total_files == sum(len(s) for s in bench.suites.values())

    def test_suite_lookup(self, bench):
        suite = bench.suite("snappy", Operation.COMPRESS)
        assert suite.algorithm == "snappy"
        assert suite.operation is Operation.COMPRESS

    def test_unknown_suite_raises(self, bench):
        with pytest.raises(KeyError, match="available"):
            bench.suite("brotli", Operation.COMPRESS)

    def test_total_bytes_positive(self, bench):
        for suite in bench.suites.values():
            assert suite.total_uncompressed_bytes > 10_000


class TestCompressedForms:
    def test_cached_and_stable(self, bench):
        suite = bench.suite("snappy", Operation.DECOMPRESS)
        file = suite.files[0]
        first = suite.compressed_form(file)
        assert suite.compressed_form(file) is first

    def test_decompresses_back(self, bench):
        from repro.algorithms.registry import get_codec

        suite = bench.suite("zstd", Operation.DECOMPRESS)
        file = suite.files[0]
        codec = get_codec("zstd")
        assert codec.decompress(suite.compressed_form(file)) == file.data

    def test_software_ratio_above_one(self, bench):
        for suite in bench.suites.values():
            assert suite.software_compression_ratio() > 1.0


class TestCallSizeCdf:
    def test_monotone_complete(self, bench):
        suite = bench.suite("snappy", Operation.COMPRESS)
        cdf = suite.call_size_cdf(list(range(4, 21)))
        assert (np.diff(cdf) >= -1e-12).all()
        assert cdf[-1] == pytest.approx(1.0)

    def test_weighting_modes(self, bench):
        suite = bench.suite("zstd", Operation.DECOMPRESS)
        bins = list(range(4, 21))
        by_file = suite.call_size_cdf(bins, weighting="file")
        by_bytes = suite.call_size_cdf(bins, weighting="bytes")
        # Byte weighting shifts mass toward larger bins.
        assert by_bytes[len(bins) // 2] <= by_file[len(bins) // 2] + 1e-9

    def test_bad_weighting_rejected(self, bench):
        suite = bench.suite("snappy", Operation.COMPRESS)
        with pytest.raises(ValueError):
            suite.call_size_cdf([10, 11], weighting="calls")


class TestDiskCache:
    def test_memoized_instance(self, bench):
        assert default_benchmark() is bench

    def test_cache_file_exists(self, bench):
        store = suite_module._store()
        assert store.path(suite_module._store_key(0, 48)).exists()

    def test_truncated_entry_is_regenerated_and_replaced(self, cheap_generation):
        store = suite_module._store()
        key = suite_module._store_key(0, 1)
        store.put(key, b"\x80\x04truncated")
        bench = default_benchmark.__wrapped__(0, 1)
        assert len(cheap_generation) == 1
        assert store.get(key, pickle.loads, HyperCompressBench) == bench
        assert [p.name for p in store.root.iterdir() if ".tmp." in p.name] == []

    def test_generator_versions_share_the_store(self, cheap_generation, monkeypatch):
        store = suite_module._store()
        default_benchmark.__wrapped__(0, 1)
        monkeypatch.setattr(suite_module, "GENERATOR_VERSION", suite_module.GENERATOR_VERSION + 1)
        default_benchmark.__wrapped__(0, 1)
        assert len(cheap_generation) == 2
        assert len(list(store.root.glob("*.pkl"))) == 2

    def test_uncreatable_cache_dir_still_generates(self, cheap_generation, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        assert default_benchmark.__wrapped__(0, 1).config.files_per_suite == 1
        assert len(cheap_generation) == 1


@pytest.fixture()
def cheap_generation(monkeypatch, tmp_path):
    """A disk cache under ``tmp_path`` and a generator that returns an empty
    benchmark at once; yields the configs it was asked to generate."""
    calls = []

    def generate(config):
        calls.append(config)
        return HyperCompressBench(suites={}, config=config)

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(suite_module, "generate_hypercompressbench", generate)
    return calls
