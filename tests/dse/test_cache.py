"""Persistent DSE cache: keys, counters, entry decoding and sweep integration.

The on-disk contract itself (atomic writes, corrupt-entry eviction, schema
bumps) is tested once for every cache in ``tests/common/test_store.py``.
"""

import pickle

import pytest

from repro.algorithms.base import Operation
from repro.core.params import CdpuConfig
from repro.dse.cache import CACHE_SCHEMA_VERSION, DseCache, runner_fingerprint
from repro.dse.parallel import evaluate_points
from repro.dse.runner import DesignPoint
from repro.soc.placement import Placement

POINT = DesignPoint("snappy", Operation.DECOMPRESS, CdpuConfig())


@pytest.fixture()
def cache(tmp_path) -> DseCache:
    return DseCache(tmp_path / "dse-cache")


class TestKeys:
    def test_stable_for_equal_points(self, cache):
        other = DesignPoint("snappy", Operation.DECOMPRESS, CdpuConfig())
        assert cache.key("fp", POINT) == cache.key("fp", other)

    def test_sensitive_to_every_coordinate(self, cache):
        base = cache.key("fp", POINT)
        variants = [
            DesignPoint("zstd", POINT.operation, POINT.config),
            DesignPoint(POINT.algorithm, Operation.COMPRESS, POINT.config),
            DesignPoint(
                POINT.algorithm,
                POINT.operation,
                CdpuConfig(placement=Placement.CHIPLET),
            ),
            DesignPoint(
                POINT.algorithm, POINT.operation, CdpuConfig(decoder_history_bytes=4096)
            ),
        ]
        keys = {cache.key("fp", v) for v in variants}
        assert base not in keys and len(keys) == len(variants)

    def test_sensitive_to_runner_fingerprint(self, cache):
        assert cache.key("fp-a", POINT) != cache.key("fp-b", POINT)

    def test_fingerprint_memoized_on_runner(self, dse_runner):
        first = runner_fingerprint(dse_runner)
        assert runner_fingerprint(dse_runner) == first
        assert dse_runner._cache_fingerprint == first


class TestEntryIO:
    def test_miss_on_empty_store(self, cache):
        assert cache.get("deadbeef") is None
        assert cache.misses == 1 and cache.hits == 0

    def test_put_get_roundtrip(self, cache, dse_runner):
        result = dse_runner.evaluate_point(POINT)
        cache.put("k", result)
        assert cache.get("k") == result
        assert cache.stores == 1 and cache.hits == 1

    def test_wrong_type_entry_is_evicted(self, cache):
        cache.store.put("k", pickle.dumps({"not": "a result"}))
        assert cache.get("k") is None
        assert not cache.store.path("k").exists()


class TestSchemaEviction:
    def test_old_schema_entries_evicted_on_open(self, cache, dse_runner):
        cache.put("k", dse_runner.evaluate_point(POINT))
        (cache.root / "SCHEMA").write_text("0\n")
        reopened = DseCache(cache.root)
        assert reopened.get("k") is None
        assert (cache.root / "SCHEMA").read_text().strip() == str(
            CACHE_SCHEMA_VERSION
        )

    def test_current_schema_entries_survive_reopen(self, cache, dse_runner):
        result = dse_runner.evaluate_point(POINT)
        cache.put("k", result)
        assert DseCache(cache.root).get("k") == result


class TestSweepIntegration:
    def test_corrupt_entry_recomputes_not_raises(self, cache, dse_runner):
        reference = evaluate_points(dse_runner, [POINT], cache=cache)
        key = cache.key(runner_fingerprint(dse_runner), POINT)
        cache.store.path(key).write_bytes(b"torn write")
        again = evaluate_points(dse_runner, [POINT], cache=cache)
        assert again == reference
        # The recompute must also have repaired the store.
        assert cache.get(key) == reference[0]

    def test_blocked_cache_matches_uncached(self, tmp_path, dse_runner):
        blocker = tmp_path / "file"
        blocker.write_text("in the way")
        blocked = DseCache(blocker / "dse-cache")
        assert evaluate_points(dse_runner, [POINT], cache=blocked) == evaluate_points(
            dse_runner, [POINT]
        )
        assert blocked.stores == 0 and blocked.misses == 1
