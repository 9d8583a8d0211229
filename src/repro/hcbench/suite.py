"""HyperCompressBench suite container with caching (paper §4, §6.1).

"A suite's aggregate performance metric is the total amount of time required
to (de)compress each benchmark file in the suite" (§6.1) — the DSE harness
iterates suites through both the Xeon model and the CDPU pipelines, so the
suite caches expensive per-file artifacts (compressed forms) and is memoized
per configuration.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import Operation
from repro.algorithms.registry import get_codec
from repro.common.store import Store, digest
from repro.common.units import ceil_log2
from repro.hcbench.generator import (
    SUITE_PAIRS,
    BenchmarkFile,
    GeneratorConfig,
    HcBenchGenerator,
)


@dataclass
class Suite:
    """One (algorithm, operation) benchmark suite."""

    algorithm: str
    operation: Operation
    files: List[BenchmarkFile]
    _compressed: Dict[str, bytes] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.files)

    @property
    def total_uncompressed_bytes(self) -> int:
        return sum(len(f.data) for f in self.files)

    def compressed_form(self, file: BenchmarkFile) -> bytes:
        """The compressed stream for a file (computed once, then cached).

        For decompression suites this is the input the accelerator/Xeon
        consumes; for compression suites it is the software-reference output
        used for ratio comparisons.
        """
        cached = self._compressed.get(file.name)
        if cached is None:
            codec = get_codec(file.algorithm)
            cached = codec.compress(file.data, level=file.level, window_size=file.window_size)
            self._compressed[file.name] = cached
        return cached

    def software_compression_ratio(self) -> float:
        """Aggregate SW ratio over the suite (uncompressed / compressed)."""
        total_unc = self.total_uncompressed_bytes
        total_comp = sum(len(self.compressed_form(f)) for f in self.files)
        return total_unc / max(1, total_comp)

    def call_size_cdf(self, bins: List[int], *, weighting: str = "file") -> np.ndarray:
        """Call-size CDF over the given ceil(log2) bins (Figure 7).

        ``weighting='file'`` (default) weights every file equally — because
        suite files are drawn byte-weighted from fleet calls, each file stands
        for an equal share of fleet bytes, so the unweighted file CDF is the
        estimator of the fleet's byte-weighted CDF. ``weighting='bytes'``
        weights by file size (useful at full scale with thousands of files).
        """
        if weighting not in ("file", "bytes"):
            raise ValueError(f"weighting must be 'file' or 'bytes', got {weighting!r}")
        totals = np.zeros(len(bins))
        for file in self.files:
            size = max(1, len(file.data))
            b = ceil_log2(size)
            index = int(np.clip(np.searchsorted(bins, b), 0, len(bins) - 1))
            totals[index] += size if weighting == "bytes" else 1.0
        if totals.sum() == 0:
            raise ValueError("empty suite")
        return np.cumsum(totals) / totals.sum()


@dataclass
class HyperCompressBench:
    """The full four-suite benchmark (paper §4: ~35,000 files at full scale)."""

    suites: Dict[Tuple[str, Operation], Suite]
    config: GeneratorConfig

    def suite(self, algorithm: str, operation: Operation) -> Suite:
        try:
            return self.suites[(algorithm, operation)]
        except KeyError:
            known = ", ".join(f"{a}/{o.value}" for a, o in self.suites)
            raise KeyError(
                f"no suite for {algorithm}/{operation.value}; available: {known}"
            ) from None

    @property
    def total_files(self) -> int:
        return sum(len(s) for s in self.suites.values())


def generate_hypercompressbench(config: GeneratorConfig = GeneratorConfig()) -> HyperCompressBench:
    """Generate all four suites from fleet statistics (uncached)."""
    generator = HcBenchGenerator(config)
    suites = {
        (algo, op): Suite(algo, op, files)
        for (algo, op), files in generator.generate_all().items()
    }
    return HyperCompressBench(suites=suites, config=config)


#: Bump when generator behaviour changes so stale disk caches are ignored.
GENERATOR_VERSION = 8  # v8: CRC-32C content trailers change codec output bytes


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    return Path(root) if root else Path.home() / ".cache" / "repro_cdpu"


def _store() -> Store:
    """The disk store of generated benchmarks. The generator version is part
    of each key, so two versions share the directory without evicting each
    other."""
    return Store(_cache_dir() / "hcbench", schema=1, suffix=".pkl")


def _store_key(seed: int, files_per_suite: int) -> str:
    return digest(
        {
            "generator_version": GENERATOR_VERSION,
            "seed": seed,
            "files_per_suite": files_per_suite,
        }
    )


@lru_cache(maxsize=4)
def default_benchmark(seed: int = 0, files_per_suite: int = 48) -> HyperCompressBench:
    """Memoized default-scale benchmark shared by tests and benches.

    Generation takes tens of seconds (every chunk is really compressed under
    every LUT configuration), so results are also persisted to a disk cache
    keyed by the generator version and parameters. Set ``REPRO_CACHE_DIR`` to
    relocate the cache; delete it to force regeneration.
    """
    store = _store()
    key = _store_key(seed, files_per_suite)
    bench = store.get(key, pickle.loads, HyperCompressBench)
    if bench is None:
        bench = generate_hypercompressbench(
            GeneratorConfig(seed=seed, files_per_suite=files_per_suite)
        )
        store.put(key, pickle.dumps(bench))
    return bench
