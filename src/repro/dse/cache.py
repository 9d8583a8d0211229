"""Persistent on-disk memo store for DSE design-point evaluations.

A cold ``benchmarks/`` run re-derives every matcher token stream and frame
analysis from scratch; this cache makes the second and every later sweep a
sequence of disk reads instead. Entries are :class:`DesignPointResult`
pickles keyed by a SHA-256 content hash over everything that can change an
evaluation's bytes:

* the code that computes it — the :func:`~repro.common.store.source_digest`
  of :data:`CODE_ROOTS`: the DSE, the cycle model and its calibration
  constants, the SoC model, the codecs and matcher, and the packages that
  build the default benchmark;
* a digest of every suite file's payload and usage parameters, so a custom
  bench cannot alias the default one;
* the Xeon baseline's parameters;
* the design point itself — algorithm, operation, and the full
  :class:`~repro.core.params.CdpuConfig` (which subsumes the
  encoder-relevant LZ77 parameters).

The entries live in a :class:`repro.common.store.Store`, which owns the
on-disk contract (atomic writes, schema eviction, corrupt entries recomputed).
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
from pathlib import Path
from typing import Optional, Union

from repro import obs
from repro.common.store import PACKAGE_DIR, Store, digest, source_digest
from repro.dse.runner import DesignPoint, DesignPointResult, DseRunner

#: Bump whenever the key material or entry layout changes; the first open
#: under a new schema evicts every entry written under an old one. Version
#: 3: ``DesignPointResult.suite_bytes`` is a constructor field.
CACHE_SCHEMA_VERSION = 3

#: The packages whose code computes an entry. The DSE imports nothing else
#: from ``repro`` that can change a result (checked by a tier-1 test).
CODE_ROOTS = tuple(
    PACKAGE_DIR / name
    for name in ("algorithms", "common", "core", "corpus", "dse", "fleet", "hcbench", "soc")
)

#: Default cache location, as documented in README/DESIGN (relative to the
#: working directory, i.e. the repo root in normal use). Override with the
#: ``REPRO_DSE_CACHE_DIR`` environment variable or an explicit ``root``.
DEFAULT_CACHE_DIRNAME = os.path.join("results", ".dse-cache")


def _bench_digest(bench) -> str:
    """Content digest of every suite file (payload + usage parameters)."""
    sha = hashlib.sha256()
    for (algorithm, operation), suite in sorted(
        bench.suites.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    ):
        sha.update(f"{algorithm}/{operation.value}".encode("utf-8"))
        for file in suite.files:
            sha.update(
                f"{file.name}|{file.level}|{file.window_size}|{len(file.data)}".encode("utf-8")
            )
            sha.update(file.data)
    return sha.hexdigest()


def runner_fingerprint(runner: DseRunner) -> str:
    """Hash of everything evaluation-relevant that is *not* the design point.

    Memoized on the runner instance: the benchmark and baseline a runner is
    bound to never change after construction.
    """
    cached = getattr(runner, "_cache_fingerprint", None)
    if cached is not None:
        return cached
    fingerprint = digest(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "code": source_digest(*CODE_ROOTS),
            "bench_content": _bench_digest(runner.bench),
            "xeon": runner.xeon,
        }
    )
    runner._cache_fingerprint = fingerprint
    return fingerprint


class DseCache:
    """Disk-backed memo store mapping design-point keys to results."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_DSE_CACHE_DIR") or DEFAULT_CACHE_DIRNAME
        self.root = Path(root)
        self.store = Store(
            self.root,
            schema=CACHE_SCHEMA_VERSION,
            suffix=".pkl",
            on_evict=functools.partial(obs.counter_add, "dse.cache.evict", 1),
        )
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, fingerprint: str, point: DesignPoint) -> str:
        """Content key for one design point under a runner fingerprint."""
        return digest(
            {
                "fingerprint": fingerprint,
                "algorithm": point.algorithm,
                "operation": point.operation,
                "config": point.config,
            }
        )

    def get(self, key: str) -> Optional[DesignPointResult]:
        """Load a cached result, or ``None`` on a miss.

        A damaged entry (truncated pickle, stale class layout, wrong type)
        is deleted and reported as a miss so the caller recomputes.
        """
        result = self.store.get(key, pickle.loads, DesignPointResult)
        if result is None:
            self.misses += 1
            obs.counter_add("dse.cache.miss", 1)
        else:
            self.hits += 1
            obs.counter_add("dse.cache.hit", 1)
        return result

    def put(self, key: str, result: DesignPointResult) -> None:
        """Store a result atomically (best-effort: IO failure is not fatal)."""
        if self.store.put(key, pickle.dumps(result)):
            self.stores += 1
            obs.counter_add("dse.cache.store", 1)
