"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` checks that
the two agree. Every workload prints every metric of the mode it runs in:
the end-to-end metrics untraced, the per-layer metrics traced. A layer that a
workload does not exercise reads 0 there (no time spent, nothing counted).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit) of the end-to-end metrics, each measured on every workload.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
]

SUITES = ("snappy-c", "snappy-d", "zstd-c", "zstd-d")
LANES = ("snappy.compress", "snappy.decompress", "zstd.compress", "zstd.decompress")
RULE_CODES = tuple(f"R{n:03d}" for n in range(1, 17))

#: The workload-specific headline numbers, under their own names. Measured
#: untraced (the first half of a traced run) and printed with the layers.
HEADLINE: List[Tuple[str, str]] = [
    ("error_rate", "ratio"),
    ("sojourn_p50_ms", "ms"),
    ("sojourn_p99_ms", "ms"),
    ("saturated_rps", "1/s"),
    ("snappy_compress_mbps", "MB/s"),
    ("snappy_decompress_mbps", "MB/s"),
    ("zstd_compress_mbps", "MB/s"),
    ("zstd_decompress_mbps", "MB/s"),
    ("dse_sweep_s", "s"),
    ("dse_sweep_jobs2_s", "s"),
    ("lint_cold_s", "s"),
    ("lint_cold_jobs2_s", "s"),
    ("lint_warm_s", "s"),
]

SERVE_LAYERS: List[Tuple[str, str]] = [
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.roundtrip_overhead_ms.p50", "ms"),
    ("serve.roundtrip_overhead_ms.p99", "ms"),
    ("serve.ipc_floor_ms.p50", "ms"),
    ("serve.client_overhead_ms.p50", "ms"),
    ("serve.unattributed_ms.p50", "ms"),
    ("serve.cold_start_ms", "ms"),
    ("serve.codec_ms.p50", "ms"),
    ("serve.codec_ms.p99", "ms"),
    *[(f"serve.{lane}.codec_ms.p50", "ms") for lane in LANES],
    ("serve.snappy.busy_frac", "ratio"),
    ("serve.zstd.busy_frac", "ratio"),
    ("serve.generator_late_ms.p99", "ms"),
    ("serve.backlog_grew", "bool"),
]

CODEC_LAYERS: List[Tuple[str, str]] = [
    *[(f"codec.{suite}.call_ms.p50", "ms") for suite in SUITES],
    *[
        (f"codec.{suite}.{part}_s", "s")
        for suite in SUITES
        for part in ("lz77", "entropy", "crc32c", "other")
    ],
    *[(f"codec.{lane}.fixed_ms", "ms") for lane in LANES],
]

DSE_LAYERS: List[Tuple[str, str]] = [
    ("dse.fig11_s", "s"),
    ("dse.fig12_s", "s"),
    ("dse.fig14_s", "s"),
    ("dse.fig15_s", "s"),
    ("dse.memo_fill_s", "s"),
    ("dse.point_ms.p50", "ms"),
    ("dse.generate_ms.p50", "ms"),
    ("dse.xeon_s", "s"),
    ("dse.lz77_encode_s", "s"),
    ("dse.parallel_efficiency", "ratio"),
    ("dse.cache.put_ms.p50", "ms"),
    ("dse.cache.get_ms.p50", "ms"),
    ("dse.warm_replay_s", "s"),
]

LINT_LAYERS: List[Tuple[str, str]] = [
    ("lint.parse_s", "s"),
    ("lint.flow_s", "s"),
    ("lint.assemble_s", "s"),
    *[(f"lint.rule.{code}_s", "s") for code in RULE_CODES],
    ("lint.pool_speedup", "ratio"),
    ("lint.files", "count"),
    ("lint.findings", "count"),
    ("lint.cache_get_ms", "ms"),
]

PER_LAYER: List[Tuple[str, str]] = [
    *HEADLINE,
    *SERVE_LAYERS,
    *CODEC_LAYERS,
    *DSE_LAYERS,
    *LINT_LAYERS,
    ("trace.overhead_frac", "ratio"),
]

UNITS: Dict[str, str] = dict(END_TO_END + PER_LAYER)
