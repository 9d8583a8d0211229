"""Design-space-exploration runner (paper §6.1 methodology).

Evaluates CDPU configurations against HyperCompressBench suites, with the
Xeon software baseline on the other side. Per §6.1, the aggregate metric is
the **total time to (de)compress every file in a suite**.

The runner memoizes the config-independent part of each evaluation:

* decompression workloads — what the software decoder executes per file:
  Snappy's parsed element stream, a ZStd frame decoded with a sink
  (:func:`~repro.algorithms.zstd.analyze_frame`) — are shared across
  every placement and SRAM size;
* compression workloads — each pipeline's :meth:`encode` of every file:
  the token stream and matcher stats the emitted frame carries, and the
  frame's size — are keyed by the encoder-relevant parameters only, so all
  four placements of one SRAM/HT point share them. Keys that differ only
  in the history SRAM size (a window group) are filled together, from one
  matcher run per file (per matched 128 KiB block for ZStd, accounted
  block by block as the frame is).

On top of the in-process memos, a sweep is a list of :class:`DesignPoint`
work units — picklable (algorithm, operation, config) triples — that
:meth:`DseRunner.evaluate_many` fans out through
:mod:`repro.dse.parallel` (``ProcessPoolExecutor`` workers) and memoizes
persistently through :mod:`repro.dse.cache` when the runner is constructed
with ``jobs``/``cache``. The defaults (serial, no cache) keep single-point
behaviour exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.algorithms.base import Operation
from repro.algorithms.lz77 import MIN_MATCH, MatcherStats, TokenStream
from repro.algorithms.snappy import parse_elements
from repro.algorithms.zstd import FrameStats, analyze_frame
from repro.core import calibration as cal
from repro.core.area import pipeline_area_mm2
from repro.core.generator import CdpuGenerator
from repro.core.params import CdpuConfig
from repro.hcbench.suite import HyperCompressBench, default_benchmark
from repro.soc.xeon import XeonBaseline

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.dse.cache import DseCache


@dataclass(frozen=True)
class DesignPoint:
    """One sweep work unit: a picklable (algorithm, operation, config) triple.

    Everything a worker process needs to evaluate the point — the benchmark
    and baseline travel separately, once, via the pool initializer.
    """

    algorithm: str
    operation: Operation
    config: CdpuConfig


@dataclass(frozen=True)
class DesignPointResult:
    """One evaluated design point of a sweep (one bar/point in Figs 11-15)."""

    algorithm: str
    operation: Operation
    config: CdpuConfig
    accel_seconds: float
    xeon_seconds: float
    area_mm2: float
    #: Aggregate HW compression ratio (compression points only).
    hw_ratio: Optional[float] = None
    #: Aggregate SW compression ratio on the same suite.
    sw_ratio: Optional[float] = None
    #: Uncompressed bytes in the suite, the numerator of the GB/s figures.
    suite_bytes: int = 0

    @property
    def speedup(self) -> float:
        """End-to-end suite speedup vs the Xeon (paper's y-axes)."""
        return self.xeon_seconds / self.accel_seconds

    @property
    def ratio_vs_software(self) -> Optional[float]:
        if self.hw_ratio is None or self.sw_ratio is None:
            return None
        return self.hw_ratio / self.sw_ratio

    @property
    def accel_gbps(self) -> float:
        return self.suite_bytes / self.accel_seconds / cal.GB_PER_SECOND

    @property
    def xeon_gbps(self) -> float:
        return self.suite_bytes / self.xeon_seconds / cal.GB_PER_SECOND


@dataclass
class _DecodeWorkItem:
    compressed_bytes: int
    output_bytes: int
    tokens: Optional[TokenStream] = None  # snappy
    frame: Optional[FrameStats] = None  # zstd


@dataclass
class _EncodeWorkItem:
    data_length: int
    tokens: TokenStream
    stats: MatcherStats
    hw_compressed_bytes: int


class DseRunner:
    """Evaluates design points against one HyperCompressBench instance."""

    def __init__(
        self,
        bench: Optional[HyperCompressBench] = None,
        xeon: Optional[XeonBaseline] = None,
        *,
        jobs: Optional[int] = None,
        cache: Optional["DseCache"] = None,
    ) -> None:
        self.bench = bench if bench is not None else default_benchmark()
        self.xeon = xeon if xeon is not None else XeonBaseline()
        #: Worker processes for :meth:`evaluate_many` (None: ``REPRO_JOBS``
        #: environment variable, defaulting to serial).
        self.jobs = jobs
        #: Optional persistent result store shared across runs/processes.
        self.cache = cache
        self._decode_cache: Dict[str, List[_DecodeWorkItem]] = {}
        self._encode_cache: Dict[Tuple, List[_EncodeWorkItem]] = {}
        self._xeon_cache: Dict[Tuple[str, Operation], float] = {}
        self._generator = CdpuGenerator()

    # ------------------------------------------------------------------
    # Workload preparation (config-independent, memoized)
    # ------------------------------------------------------------------

    def _decode_workload(self, algorithm: str) -> List[_DecodeWorkItem]:
        cached = self._decode_cache.get(algorithm)
        if cached is not None:
            return cached
        suite = self.bench.suite(algorithm, Operation.DECOMPRESS)
        items: List[_DecodeWorkItem] = []
        for file in suite.files:
            compressed = suite.compressed_form(file)
            if algorithm == "snappy":
                expected, tokens = parse_elements(compressed)
                items.append(_DecodeWorkItem(len(compressed), expected, tokens=tokens))
            else:
                frame = analyze_frame(compressed)
                items.append(
                    _DecodeWorkItem(len(compressed), frame.content_bytes, frame=frame)
                )
        self._decode_cache[algorithm] = items
        return items

    @staticmethod
    def _encoder_key(algorithm: str, config: CdpuConfig) -> Tuple:
        params = config.encoder_lz77_params()
        return (algorithm, params, config.fse_max_accuracy_log if algorithm == "zstd" else None)

    def _encode_workload(self, algorithm: str, config: CdpuConfig) -> List[_EncodeWorkItem]:
        key = self._encoder_key(algorithm, config)
        if key not in self._encode_cache:
            self.fill_encode_memo([DesignPoint(algorithm, Operation.COMPRESS, config)])
        return self._encode_cache[key]

    def fill_encode_memo(
        self, points: Iterable[DesignPoint]
    ) -> Dict[Tuple, List[_EncodeWorkItem]]:
        """Memoize the compression workloads ``points`` read, and return
        those memo entries.

        Points whose encoder keys differ only in the history size form one
        *window group*: the history only caps the offset the matcher
        accepts, so the pipeline's ``encode_histories`` encodes each file
        of the suite once for the whole group: one matcher run per file
        (per matched block for ZStd) instead of one per key.
        """
        entries: Dict[Tuple, List[_EncodeWorkItem]] = {}
        groups: Dict[Tuple, Dict[int, Tuple[Tuple, CdpuConfig]]] = {}
        for point in points:
            if point.operation is not Operation.COMPRESS:
                continue
            key = self._encoder_key(point.algorithm, point.config)
            if key in self._encode_cache:
                entries[key] = self._encode_cache[key]
                continue
            algorithm, params, accuracy = key
            group = (algorithm, replace(params, window_size=MIN_MATCH), accuracy)
            groups.setdefault(group, {})[params.window_size] = (key, point.config)
        for (algorithm, _params, _accuracy), members in groups.items():
            histories = sorted(members)
            config = members[histories[0]][1]
            suite = self.bench.suite(algorithm, Operation.COMPRESS)
            pipeline = self._generator.generate(config).pipeline(algorithm, Operation.COMPRESS)
            items: Dict[int, List[_EncodeWorkItem]] = {history: [] for history in histories}
            for file in suite.files:
                for history, encoded in pipeline.encode_histories(file.data, histories).items():
                    items[history].append(
                        _EncodeWorkItem(
                            len(file.data), encoded.tokens, encoded.stats, len(encoded.frame)
                        )
                    )
            for history, (key, _config) in members.items():
                self._encode_cache[key] = entries[key] = items[history]
        return entries

    def xeon_seconds(self, algorithm: str, operation: Operation) -> float:
        key = (algorithm, operation)
        if key not in self._xeon_cache:
            self._xeon_cache[key] = self.xeon.suite_seconds(self.bench.suite(*key))
        return self._xeon_cache[key]

    # ------------------------------------------------------------------
    # Design-point evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self, config: CdpuConfig, algorithm: str, operation: Operation
    ) -> DesignPointResult:
        """Run one (config, suite) evaluation: §6.1 aggregate totals."""
        suite = self.bench.suite(algorithm, operation)
        instance = self._generator.generate(config)
        pipeline = instance.pipeline(algorithm, operation)

        accel_cycles = 0.0
        hw_ratio = None
        sw_ratio = None
        if operation is Operation.DECOMPRESS:
            for item in self._decode_workload(algorithm):
                if algorithm == "snappy":
                    result = pipeline.account(item.compressed_bytes, item.output_bytes, item.tokens)
                else:
                    result = pipeline.account(item.frame)
                accel_cycles += result.cycles
        else:
            items = self._encode_workload(algorithm, config)
            hw_total = 0
            for item in items:
                result = pipeline.account(
                    item.data_length, item.tokens, item.stats, item.hw_compressed_bytes
                )
                accel_cycles += result.cycles
                hw_total += item.hw_compressed_bytes
            unc_total = suite.total_uncompressed_bytes
            hw_ratio = unc_total / max(1, hw_total)
            sw_ratio = suite.software_compression_ratio()

        return DesignPointResult(
            algorithm=algorithm,
            operation=operation,
            config=config,
            accel_seconds=accel_cycles / cal.CDPU_CLOCK_HZ,
            xeon_seconds=self.xeon_seconds(algorithm, operation),
            area_mm2=pipeline_area_mm2(algorithm, operation, config),
            hw_ratio=hw_ratio,
            sw_ratio=sw_ratio,
            suite_bytes=suite.total_uncompressed_bytes,
        )

    def evaluate_point(self, point: DesignPoint) -> DesignPointResult:
        """Evaluate one sweep work unit (the worker-side entry point)."""
        return self.evaluate(point.config, point.algorithm, point.operation)

    def evaluate_many(self, points: Iterable[DesignPoint]) -> List[DesignPointResult]:
        """Evaluate a sweep's point list, in order.

        Honours the runner's ``jobs``/``cache`` settings; with the defaults
        this is exactly a serial loop over :meth:`evaluate_point`. Results
        are bit-identical across worker counts and cache states.
        """
        from repro.dse.parallel import evaluate_points

        return evaluate_points(self, points, jobs=self.jobs, cache=self.cache)
