"""Open-loop load harness: fleet-mix arrival streams driven at the service.

Closes the loop the ROADMAP asks for: arrival traces come from the same
fleet model the paper's §3 analysis uses (:mod:`repro.fleet.profile` sampled
through :mod:`repro.sim.arrivals`), payloads are deterministic synthetic
buffers sized like the sampled calls, and the replay is *open-loop* — each
request fires at its trace arrival time regardless of completions, so
offered load is independent of service behaviour (the regime where
admission control and backpressure matter).

The harness records a :class:`LoadReport` splitting **offered** facts
(deterministic functions of the seed: call mix, payload digest, counts) from
**measured** facts (timings, goodput, percentiles). The tier-1 hash-seed
parity test requires the offered half to be identical across environments
and drops the measured half.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import Operation
from repro.algorithms.registry import available_codecs, get_codec
from repro.common.errors import ConfigError, ServiceOverloadError
from repro.common.parallel import resolve_jobs
from repro.common.rng import make_rng
from repro.common.units import KiB
from repro.fleet.profile import FleetProfile, generate_fleet_profile
from repro.service.dispatcher import CompressionService
from repro.service.types import ServiceConfig
from repro.service.workers import CodecWorkerPool
from repro.sim.arrivals import (
    DEFAULT_OFFERED_BYTES_PER_SECOND,
    CallArrival,
    poisson_trace,
)

#: Smallest payload size class; below this the frame preamble dominates.
MIN_PAYLOAD_BYTES = 64

#: Floor for the measured mean per-call service time used by
#: :meth:`ServiceHarness.calibrate_time_scale`. A microsecond is already far
#: below any real codec call; anything smaller is clock-resolution noise.
MIN_CALIBRATION_SERVICE_SECONDS = 1e-6


@dataclass(frozen=True)
class WorkloadSpec:
    """Deterministic description of one offered workload."""

    seed: int = 0
    num_calls: int = 200
    offered_bytes_per_second: float = DEFAULT_OFFERED_BYTES_PER_SECOND
    algorithms: Tuple[str, ...] = ("snappy", "zstd")
    max_payload_bytes: int = 4 * KiB
    #: Multiplier on trace arrival times. 1.0 replays the fleet-model rate,
    #: 0.0 offers every call at t=0 (a closed burst), and the harness can
    #: calibrate it to hit a target utilization on this machine.
    time_scale: float = 1.0
    #: Fleet sample size the trace is resampled from.
    profile_calls: int = 12_000

    def __post_init__(self) -> None:
        if self.num_calls < 1:
            raise ConfigError(f"num_calls must be >= 1, got {self.num_calls}")
        known = set(available_codecs())
        unknown = sorted(set(self.algorithms) - known)
        if not self.algorithms or unknown:
            names = ", ".join(unknown) or "<none>"
            raise ConfigError(
                f"unknown codec(s) in workload: {names}; "
                f"available: {', '.join(sorted(known))}"
            )
        if self.max_payload_bytes < MIN_PAYLOAD_BYTES:
            raise ConfigError(
                f"max_payload_bytes must be >= {MIN_PAYLOAD_BYTES}, "
                f"got {self.max_payload_bytes}"
            )
        if self.time_scale < 0:
            raise ConfigError(f"time_scale must be >= 0, got {self.time_scale}")


def size_class(n: int, *, max_bytes: int) -> int:
    """Round a call size up to its power-of-two class, clamped to bounds.

    Quantizing keeps the payload library small (one buffer per class) while
    preserving the fleet's size spread across classes.
    """
    clamped = max(MIN_PAYLOAD_BYTES, min(n, max_bytes))
    return min(max_bytes, 1 << (clamped - 1).bit_length())


def synthesize_payload(seed: int, algorithm: str, size: int) -> bytes:
    """Deterministic mixed-compressibility buffer (3/4 text, 1/4 noise)."""
    rng = make_rng(seed, f"service-payload-{algorithm}-{size}")
    text = b"the fleet compresses what the fleet decompresses; serve it well. "
    noise_len = size // 4
    body = text * (max(0, size - noise_len) // len(text) + 1)
    noise = rng.integers(0, 256, size=noise_len, dtype=np.uint8).tobytes()
    return (body[: size - noise_len] + noise)[:size]


@dataclass(frozen=True)
class PreparedCall:
    """One trace call bound to its concrete payload and expected output."""

    index: int
    arrival_time: float
    algorithm: str
    operation: Operation
    payload: bytes
    #: One-shot reference output — the conformance oracle.
    expected: bytes

    @property
    def uncompressed_bytes(self) -> int:
        if self.operation is Operation.COMPRESS:
            return len(self.payload)
        return len(self.expected)


class PayloadLibrary:
    """Memoized (algorithm, operation, size-class) -> payload/reference pairs.

    Decompress calls are offered *valid frames* (the library compresses the
    base buffer once, in the parent); compress calls are offered the raw
    buffer, with the one-shot compressed bytes kept as the conformance
    reference.
    """

    def __init__(self, seed: int, max_payload_bytes: int) -> None:
        self.seed = seed
        self.max_payload_bytes = max_payload_bytes
        self._entries: Dict[Tuple[str, str, int], Tuple[bytes, bytes]] = {}

    def materialize(self, call: CallArrival, index: int, arrival_time: float) -> PreparedCall:
        size = size_class(call.uncompressed_bytes, max_bytes=self.max_payload_bytes)
        key = (call.algorithm, call.operation.value, size)
        entry = self._entries.get(key)
        if entry is None:
            raw = synthesize_payload(self.seed, call.algorithm, size)
            frame = get_codec(call.algorithm).compress(raw)
            if call.operation is Operation.COMPRESS:
                entry = (raw, frame)
            else:
                entry = (frame, raw)
            self._entries[key] = entry
        payload, expected = entry
        return PreparedCall(
            index=index,
            arrival_time=arrival_time,
            algorithm=call.algorithm,
            operation=call.operation,
            payload=payload,
            expected=expected,
        )

    def mean_service_seconds(self) -> float:
        """Mean per-call cost of the library as a service lane pays it
        (pacing calibration).

        Each entry is timed as one single-call round trip through a
        one-worker pool: dispatch, IPC and the in-worker service, which is
        what occupies a lane per call. For calls of well under a
        millisecond the dispatch is as large as the codec work, so timing
        the codec alone would pace arrivals faster than a lane can serve
        them. An untimed call per entry first starts the pool and the
        worker's context for it.
        """
        if not self._entries:
            raise ConfigError("payload library is empty; prepare a workload first")
        pool = CodecWorkerPool(1)
        total = 0.0
        try:
            for (algorithm, op_value, _size), (payload, _expected) in sorted(
                self._entries.items()
            ):
                item = [(op_value, payload, None)]
                pool.submit_batch(algorithm, item).result()
                begin = time.perf_counter()
                pool.submit_batch(algorithm, item).result()
                total += time.perf_counter() - begin
        finally:
            pool.shutdown()
        return total / len(self._entries)


@dataclass
class CallRecord:
    """Outcome of one offered call, as the load report aggregates it."""

    index: int
    algorithm: str
    operation: Operation
    uncompressed_bytes: int
    status: str  # "ok" | "shed" | "error"
    wait_seconds: float = 0.0
    service_seconds: float = 0.0
    sojourn_seconds: float = 0.0
    batch_size: int = 0
    conforms: Optional[bool] = None
    #: sha256 of the response payload (completed calls only).
    digest: str = ""


@dataclass
class LoadReport:
    """Aggregate outcome of one open-loop replay."""

    spec: WorkloadSpec
    config: ServiceConfig
    workers: int
    records: List[CallRecord]
    makespan_seconds: float
    payload_digest: str

    # -- counts ----------------------------------------------------------

    @property
    def offered(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.status == "ok")

    @property
    def shed(self) -> int:
        return sum(1 for r in self.records if r.status == "shed")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.status == "error")

    # -- measured aggregates ---------------------------------------------

    def _completed_values(self, attr: str) -> np.ndarray:
        return np.asarray(
            [getattr(r, attr) for r in self.records if r.status == "ok"]
        )

    def sojourn_percentile(self, q: float) -> float:
        values = self._completed_values("sojourn_seconds")
        return float(np.percentile(values, q)) if len(values) else 0.0

    @property
    def mean_wait_seconds(self) -> float:
        values = self._completed_values("wait_seconds")
        return float(values.mean()) if len(values) else 0.0

    @property
    def goodput_bytes_per_second(self) -> float:
        """Uncompressed bytes of *completed* calls per second of makespan."""
        if self.makespan_seconds <= 0:
            return 0.0
        done = self._completed_values("uncompressed_bytes")
        return float(done.sum()) / self.makespan_seconds

    @property
    def utilization(self) -> float:
        """Busy worker time over capacity, per the sim's definition."""
        capacity = self.workers * self.makespan_seconds
        if capacity <= 0:
            return 0.0
        return float(self._completed_values("service_seconds").sum()) / capacity

    def per_codec_counts(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for record in self.records:
            entry = out.setdefault(
                record.algorithm, {"offered": 0, "completed": 0, "shed": 0, "error": 0}
            )
            entry["offered"] += 1
            if record.status == "ok":
                entry["completed"] += 1
            elif record.status == "shed":
                entry["shed"] += 1
            else:
                entry["error"] += 1
        return out

    # -- serialization ----------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-ready dict; measured values live under one ``measured`` key,
        so a parity check can drop every timing by dropping that key."""
        return {
            "benchmark": "service",
            "offered": {
                "seed": self.spec.seed,
                "calls": self.offered,
                "algorithms": sorted(self.spec.algorithms),
                "max_payload_bytes": self.spec.max_payload_bytes,
                "payload_digest": self.payload_digest,
                "per_codec": {
                    name: counts
                    for name, counts in sorted(self.per_codec_counts().items())
                },
            },
            "config": {
                "workers": self.workers,
                "max_batch": self.config.effective_batch,
                "max_queue_depth": self.config.max_queue_depth,
            },
            "counts": {
                "completed": self.completed,
                "shed": self.shed,
                "failed": self.failed,
            },
            "measured": {
                "makespan_seconds": round(self.makespan_seconds, 6),
                "goodput_bytes_per_second": round(self.goodput_bytes_per_second, 3),
                "utilization": round(self.utilization, 6),
                "mean_wait_seconds": round(self.mean_wait_seconds, 6),
                "p50_sojourn_seconds": round(self.sojourn_percentile(50), 6),
                "p99_sojourn_seconds": round(self.sojourn_percentile(99), 6),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    def render_human(self) -> str:
        lines = [
            f"service load: {self.offered} calls offered "
            f"({', '.join(sorted(self.spec.algorithms))}), "
            f"workers={self.workers} batch<={self.config.effective_batch} "
            f"depth<={self.config.max_queue_depth}",
            f"  completed={self.completed} shed={self.shed} failed={self.failed}",
            f"  makespan   : {self.makespan_seconds * 1e3:9.1f} ms",
            f"  goodput    : {self.goodput_bytes_per_second / 1e6:9.2f} MB/s uncompressed",
            f"  utilization: {100 * self.utilization:8.1f} %",
            f"  mean wait  : {self.mean_wait_seconds * 1e3:9.2f} ms",
            f"  p50 sojourn: {self.sojourn_percentile(50) * 1e3:9.2f} ms",
            f"  p99 sojourn: {self.sojourn_percentile(99) * 1e3:9.2f} ms",
        ]
        for name, counts in sorted(self.per_codec_counts().items()):
            lines.append(
                f"    {name:<14s} offered={counts['offered']:<5d} "
                f"completed={counts['completed']:<5d} shed={counts['shed']:<5d} "
                f"error={counts['error']}"
            )
        return "\n".join(lines)


class ServiceHarness:
    """Prepare a fleet-mix workload, replay it open-loop, report the outcome.

    The programmatic surface behind ``repro serve`` and the service test
    suites::

        harness = ServiceHarness(WorkloadSpec(num_calls=100), ServiceConfig())
        report = harness.run(verify=True)
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        config: Optional[ServiceConfig] = None,
        *,
        profile: Optional[FleetProfile] = None,
    ) -> None:
        self.spec = spec
        self.config = config or ServiceConfig()
        self._profile = profile
        self._prepared: Optional[List[PreparedCall]] = None
        self.library = PayloadLibrary(spec.seed, spec.max_payload_bytes)

    # -- workload preparation ---------------------------------------------

    def prepare(self) -> List[PreparedCall]:
        """Sample the trace and materialize payloads (deterministic)."""
        if self._prepared is not None:
            return self._prepared
        profile = self._profile
        if profile is None:
            profile = generate_fleet_profile(
                seed=self.spec.seed, num_calls=self.spec.profile_calls
            )
        trace = poisson_trace(
            profile,
            seed=self.spec.seed,
            num_calls=self.spec.num_calls,
            offered_bytes_per_second=self.spec.offered_bytes_per_second,
            algorithms=list(self.spec.algorithms),
        )
        prepared = [
            self.library.materialize(
                call, index, call.arrival_time * self.spec.time_scale
            )
            for index, call in enumerate(trace)
        ]
        self._prepared = prepared
        return prepared

    def effective_trace(self) -> List[CallArrival]:
        """The offered workload as sim-ready arrivals (scaled, size-capped)."""
        return [
            CallArrival(
                arrival_time=p.arrival_time,
                algorithm=p.algorithm,
                operation=p.operation,
                uncompressed_bytes=p.uncompressed_bytes,
                compressed_bytes=len(
                    p.payload if p.operation is Operation.DECOMPRESS else p.expected
                ),
            )
            for p in self.prepare()
        ]

    def calibrate_time_scale(self, target_utilization: float) -> "ServiceHarness":
        """Rescale arrivals so offered work ≈ ``target_utilization`` here.

        Measures the library's mean per-call cost through a worker on *this*
        machine (:meth:`PayloadLibrary.mean_service_seconds`), then sets the
        arrival rate to ``target × workers / mean_service``.
        The trace shape (call mix, relative gaps) stays deterministic; only
        the absolute time base adapts to machine speed.
        """
        if not 0 < target_utilization:
            raise ConfigError(
                f"target_utilization must be positive, got {target_utilization}"
            )
        prepared = self.prepare()
        if len(prepared) < 2 or prepared[-1].arrival_time <= 0:
            return self

        mean_service = self.library.mean_service_seconds()
        if not mean_service > 0:
            raise ConfigError(
                "measured per-call service time is zero or negative "
                f"({mean_service!r}); the calibration payloads are too small "
                "for this machine's clock resolution — use larger payloads"
            )
        # Clamp degenerate-but-positive measurements (tiny payloads on a very
        # fast machine) so the derived rate cannot explode into an absurd
        # time scale.
        mean_service = max(mean_service, MIN_CALIBRATION_SERVICE_SECONDS)
        workers = resolve_jobs(self.config.workers)
        current_rate = len(prepared) / prepared[-1].arrival_time
        target_rate = target_utilization * workers / mean_service
        scale = current_rate / target_rate
        self._prepared = [
            PreparedCall(
                index=p.index,
                arrival_time=p.arrival_time * scale,
                algorithm=p.algorithm,
                operation=p.operation,
                payload=p.payload,
                expected=p.expected,
            )
            for p in prepared
        ]
        return self

    # -- replay ------------------------------------------------------------

    async def run_async(
        self, service: CompressionService, *, verify: bool = False
    ) -> LoadReport:
        """Open-loop replay against a started service."""
        prepared = self.prepare()
        loop = asyncio.get_running_loop()
        origin = loop.time()
        records: List[Optional[CallRecord]] = [None] * len(prepared)

        async def fire(call: PreparedCall) -> None:
            delay = (origin + call.arrival_time) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            request = service.make_request(
                call.algorithm, call.operation, call.payload
            )
            record = CallRecord(
                index=call.index,
                algorithm=call.algorithm,
                operation=call.operation,
                uncompressed_bytes=call.uncompressed_bytes,
                status="ok",
            )
            try:
                response = await service.submit(request)
            except ServiceOverloadError:
                record.status = "shed"
            else:
                if response.ok:
                    record.wait_seconds = response.wait_seconds
                    record.service_seconds = response.service_seconds
                    record.sojourn_seconds = response.sojourn_seconds
                    record.batch_size = response.batch_size
                    record.digest = hashlib.sha256(response.payload).hexdigest()
                    if verify:
                        record.conforms = response.payload == call.expected
                else:
                    record.status = "error"
            records[call.index] = record

        begin = loop.time()
        await asyncio.gather(*[fire(call) for call in prepared])
        makespan = loop.time() - begin

        # Fold per-call response digests in trace order: the report attests
        # the bytes the *service* produced, not just the offered reference.
        digest = hashlib.sha256()
        final = [record for record in records if record is not None]
        for record in final:
            digest.update((record.digest or record.status).encode("ascii"))
        return LoadReport(
            spec=self.spec,
            config=self.config,
            workers=service.workers,
            records=final,
            makespan_seconds=makespan,
            payload_digest=digest.hexdigest(),
        )

    def run(self, *, verify: bool = False) -> LoadReport:
        """Synchronous entry point: own loop, own service lifetime."""

        async def _main() -> LoadReport:
            async with CompressionService(self.config) as service:
                return await self.run_async(service, verify=verify)

        return asyncio.run(_main())
