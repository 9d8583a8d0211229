"""serve-fleet: the fleet's small calls through ``CompressionService``.

Open loop first: Poisson arrivals at a fixed absolute rate, each call timed
from its due time, so a stall counts against every call scheduled behind it.
Then a closed loop with a fixed number of requests outstanding, which gives
the saturated completion rate. The calls are the ``ServiceHarness.prepare()``
fleet mix (snappy and zstd, compress and decompress, at most 4 KiB), served
by one worker per codec lane with default batching.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import Context, Outcome, fastest, median, percentile, settle

#: Offered open-loop rate, calls per second (about 40% of what one worker
#: per lane completes on a 2-core machine).
OPEN_RATE = 400.0
#: Requests kept outstanding in the closed-loop phase.
OUTSTANDING = 16
MAX_PAYLOAD_BYTES = 4096
#: Seed of the fleet mix every run offers.
MIX_SEED = 0
#: Share of a traced run's measuring time spent in the open-loop phase (an
#: untraced run has no closed-loop phase).
OPEN_SHARE = 0.6
#: A run reports its fastest window of each phase (see ``fastest``). The
#: open loop runs in windows of about this many seconds; closed-loop windows
#: are shorter: with every core busy they are the likeliest to catch a slow
#: spell.
WINDOW_SECONDS = 1.5
CLOSED_WINDOWS = 12
#: The open loop is invalid when its generator ran this late (p99) ...
MAX_GENERATOR_LATE_S = 0.025
#: ... or left this many calls outstanding when it sent a window's last call.
BACKLOG_LIMIT = 64
#: Empty round trips timed for the IPC floor.
IPC_PROBES = 200


@dataclass
class CallResult:
    """One completed open-loop call, as the client saw it."""

    algorithm: str
    operation: str
    latency: float  # due time -> response in hand
    late: float  # due time -> submit
    wait: float
    service: float
    sojourn: float
    batch_size: int
    #: Pool round trip and codec time of the call's batch (traced runs only).
    roundtrip: Optional[float] = None
    batch_codec: Optional[float] = None


class BatchTimer:
    """Times ``CodecWorkerPool.submit_batch`` round trips (traced runs).

    A batch's outcome payloads are the very objects the dispatcher hands to
    the responses, so each response finds its batch by payload identity.
    """

    def __init__(self) -> None:
        self.by_payload: Dict[int, Tuple[float, float]] = {}

    def install(self, pool_cls):
        original = pool_cls.submit_batch
        by_payload = self.by_payload

        def submit_batch(pool, codec_name, items):
            begin = time.perf_counter()
            future = original(pool, codec_name, items)

            def done(fut) -> None:
                end = time.perf_counter()
                if fut.cancelled() or fut.exception() is not None:
                    return
                _pid, outcomes = fut.result()
                codec = sum(seconds for _status, _value, seconds in outcomes)
                for _status, value, _seconds in outcomes:
                    by_payload[id(value)] = (end - begin, codec)

            future.add_done_callback(done)
            return future

        pool_cls.submit_batch = submit_batch
        return original


class ServeFleet:
    def __init__(self, ctx: Context) -> None:
        from repro.service.harness import PayloadLibrary, ServiceHarness, WorkloadSpec
        from repro.service.types import ServiceConfig

        self.ctx = ctx
        self.config = ServiceConfig(workers=1)
        # Enough calls for the longest open-loop phase; the closed loop cycles
        # through the same list. The fleet mix (which codec, direction and
        # size class) is the harness's for MIX_SEED, so every seed offers the
        # same work; the seed draws the payload bytes, the call order and the
        # arrival times.
        count = int(OPEN_RATE * OPEN_SHARE * ctx.seconds) + 64
        mix = ServiceHarness(
            WorkloadSpec(seed=MIX_SEED, num_calls=count, max_payload_bytes=MAX_PAYLOAD_BYTES),
            self.config,
        ).effective_trace()
        library = PayloadLibrary(ctx.seed, MAX_PAYLOAD_BYTES)
        self.calls = [library.materialize(call, index, 0.0) for index, call in enumerate(mix)]
        self.rng = random.Random(ctx.seed)
        self.rng.shuffle(self.calls)
        self.cold_start: List[float] = []
        self.shed = 0
        self.cursor = 0
        self.timer: Optional[BatchTimer] = None
        #: The traced open loop's calls (traced runs only).
        self.traced_results: List[CallResult] = []

    # -- set-up ------------------------------------------------------------

    async def warm(self, service) -> None:
        """First call per lane (timed: the cold start), then every payload."""
        loop = asyncio.get_running_loop()
        seen_lanes = set()
        seen = set()
        for call in self.calls:
            key = (call.algorithm, call.operation, len(call.payload))
            if key in seen:
                continue
            seen.add(key)
            begin = loop.time()
            await service.submit(
                service.make_request(call.algorithm, call.operation, call.payload)
            )
            if call.algorithm not in seen_lanes:
                seen_lanes.add(call.algorithm)
                self.cold_start.append(loop.time() - begin)

    # -- phases ------------------------------------------------------------

    async def open_loop(
        self, service, seconds: float, out: Outcome
    ) -> Tuple[List[CallResult], float, int]:
        """Offer calls at OPEN_RATE for ``seconds``; return the results, the
        phase duration, and the calls outstanding when the last one was sent."""
        from repro.common.errors import ServiceOverloadError

        loop = asyncio.get_running_loop()
        due, t = [], 0.0
        while True:
            t += self.rng.expovariate(OPEN_RATE)
            if t > seconds:
                break
            due.append(t)
        calls = [self.calls[(self.cursor + i) % len(self.calls)] for i in range(len(due))]
        self.cursor += len(due)
        results: List[CallResult] = []
        outstanding = 0

        async def fire(call, due_at: float) -> None:
            nonlocal outstanding
            sent = loop.time()
            outstanding += 1
            request = service.make_request(call.algorithm, call.operation, call.payload)
            try:
                response = await service.submit(request)
            except ServiceOverloadError:
                self.shed += 1
                out.check(False, f"shed {call.algorithm} {call.operation.value}")
                return
            finally:
                outstanding -= 1
            latency = loop.time() - due_at
            ok = response.ok and response.payload == call.expected
            out.check(ok, f"{call.algorithm} {call.operation.value} call {call.index}")
            if not ok:
                return
            result = CallResult(
                call.algorithm,
                call.operation.value,
                latency,
                sent - due_at,
                response.wait_seconds,
                response.service_seconds,
                response.sojourn_seconds,
                response.batch_size,
            )
            if self.timer is not None:
                batch = self.timer.by_payload.pop(id(response.payload), None)
                if batch is not None:
                    result.roundtrip, result.batch_codec = batch
            results.append(result)

        tasks = []
        origin = loop.time() + 0.002
        for call, offset in zip(calls, due):
            delay = origin + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(fire(call, origin + offset)))
        backlog = outstanding
        await asyncio.gather(*tasks)
        return results, loop.time() - origin, backlog

    async def closed_loop(self, service, seconds: float, out: Outcome) -> float:
        """Keep OUTSTANDING requests in flight; return completions per second."""
        loop = asyncio.get_running_loop()
        begin = loop.time()
        end = begin + seconds
        cursor = 0
        completed = 0

        async def client() -> None:
            nonlocal cursor, completed
            while loop.time() < end:
                call = self.calls[cursor % len(self.calls)]
                cursor += 1
                response = await service.submit(
                    service.make_request(call.algorithm, call.operation, call.payload)
                )
                ok = response.ok and response.payload == call.expected
                out.check(ok, f"closed-loop {call.algorithm} call {call.index}")
                completed += ok

        await asyncio.gather(*[client() for _ in range(OUTSTANDING)])
        return completed / (loop.time() - begin)

    async def measure(
        self, service, open_seconds: float, closed_seconds: float, out: Outcome
    ) -> None:
        """Open-loop windows of about WINDOW_SECONDS for ``open_seconds``,
        then CLOSED_WINDOWS closed-loop ones for ``closed_seconds`` (if any)."""
        p50s: List[float] = []
        latencies: List[float] = []
        late: List[float] = []
        backlog = 0
        windows = max(2, round(open_seconds / WINDOW_SECONDS))
        for _ in range(windows):
            settle()
            results, _duration, outstanding = await self.open_loop(
                service, open_seconds / windows, out
            )
            p50s.append(median([r.latency for r in results]))
            latencies += [r.latency for r in results]
            late += [r.late for r in results]
            backlog = max(backlog, outstanding)
        if closed_seconds > 0:
            per_completion: List[float] = []
            for _ in range(CLOSED_WINDOWS):
                settle()
                rps = await self.closed_loop(service, closed_seconds / CLOSED_WINDOWS, out)
                per_completion.append(1 / rps)
            out.layers["saturated_rps"] = 1 / fastest(per_completion)
        late_p99 = percentile(late, 99)
        out.layers["serve.generator_late_ms.p99"] = late_p99 * 1e3
        out.layers["serve.backlog_grew"] = float(backlog > BACKLOG_LIMIT)
        if late_p99 > MAX_GENERATOR_LATE_S or backlog > BACKLOG_LIMIT:
            out.invalid = (
                f"open-loop generator fell behind (late p99 {late_p99 * 1e3:.1f} ms, "
                f"{backlog} outstanding at a last send)"
            )
        out.layers["sojourn_p50_ms"] = fastest(p50s) * 1e3
        out.layers["sojourn_p99_ms"] = percentile(latencies, 99) * 1e3
        out.end_to_end["latency_ms"] = fastest(p50s) * 1e3

    # -- traced layers -----------------------------------------------------

    @staticmethod
    def ipc_floor() -> float:
        """p50 of an empty ``submit_batch`` round trip on a warm pool."""
        from repro.service.workers import CodecWorkerPool

        pool = CodecWorkerPool(1)
        try:
            for _ in range(5):
                pool.submit_batch("snappy", []).result()
            samples = []
            for _ in range(IPC_PROBES):
                begin = time.perf_counter()
                pool.submit_batch("snappy", []).result()
                samples.append(time.perf_counter() - begin)
        finally:
            pool.shutdown()
        return median(samples)

    def layers(
        self, results: List[CallResult], phase_seconds: float, out: Outcome
    ) -> None:
        """Per-layer metrics of the traced open loop."""
        layers = out.layers
        ms = 1e3
        layers["serve.queue_wait_ms.p50"] = percentile([r.wait for r in results], 50) * ms
        layers["serve.queue_wait_ms.p99"] = percentile([r.wait for r in results], 99) * ms
        layers["serve.batch_size.mean"] = sum(r.batch_size for r in results) / max(1, len(results))
        timed = [r for r in results if r.roundtrip is not None]
        overhead = [r.roundtrip - r.batch_codec for r in timed]
        layers["serve.roundtrip_overhead_ms.p50"] = percentile(overhead, 50) * ms
        layers["serve.roundtrip_overhead_ms.p99"] = percentile(overhead, 99) * ms
        client = [r.latency - r.sojourn - r.late for r in results]
        layers["serve.client_overhead_ms.p50"] = median(client) * ms
        layers["serve.unattributed_ms.p50"] = median(
            [r.latency - sum(layer_parts(r)) for r in timed]
        ) * ms
        layers["serve.cold_start_ms"] = sum(self.cold_start) / len(self.cold_start) * 1e3
        layers["serve.codec_ms.p50"] = percentile([r.service for r in results], 50) * ms
        layers["serve.codec_ms.p99"] = percentile([r.service for r in results], 99) * ms
        lanes: Dict[str, List[float]] = defaultdict(list)
        busy: Dict[str, float] = defaultdict(float)
        for r in results:
            lanes[f"{r.algorithm}.{r.operation}"].append(r.service)
            busy[r.algorithm] += r.service
        for lane, values in lanes.items():
            layers[f"serve.{lane}.codec_ms.p50"] = median(values) * ms
        for codec in ("snappy", "zstd"):
            # One worker per lane, so busy time over wall time is utilization.
            layers[f"serve.{codec}.busy_frac"] = busy[codec] / phase_seconds

    async def run(self) -> Outcome:
        from repro.service.dispatcher import CompressionService
        from repro.service.workers import CodecWorkerPool

        ctx = self.ctx
        out = Outcome()
        async with CompressionService(self.config) as service:
            await self.warm(service)
            ctx.ready()
            if ctx.setup_only:
                return out
            if not ctx.trace:
                # The closed loop only gives per-layer numbers: untraced, the
                # whole run goes to the open loop that latency_ms reads.
                await self.measure(service, ctx.seconds, 0.0, out)
                return out
            # Traced: an untraced half for the baseline, then a traced half.
            half = ctx.seconds / 2
            await self.measure(service, half * OPEN_SHARE, half * (1 - OPEN_SHARE), out)
            baseline = out.end_to_end["latency_ms"]
            self.timer = BatchTimer()
            original = self.timer.install(CodecWorkerPool)
            shed_before = self.shed
            traced = Outcome()
            p50s: List[float] = []
            duration = 0.0
            windows = max(2, round(half * OPEN_SHARE / WINDOW_SECONDS))
            try:
                for _ in range(windows):
                    settle()
                    results, phase, _ = await self.open_loop(
                        service, half * OPEN_SHARE / windows, traced
                    )
                    p50s.append(median([r.latency for r in results]))
                    self.traced_results += results
                    duration += phase
            finally:
                CodecWorkerPool.submit_batch = original
            out.attempted += traced.attempted
            out.failed += traced.failed
            out.violations += traced.violations
            self.layers(self.traced_results, duration, out)
            shed = self.shed - shed_before
            out.layers["serve.shed"] = float(shed)
            out.layers["serve.failed"] = float(traced.failed - shed)
            out.layers["trace.overhead_frac"] = fastest(p50s) * 1e3 / baseline - 1
        # Timed once the service's pools are gone, so nothing competes.
        out.layers["serve.ipc_floor_ms.p50"] = self.ipc_floor() * 1e3
        return out


def layer_parts(r: CallResult) -> Tuple[float, ...]:
    """Generator lateness, client overhead, queue wait, round-trip overhead
    and codec time of one traced call; they should sum to its latency."""
    return (
        r.late,
        r.latency - r.sojourn - r.late,
        r.wait,
        r.roundtrip - r.batch_codec,
        r.batch_codec,
    )


def run(ctx: Context) -> Outcome:
    return asyncio.run(ServeFleet(ctx).run())
