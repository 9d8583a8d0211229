"""Asyncio dispatcher: per-codec lanes, micro-batching, admission control.

The serving tier the paper's §3 fleet analysis motivates: millions of small
compress/decompress calls arrive open-loop, and the engine must bound its
queues and shed overload instead of letting tail latency grow without limit.

Architecture (DESIGN.md §7.6)::

    submit() ──admission──▶ lane queue ──drainers──▶ batch ──▶ lane worker
       │          │                                          (pipe, per codec)
       │          └─ depth ≥ max_queue_depth → ServiceOverloadError
       └───────────────── awaits a per-request future ◀── outcomes fan back

Every codec gets one *lane*: an unbounded ``asyncio.Queue`` guarded by an
explicit outstanding-request counter (queued **plus** in flight, so a slow
batch cannot hide queue growth), drained by one coroutine per lane worker,
each gathering up to ``max_batch`` requests per round trip and keeping at
most one batch in flight. Workers are per-codec processes
(:mod:`repro.service.workers`) whose replies the event loop reads straight
off their pipes; results resolve per-request futures.

All failures stay typed: codec errors come back as
:class:`~repro.common.errors.ReproError` values inside an ``ok=False``
response, worker crashes become :class:`ServiceInternalError` responses, and
overload/closed conditions raise
:class:`~repro.common.errors.ServiceOverloadError` /
:class:`~repro.common.errors.ServiceClosedError` at the submit site.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.algorithms.registry import available_codecs
from repro.common.errors import (
    ConfigError,
    ServiceClosedError,
    ServiceInternalError,
    ServiceOverloadError,
)
from repro.service.types import ServiceConfig, ServiceRequest, ServiceResponse
from repro.service.workers import CodecWorkerPool

#: Sentinel telling a lane drainer to finish its queue and exit.
_CLOSE = object()


@dataclass
class _PendingCall:
    """A submitted request waiting for its batch to come back."""

    request: ServiceRequest
    future: "asyncio.Future[ServiceResponse]"
    enqueued_at: float


@dataclass
class _Lane:
    """One codec's queue + drainers; ``outstanding`` enforces admission."""

    codec: str
    queue: "asyncio.Queue" = field(default_factory=asyncio.Queue)
    outstanding: int = 0
    drainers: List["asyncio.Task"] = field(default_factory=list)
    max_batch_observed: int = 0


class CompressionService:
    """The asyncio serving front end. Use as an async context manager::

        async with CompressionService(ServiceConfig(workers=4)) as svc:
            response = await svc.submit(request)
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self._codecs = frozenset(available_codecs())
        self._pool = CodecWorkerPool(self.config.workers)
        self._lanes: Dict[str, _Lane] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._running = False
        self._next_request_id = 0

    # -- lifecycle -----------------------------------------------------------

    async def __aenter__(self) -> "CompressionService":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._pool.bind(self._loop)
        self._running = True

    async def close(self) -> None:
        """Stop admission, drain every lane, and stop the lane workers."""
        self._running = False
        for name in sorted(self._lanes):
            lane = self._lanes[name]
            for _ in lane.drainers:
                lane.queue.put_nowait(_CLOSE)
        for name in sorted(self._lanes):
            await asyncio.gather(*self._lanes[name].drainers)
        self._pool.shutdown()
        self._lanes.clear()

    @property
    def workers(self) -> int:
        """Resolved worker processes per lane (see ``common.parallel.resolve_jobs``)."""
        return self._pool.workers

    # -- submission ----------------------------------------------------------

    def make_request(
        self,
        codec: str,
        operation,
        payload: bytes,
        *,
        level: Optional[int] = None,
    ) -> ServiceRequest:
        """Build a request with a service-assigned monotonic id."""
        self._next_request_id += 1
        return ServiceRequest(
            request_id=self._next_request_id,
            codec=codec,
            operation=operation,
            payload=payload,
            level=level,
        )

    async def submit(self, request: ServiceRequest) -> ServiceResponse:
        """Admit, enqueue, and await one request.

        Raises :class:`ServiceOverloadError` when the codec lane is at its
        bounded depth (the typed shed signal), :class:`ServiceClosedError`
        outside the service lifetime, and :class:`ConfigError` for an
        unknown codec. All other failures come back *inside* the response.
        """
        if not self._running or self._loop is None:
            raise ServiceClosedError("service is not running; use 'async with'")
        if request.codec not in self._codecs:
            known = ", ".join(sorted(self._codecs))
            raise ConfigError(f"unknown codec {request.codec!r}; available: {known}")
        lane = self._lane(request.codec)
        if lane.outstanding >= self.config.max_queue_depth:
            obs.counter_add("service.shed", 1)
            obs.counter_add(f"service.{request.codec}.shed", 1)
            raise ServiceOverloadError(
                f"{request.codec} lane at capacity "
                f"({lane.outstanding}/{self.config.max_queue_depth} outstanding); "
                "request shed"
            )
        lane.outstanding += 1
        obs.counter_add("service.requests", 1)
        obs.gauge_set(f"service.{request.codec}.queue.depth", lane.outstanding)
        pending = _PendingCall(
            request=request,
            future=self._loop.create_future(),
            enqueued_at=self._loop.time(),
        )
        lane.queue.put_nowait(pending)
        return await pending.future

    # -- lanes ---------------------------------------------------------------

    def _lane(self, codec: str) -> _Lane:
        lane = self._lanes.get(codec)
        if lane is None:
            lane = _Lane(codec=codec)
            assert self._loop is not None
            lane.drainers = [
                self._loop.create_task(self._drain(lane))
                for _ in range(self._pool.workers)
            ]
            self._lanes[codec] = lane
        return lane

    async def _drain(self, lane: _Lane) -> None:
        """Lane drainer: gather a batch, round-trip it, resolve futures.

        A lane runs one drainer per worker, and each awaits its batch before
        gathering the next, so a lane keeps up to ``workers`` batches in
        flight, each on an idle worker. Each drainer leaves on one ``_CLOSE``.

        A batch lingers for ``linger_seconds`` only while it is *short*: the
        drainer first takes everything already queued, and a batch that is
        full (or a lane that is closing) dispatches immediately — lingering
        then would be pure added latency with nothing to gain. The linger is
        a deadline, not a fixed sleep: each late arrival is awaited only for
        the time remaining, and the batch leaves the moment it fills.
        """
        limit = self.config.effective_batch
        closing = False
        while not closing:
            head = await lane.queue.get()
            if head is _CLOSE:
                break
            batch: List[_PendingCall] = [head]
            while len(batch) < limit:
                try:
                    nxt = lane.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _CLOSE:
                    closing = True
                    break
                batch.append(nxt)
            linger = self.config.linger_seconds
            if linger > 0 and not closing and len(batch) < limit:
                assert self._loop is not None
                deadline = self._loop.time() + linger
                while len(batch) < limit:
                    remaining = deadline - self._loop.time()
                    if remaining <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(
                            lane.queue.get(), timeout=remaining
                        )
                    except asyncio.TimeoutError:
                        break
                    if nxt is _CLOSE:
                        closing = True
                        break
                    batch.append(nxt)
            await self._execute(lane, batch)

    async def _execute(self, lane: _Lane, batch: List[_PendingCall]) -> None:
        assert self._loop is not None
        dispatched_at = self._loop.time()
        work = [
            (p.request.operation.value, p.request.payload, p.request.level)
            for p in batch
        ]
        lane.max_batch_observed = max(lane.max_batch_observed, len(batch))
        obs.histogram_observe("service.batch.size", len(batch))
        try:
            pid, outcomes = await self._pool.submit_batch(lane.codec, work)
        except Exception as exc:  # repro: noqa[R002] - a lost worker (killed, broken pipe) must surface as error responses, never hang callers
            error = ServiceInternalError(
                f"{lane.codec} batch failed: {type(exc).__name__}: {exc}"
            )
            pid, outcomes = 0, [("error", error, 0.0)] * len(batch)
        completed_at = self._loop.time()
        for pending, (status, value, seconds) in zip(batch, outcomes):
            lane.outstanding -= 1
            ok = status == "ok"
            if not ok:
                obs.counter_add("service.errors", 1)
            obs.histogram_observe("service.sojourn.seconds", completed_at - pending.enqueued_at)
            obs.histogram_observe("service.wait.seconds", dispatched_at - pending.enqueued_at)
            response = ServiceResponse(
                request_id=pending.request.request_id,
                codec=pending.request.codec,
                operation=pending.request.operation,
                ok=ok,
                payload=value if ok else None,
                error=None if ok else value,
                wait_seconds=dispatched_at - pending.enqueued_at,
                service_seconds=seconds,
                sojourn_seconds=completed_at - pending.enqueued_at,
                batch_size=len(batch),
                worker_pid=pid,
            )
            if not pending.future.done():
                pending.future.set_result(response)
        obs.gauge_set(f"service.{lane.codec}.queue.depth", lane.outstanding)

    # -- introspection -------------------------------------------------------

    def max_batch_observed(self, codec: str) -> int:
        lane = self._lanes.get(codec)
        return 0 if lane is None else lane.max_batch_observed
