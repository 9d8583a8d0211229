"""Per-codec lane worker processes for the serving layer.

Each codec lane owns up to ``workers`` processes, started on the lane's
first batches. A worker is one :class:`multiprocessing.Process` (default
start method) holding one end of a duplex :func:`multiprocessing.Pipe`; its
target, :func:`serve_lane`, loops: ``recv`` a ``(codec, items)`` batch, run
:func:`run_service_batch`, ``send`` back ``(pid, outcomes)``. The loop keeps
its :class:`ContextCache` in a local variable, so reused contexts live
exactly as long as the process.

The parent reads a pipe one of two ways:

* a pool **bound** to an event loop (:meth:`CodecWorkerPool.bind`, called
  by ``CompressionService.start()``) watches every pipe with
  ``loop.add_reader``. ``submit_batch`` sends the batch and returns an
  asyncio future, which the reader callback completes on the loop thread:
  no helper thread sits between a worker and the loop;
* an **unbound** pool does a blocking round trip and returns an
  already-completed :class:`concurrent.futures.Future` (calibration and
  IPC probes call ``.result()`` on it).

A worker that dies (killed hard, e.g. by the OOM killer) shows up as EOF on
its pipe: its batch fails with
:class:`~repro.common.errors.ServiceInternalError` and the lane starts a
fresh process for its next batch.

Worker counts resolve through :func:`~repro.common.parallel.resolve_jobs`
(explicit arg, then ``REPRO_JOBS``, then 1), and timings ride back with the
result as ``(pid, outcomes)`` with per-item seconds, so the parent can
account per-worker time without cross-process metric registries. Each codec
gets its *own* workers, mirroring the paper's per-algorithm CDPU instances:
a heavyweight brotli batch can never head-of-line-block the snappy lane.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import time
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Dict, List, Optional, Tuple, Union

from repro.algorithms.base import Operation
from repro.algorithms.registry import get_codec
from repro.algorithms.streaming import StreamContext
from repro.common.errors import ReproError, ServiceInternalError, StreamStateError
from repro.common.parallel import resolve_jobs

#: One work item crossing the process boundary: (operation value, payload,
#: level). Plain data only — the codec object is rebuilt worker-side.
WorkItem = Tuple[str, bytes, Optional[int]]

#: One outcome crossing back: (status, payload-or-error, service seconds).
Outcome = Tuple[str, object, float]

#: What a batch resolves to: the serving worker's pid and one outcome per item.
BatchResult = Tuple[int, List[Outcome]]

#: What ``submit_batch`` returns: an asyncio future from a bound pool, an
#: already-completed concurrent one from an unbound pool.
BatchFuture = Union["asyncio.Future[BatchResult]", "Future[BatchResult]"]


class ContextCache:
    """Reusable per-``(codec, op, level)`` streaming contexts for one worker.

    The one-shot codec entry points are one ``feed`` + one ``flush`` over a
    fresh context, so running the same pair on a ``reset()`` context is
    byte-identical by construction — what reuse saves is the per-call context
    setup, the dominant cost in the fleet's small-payload regime (pyzstd's
    guidance, ROADMAP item 2). A context poisoned by a corrupt payload
    refuses ``reset()``; it is discarded and replaced on the next acquire.
    """

    def __init__(self) -> None:
        self._contexts: Dict[Tuple[str, str, Optional[int]], StreamContext] = {}

    def run(
        self, codec_name: str, op_value: str, payload: bytes, level: Optional[int]
    ) -> bytes:
        """Serve one request through the cached context for its key."""
        key = (codec_name, op_value, level)
        ctx = self._contexts.pop(key, None)
        if ctx is not None:
            try:
                ctx.reset()
            except StreamStateError:
                ctx = None  # poisoned by an earlier corrupt stream
        if ctx is None:
            codec = get_codec(codec_name)
            if op_value == Operation.COMPRESS.value:
                ctx = codec.compress_context(level=level)
            else:
                ctx = codec.decompress_context()
        out = ctx.feed(payload) + ctx.flush()
        self._contexts[key] = ctx
        return out


def run_service_batch(
    codec_name: str, items: List[WorkItem], cache: Optional[ContextCache] = None
) -> BatchResult:
    """Execute one batch of requests for one codec inside a worker process.

    Every item is timed individually (``service_seconds`` is the quantity the
    queueing simulator models), and every failure is converted to a
    :class:`~repro.common.errors.ReproError` *value* in the outcome list —
    a raw exception must never cross the process boundary, and one corrupt
    payload must never poison its batch peers.

    ``cache`` is the worker's :class:`ContextCache`, so repeated small calls
    stop paying per-call context setup (a batch-local cache when omitted,
    e.g. from tests). A failed item only poisons its own context, which the
    cache replaces on the next use of that key.
    """
    if cache is None:
        cache = ContextCache()
    outcomes: List[Outcome] = []
    for op_value, payload, level in items:
        begin = time.perf_counter()
        try:
            data: object = cache.run(codec_name, op_value, payload, level)
            outcomes.append(("ok", data, time.perf_counter() - begin))
        except ReproError as exc:
            outcomes.append(("error", exc, time.perf_counter() - begin))
        except Exception as exc:  # repro: noqa[R002] - process boundary: a leaked non-Repro exception becomes a typed ServiceInternalError response, never a dead worker
            wrapped = ServiceInternalError(
                f"{codec_name} worker leaked {type(exc).__name__}: {exc}"
            )
            outcomes.append(("error", wrapped, time.perf_counter() - begin))
    return os.getpid(), outcomes


def serve_lane(conn: Connection) -> None:
    """A lane worker's whole life: serve batches from ``conn`` in order.

    The parent ends the process when it retires the worker; EOF (the parent
    is gone) ends the loop too.
    """
    cache = ContextCache()
    while True:
        try:
            codec_name, items = conn.recv()
        except EOFError:
            return
        conn.send(run_service_batch(codec_name, items, cache))


@dataclass
class _Worker:
    """One lane process, the parent's end of its pipe, and its batch in flight."""

    process: BaseProcess
    conn: Connection
    pending: Optional["asyncio.Future[BatchResult]"] = None


#: Exceptions that mean a worker's pipe is broken: the worker died, or a
#: message was cut short.
_PIPE_BROKEN = (EOFError, OSError, pickle.PickleError)


class CodecWorkerPool:
    """Per-codec lane processes sharing one worker-count knob.

    A lane starts a process when a batch finds every existing one busy, up
    to ``workers``; each process runs at most one batch at a time. A worker
    whose pipe breaks is retired and its batch fails with
    :class:`ServiceInternalError`, so one crash costs one batch rather than
    the lane.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_jobs(workers)
        self._lanes: Dict[str, List[_Worker]] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Complete batches on ``loop``: from now on ``submit_batch`` returns
        asyncio futures, completed by ``loop.add_reader`` callbacks."""
        self._loop = loop
        for name in sorted(self._lanes):
            for worker in self._lanes[name]:
                self._watch(name, worker)

    def submit_batch(self, codec_name: str, items: List[WorkItem]) -> BatchFuture:
        """Send one batch to an idle worker of ``codec_name``'s lane."""
        worker = self._idle_worker(codec_name)
        future: BatchFuture = Future() if self._loop is None else self._loop.create_future()
        try:
            worker.conn.send((codec_name, items))
            if self._loop is None:
                future.set_result(worker.conn.recv())
            else:
                worker.pending = future
        except _PIPE_BROKEN as exc:
            self._lost(codec_name, worker, future, exc)
        return future

    def _idle_worker(self, codec_name: str) -> _Worker:
        lane = self._lanes.setdefault(codec_name, [])
        for worker in lane:
            if worker.pending is None:
                return worker
        if len(lane) >= self.workers:
            raise ServiceInternalError(
                f"{codec_name}: all {self.workers} workers already have a batch in flight"
            )
        parent_end, child_end = multiprocessing.Pipe()
        process = multiprocessing.Process(target=serve_lane, args=(child_end,), daemon=True)
        process.start()
        child_end.close()
        worker = _Worker(process, parent_end)
        lane.append(worker)
        if self._loop is not None:
            self._watch(codec_name, worker)
        return worker

    def _watch(self, codec_name: str, worker: _Worker) -> None:
        assert self._loop is not None
        self._loop.add_reader(worker.conn.fileno(), self._on_readable, codec_name, worker)

    def _on_readable(self, codec_name: str, worker: _Worker) -> None:
        """Reader callback: complete the worker's batch, or retire a dead one."""
        future, worker.pending = worker.pending, None
        try:
            result = worker.conn.recv()
        except _PIPE_BROKEN as exc:
            self._lost(codec_name, worker, future, exc)
            return
        if future is not None and not future.done():
            future.set_result(result)

    def _lost(
        self,
        codec_name: str,
        worker: _Worker,
        future: Optional[BatchFuture],
        exc: BaseException,
    ) -> None:
        """Retire a worker whose pipe broke and fail the batch it held."""
        pid = worker.process.pid
        self._retire(codec_name, worker)
        if future is not None and not future.done():
            future.set_exception(
                ServiceInternalError(
                    f"{codec_name} worker {pid} lost mid-batch: {type(exc).__name__}: {exc}"
                )
            )

    def _retire(self, codec_name: str, worker: _Worker) -> None:
        self._lanes[codec_name].remove(worker)
        if self._loop is not None:
            self._loop.remove_reader(worker.conn.fileno())
        worker.conn.close()
        worker.process.terminate()
        worker.process.join()
        worker.process.close()

    def shutdown(self) -> None:
        """Stop every lane's processes; a later batch starts fresh ones."""
        for name in sorted(self._lanes):
            for worker in list(self._lanes[name]):
                self._retire(name, worker)
        self._lanes.clear()
