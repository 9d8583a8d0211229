"""Per-codec process-pool workers for the serving layer.

Reuses the conventions of :mod:`repro.dse.parallel` (the DSE sweep pool):
worker counts resolve through :func:`~repro.common.parallel.resolve_jobs`
(explicit arg, then ``REPRO_JOBS``, then serial), the dispatched callable is
an importable top-level function with plain-data arguments (lint rule R010),
and timings ride back with the result as ``(pid, seconds, payload)`` tuples
so the parent can account per-worker time without cross-process metric
registries.

Each codec gets its *own* pool, mirroring the paper's per-algorithm CDPU
instances: a heavyweight brotli batch can never head-of-line-block the
snappy lane's workers.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple

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


#: Worker-process context cache, set once per process by the pool
#: ``initializer=`` (the sanctioned R011 idiom, as in ``repro.dse.parallel``);
#: all per-request mutation happens inside the :class:`ContextCache` object.
_WORKER_CONTEXTS: Optional[ContextCache] = None


def _init_service_worker() -> None:
    """Process-pool initializer: give this worker its own context cache."""
    global _WORKER_CONTEXTS
    _WORKER_CONTEXTS = ContextCache()


def run_service_batch(
    codec_name: str, items: List[WorkItem]
) -> Tuple[int, List[Outcome]]:
    """Execute one batch of requests for one codec inside a worker process.

    Every item is timed individually (``service_seconds`` is the quantity the
    queueing simulator models), and every failure is converted to a
    :class:`~repro.common.errors.ReproError` *value* in the outcome list —
    a raw exception must never cross the process boundary, and one corrupt
    payload must never poison its batch peers.

    Contexts persist across batches through the worker's
    :class:`ContextCache` (falling back to a batch-local cache when invoked
    outside a pool, e.g. from tests), so repeated small calls stop paying
    per-call context setup. A failed item only poisons its own context,
    which the cache replaces on the next use of that key.
    """
    cache = _WORKER_CONTEXTS
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


class CodecWorkerPool:
    """Lazy family of per-codec process pools sharing one worker-count knob.

    Pools are created on a lane's first batch and torn down together. A
    broken pool (a worker killed hard, e.g. by the OOM killer) is discarded
    and rebuilt on the next batch, so one crash degrades to one failed batch
    rather than a permanently dead lane.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_jobs(workers)
        self._pools: Dict[str, ProcessPoolExecutor] = {}

    def submit_batch(self, codec_name: str, items: List[WorkItem]) -> Future:
        pool = self._pools.get(codec_name)
        if pool is None:
            pool = self._new_pool()
            self._pools[codec_name] = pool
        try:
            return pool.submit(run_service_batch, codec_name, items)
        except (BrokenProcessPool, RuntimeError):
            # Rebuild once; if the fresh pool also refuses, let it surface.
            self.discard(codec_name)
            pool = self._new_pool()
            self._pools[codec_name] = pool
            return pool.submit(run_service_batch, codec_name, items)

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_init_service_worker
        )

    def discard(self, codec_name: str) -> None:
        """Drop a (presumed broken) pool; the next batch builds a fresh one."""
        pool = self._pools.pop(codec_name, None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        for name in sorted(self._pools):
            self._pools[name].shutdown(wait=True)
        self._pools.clear()
