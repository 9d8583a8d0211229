"""Lane workers: the pipe transport, lane parallelism, and a killed worker.

The transport contract is what the load harness's calibration and external
instrumentation rely on: an unbound ``CodecWorkerPool`` answers ``.result()``
at once (also from inside a running loop's thread), a bound pool's future
honours ``add_done_callback``, and every batch a ``CompressionService``
dispatches goes through ``CodecWorkerPool.submit_batch``, so a class-level
wrapper sees it.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import random
import signal
from concurrent.futures import Future

from repro.algorithms.base import Operation
from repro.algorithms.registry import get_codec
from repro.common.errors import ServiceInternalError
from repro.service import ServiceConfig
from repro.service.workers import CodecWorkerPool
from tests.service.test_dispatcher import TIMEOUT_SECONDS, run_service

PAYLOAD = b"lane worker transport payload: short and repetitive. " * 8


def _text(size: int, seed: int) -> bytes:
    """Compressible but match-rich bytes: words drawn from a small vocabulary."""
    rng = random.Random(seed)
    words = [bytes(rng.choices(b"abcdefghijklmnop", k=rng.randint(3, 9))) for _ in range(512)]
    out = bytearray()
    while len(out) < size:
        out += rng.choice(words) + b" "
    return bytes(out[:size])


#: A zstd compress of each takes well over 100 ms in this pure-Python codec.
SLOW = 256 * 1024
#: ... and of this one well over 0.5 s.
SLOWER = 1024 * 1024


# -- transport contract ------------------------------------------------------


def test_unbound_pool_round_trips_outside_and_inside_a_loop():
    pool = CodecWorkerPool(1)
    try:
        future = pool.submit_batch("snappy", [])
        assert isinstance(future, Future) and future.done()
        pid, outcomes = future.result()
        assert outcomes == [] and pid != os.getpid()

        async def inside_a_running_loop():
            return pool.submit_batch("snappy", []).result()

        assert asyncio.run(inside_a_running_loop()) == (pid, [])
    finally:
        pool.shutdown()
    assert not multiprocessing.active_children()


def test_bound_pool_done_callback_fires_once_with_the_future():
    async def scenario():
        pool = CodecWorkerPool(1)
        pool.bind(asyncio.get_running_loop())
        try:
            calls = []
            future = pool.submit_batch("snappy", [("compress", PAYLOAD, None)])
            future.add_done_callback(calls.append)
            _pid, outcomes = await asyncio.wait_for(future, TIMEOUT_SECONDS)
            await asyncio.sleep(0)
            return calls, future, outcomes
        finally:
            pool.shutdown()

    calls, future, outcomes = asyncio.run(scenario())
    assert calls == [future]
    assert not future.cancelled() and future.exception() is None
    assert outcomes[0][:2] == ("ok", get_codec("snappy").compress(PAYLOAD))


def test_class_level_wrapper_sees_every_dispatched_batch(monkeypatch):
    seen = []
    original = CodecWorkerPool.submit_batch

    def submit_batch(pool, codec_name, items):
        future = original(pool, codec_name, items)
        seen.append((codec_name, len(items)))
        return future

    monkeypatch.setattr(CodecWorkerPool, "submit_batch", submit_batch)

    async def scenario(service):
        requests = [
            service.make_request(codec, Operation.COMPRESS, PAYLOAD)
            for codec in ("snappy", "zstd")
            for _ in range(6)
        ]
        return await asyncio.gather(*[service.submit(r) for r in requests])

    responses = run_service(scenario, ServiceConfig(workers=2, max_batch=4))
    assert all(r.ok for r in responses)
    for codec in ("snappy", "zstd"):
        assert sum(n for name, n in seen if name == codec) == 6


# -- lane parallelism --------------------------------------------------------


def test_a_lane_keeps_one_batch_in_flight_per_worker():
    slow = [_text(SLOW, seed) for seed in (1, 2)]

    async def scenario(service):
        # Start both lane processes first, so neither timed call waits on a fork.
        await asyncio.gather(
            *[
                service.submit(service.make_request("zstd", Operation.COMPRESS, PAYLOAD))
                for _ in range(2)
            ]
        )
        return await asyncio.gather(
            *[
                service.submit(service.make_request("zstd", Operation.COMPRESS, data))
                for data in slow
            ]
        )

    first, second = run_service(scenario, ServiceConfig(workers=2, max_batch=1))
    assert first.ok and second.ok
    assert first.worker_pid != second.worker_pid
    assert second.wait_seconds < first.service_seconds / 2


# -- a worker killed mid-batch -----------------------------------------------


def test_killed_worker_fails_its_batch_and_the_lane_recovers():
    slower = _text(SLOWER, 3)

    async def scenario(service):
        warm = await service.submit(
            service.make_request("zstd", Operation.COMPRESS, PAYLOAD)
        )
        victim = warm.worker_pid
        batch = [
            asyncio.ensure_future(
                service.submit(service.make_request("zstd", Operation.COMPRESS, slower))
            )
            for _ in range(2)
        ]
        await asyncio.sleep(0.2)  # the batch is now running in the victim
        os.kill(victim, signal.SIGKILL)
        lost = await asyncio.wait_for(asyncio.gather(*batch), TIMEOUT_SECONDS)
        after = await service.submit(
            service.make_request("zstd", Operation.COMPRESS, PAYLOAD)
        )
        return victim, lost, after

    victim, lost, after = run_service(scenario, ServiceConfig(workers=1, max_batch=4))
    assert [r.batch_size for r in lost] == [2, 2]
    for response in lost:
        assert not response.ok
        assert isinstance(response.error, ServiceInternalError)
    assert after.ok and after.result_bytes() == get_codec("zstd").compress(PAYLOAD)
    assert after.worker_pid != victim
    assert not multiprocessing.active_children()
