"""Process-pool fan-out for DSE sweeps (with optional persistent caching).

The paper's exploration (§6, Figures 11-15) evaluates hundreds of
(algorithm, operation, placement, SRAM, hash-table, speculation) points per
suite. Each point is a pure function of (benchmark, calibration, config), so
sweeps parallelize perfectly: :func:`evaluate_points` fans a point list out
over a :class:`concurrent.futures.ProcessPoolExecutor` and reassembles
results in sweep order, guaranteeing a **bit-identical**
:class:`~repro.dse.runner.DesignPointResult` sequence regardless of worker
count (enforced by ``tests/dse/test_parallel.py``).

Worker count resolution is :func:`repro.common.parallel.resolve_jobs`: an
explicit ``jobs`` argument wins, then the ``REPRO_JOBS`` environment
variable, then 1 — the default stays serial so library behaviour is
unchanged unless a caller opts in.

When a :class:`~repro.dse.cache.DseCache` is supplied, cached points are
served before any worker is spawned and fresh results are written back
atomically, so `repro dse`, the benchmark suite, and ad-hoc sweeps all share
one warm store.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.common.parallel import resolve_jobs
from repro.dse.cache import DseCache, runner_fingerprint
from repro.dse.runner import DesignPoint, DesignPointResult, DseRunner

# Per-worker runner, built once by the pool initializer so every task in a
# worker shares the in-process workload memos (token streams, frame stats).
_WORKER_RUNNER: Optional[DseRunner] = None


def _init_worker(bench, xeon, encodes: Dict[Tuple, list]) -> None:
    """Build the worker's runner and seed its compression memo with
    ``encodes``, the parent's matcher output for the pool's points."""
    global _WORKER_RUNNER
    _WORKER_RUNNER = DseRunner(bench, xeon)
    _WORKER_RUNNER._encode_cache.update(encodes)


def _evaluate_in_worker(point: DesignPoint) -> Tuple[int, float, DesignPointResult]:
    """Evaluate one point, reporting (worker pid, compute seconds, result).

    The timing rides back with the result so the parent process can account
    per-worker wall-clock in its metric registry — worker-local metrics
    would die with the worker. The result object itself is untouched, which
    preserves the bit-identical-across-jobs guarantee.
    """
    assert _WORKER_RUNNER is not None, "worker initializer did not run"
    begin = time.perf_counter()
    result = _WORKER_RUNNER.evaluate_point(point)
    return os.getpid(), time.perf_counter() - begin, result


def evaluate_points(
    runner: DseRunner,
    points: Iterable[DesignPoint],
    *,
    jobs: Optional[int] = None,
    cache: Optional[DseCache] = None,
) -> List[DesignPointResult]:
    """Evaluate design points, in order, with caching and parallelism.

    The result list is positionally aligned with ``points`` and bit-identical
    across ``jobs`` values and cache states: every evaluation is a
    deterministic pure function, and IEEE-754 arithmetic does not depend on
    the process it runs in.
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    with obs.span("dse.evaluate_points", category="dse", args={"points": len(points), "jobs": jobs}):
        results: List[Optional[DesignPointResult]] = [None] * len(points)
        keys: Optional[List[str]] = None
        if cache is not None and points:
            fingerprint = runner_fingerprint(runner)
            keys = [cache.key(fingerprint, point) for point in points]
            with obs.span("dse.cache.probe", category="dse"):
                for index, key in enumerate(keys):
                    results[index] = cache.get(key)

        missing = [index for index, result in enumerate(results) if result is None]
        obs.gauge_set("dse.queue.depth", len(missing))
        if missing:
            todo = [points[i] for i in missing]
            # Match each window group once, before any point is evaluated.
            with obs.span("dse.encode.fill", category="dse"):
                encodes = runner.fill_encode_memo(todo)
            fresh = _compute(runner, todo, jobs, encodes)
            for index, result in zip(missing, fresh):
                results[index] = result
                if cache is not None and keys is not None:
                    cache.put(keys[index], result)
        obs.gauge_set("dse.queue.depth", 0)
        obs.counter_add("dse.points.evaluated", len(missing))
        obs.counter_add("dse.points.from_cache", len(points) - len(missing))
    return [result for result in results if result is not None]


def _compute(
    runner: DseRunner, points: Sequence[DesignPoint], jobs: int, encodes: Dict[Tuple, list]
) -> List[DesignPointResult]:
    """Run the uncached points — serially, or across a process pool whose
    workers start with ``encodes``, the compression memo the points read."""
    if jobs == 1 or len(points) <= 1:
        results = []
        begin = time.perf_counter()
        for point in points:
            with obs.span(
                f"dse.point.{point.algorithm}.{point.operation.value}", category="dse"
            ):
                results.append(runner.evaluate_point(point))
        obs.counter_add(f"dse.worker.pid{os.getpid()}.seconds", time.perf_counter() - begin)
        return results
    workers = min(jobs, len(points))
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(runner.bench, runner.xeon, encodes),
    ) as pool:
        with obs.span("dse.pool.compute", category="dse", args={"workers": workers}):
            timed = list(pool.map(_evaluate_in_worker, points))
    results = []
    for pid, seconds, result in timed:
        obs.counter_add(f"dse.worker.pid{pid}.seconds", seconds)
        obs.histogram_observe("dse.point.seconds", seconds)
        results.append(result)
    return results
