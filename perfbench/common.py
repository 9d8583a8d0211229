"""Helpers shared by the workloads: statistics, seeded subsets, spans."""

from __future__ import annotations

import ast
import contextlib
import gc
import os
import random
import signal
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


@dataclass
class Context:
    """What a workload gets from the worker process."""

    seed: int
    seconds: float
    trace: bool
    setup_only: bool
    build: Path
    #: ``time.monotonic()`` when set-up finished (the first timed operation).
    ready_at: Optional[float] = None

    def ready(self) -> None:
        """Mark the end of set-up. The set-up's objects (the inputs, the
        imported modules) live to the end, so they are moved out of the
        collector's reach: otherwise every full collection during the run
        would re-scan them, a cost of the benchmark, not of the program."""
        gc.collect()
        gc.freeze()
        self.ready_at = time.monotonic()

    def scratch(self, name: str) -> Path:
        """A fresh directory owned by this run, inside the build directory."""
        path = self.build / "tmp" / str(os.getpid()) / name
        path.mkdir(parents=True, exist_ok=False)
        return path


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    #: Operations that failed, were shed, or returned wrong output.
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    #: Set when the run cannot be trusted as a measurement (an open-loop
    #: generator that fell behind its schedule, say).
    invalid: Optional[str] = None
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.violations) < 20:
                self.violations.append(what)

    def finish(self) -> None:
        self.layers["error_rate"] = self.failed / max(1, self.attempted)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def settle() -> None:
    """Start a timed repetition from a clean collector state, so a full
    collection triggered by an earlier repetition's garbage is not charged
    to this one; the repetition's own collections still count."""
    gc.collect()


#: What the reference loop takes, in milliseconds, on a quiet core of the
#: 2-vCPU machine this benchmark was built on. It turns a time measured in
#: reference loops back into milliseconds; it is a fixed scale, never
#: measured, so a run's figures do not move with the machine's speed.
REFERENCE_MS = 0.28
#: Seconds between two reference loops while timed work runs.
TICK_S = 0.02

_REFERENCE_TREE = ast.parse(
    "".join(
        f"def f{i}(a, b):\n    return [x * a + b for x in range(a) if x % 3 == {i % 3}]\n"
        for i in range(12)
    )
)


def reference_loop() -> int:
    """A fixed unit of interpreter work (a walk over a small standard-library
    syntax tree) that touches nothing of the program, so no change to the
    program can speed it up."""
    fields = 0
    for node in ast.walk(_REFERENCE_TREE):
        fields += len(node._fields)
    return fields


def _reference_seconds() -> float:
    begin = time.perf_counter()
    reference_loop()
    return time.perf_counter() - begin


class _Pace:
    """Reference loops sampled while one piece of work runs, and the work's
    time in reference loops so far."""

    def __init__(self) -> None:
        self.last = _reference_seconds()
        self.mark = time.perf_counter()
        self.units = 0.0

    def tick(self) -> None:
        """Charge the stretch since the last sample at the mean speed of the
        samples at its two ends, then take a new sample."""
        begin = time.perf_counter()
        sample = _reference_seconds()
        self.units += (begin - self.mark) * 2 / (self.last + sample)
        self.last = sample
        self.mark = time.perf_counter()


#: The pace the ``SIGALRM`` handler ticks. A signal handler is one per
#: process, so what it acts on is too.
_ACTIVE: List[_Pace] = []


def _on_alarm(signum, frame) -> None:
    if _ACTIVE:
        _ACTIVE[-1].tick()


def relative(fn: Callable[..., T], *args) -> Tuple[T, float, float]:
    """Run ``fn(*args)`` with a reference loop every ``TICK_S`` seconds;
    return its result, its wall seconds, and its time in reference loops
    (each stretch between two loops over the loops' mean time; the loops'
    own time is left out).

    The machine this benchmark was built on is a shared 2-vCPU guest whose
    cores flip between a normal and a up to 2x slower state every few
    seconds, CPU time and wall time alike. A loop timed during the work
    slows down with it, so the ratio stays put; a change to the program
    moves the work and not the loop, so the ratio follows the program.
    The loops run from ``SIGALRM``, in this thread, between the work's
    bytecodes; worker processes the work starts are not sampled.
    """
    # Installed once and never put back: an alarm still pending when a
    # timer is stopped must find this handler, not the default one.
    if signal.getsignal(signal.SIGALRM) is not _on_alarm:
        signal.signal(signal.SIGALRM, _on_alarm)
    pace = _Pace()
    _ACTIVE.append(pace)
    begin = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - begin
        _ACTIVE.pop()
    pace.tick()
    return result, seconds, pace.units


def steady_ms(units: Sequence[float]) -> float:
    """Milliseconds of a repeated unit of work timed with ``relative``: the
    median of its times in reference loops, at ``REFERENCE_MS`` per loop.
    The median, not the fastest, since a ratio errs both ways: low when the
    machine sped up during the work but not during the loops around it."""
    return median(units) * REFERENCE_MS


def fastest(values: Sequence[float]) -> float:
    """The estimate a run reports over repeated timings of the same work.

    Noise on a shared machine only ever slows work down, and this one flips
    between a normal and a much slower state every few seconds, so the
    fastest repetition is the one that follows the program; a change that
    slows the work slows every repetition, the fastest included.
    """
    return min(values)


def pick_subset(
    rng: random.Random,
    items: Sequence[T],
    size: Callable[[T], int],
    count: int,
    *,
    tolerance: float = 0.01,
    cap: Optional[int] = None,
    keep_largest: bool = False,
) -> List[T]:
    """``count`` seeded items spread over the size range, of a fixed byte total.

    The items (at most ``cap`` bytes each) are sorted by size and cut into
    ``count`` strata of equal length; one item is drawn from each, and a draw
    is kept only if its total is within ``tolerance`` of the sum of the
    strata's median sizes. So every seed gets the same number of items, the
    same spread of sizes and the same bytes, and per-run work (per-call fixed
    costs included) stays put while the inputs differ. ``keep_largest``
    always adds the biggest item on top, so the subset keeps the suite's
    size range. Returned in input order.
    """
    pool = sorted(range(len(items)), key=lambda i: (size(items[i]), i))
    forced: List[int] = []
    if keep_largest:
        forced = [pool.pop()]
    if cap is not None:
        pool = [i for i in pool if size(items[i]) <= cap]
    strata = [pool[k * len(pool) // count : (k + 1) * len(pool) // count] for k in range(count)]
    target = sum(statistics.median(size(items[i]) for i in stratum) for stratum in strata)
    # Rarely hit bands (a top stratum of very uneven sizes) widen until hit.
    while True:
        for _attempt in range(2_000):
            chosen = [rng.choice(stratum) for stratum in strata]
            if abs(sum(size(items[i]) for i in chosen) - target) <= tolerance * target:
                return [items[i] for i in sorted(forced + chosen)]
        tolerance *= 2


class Spans:
    """Benchmark-side spans: durations per name, around calls into a layer."""

    def __init__(self) -> None:
        self.durations: Dict[str, List[float]] = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        begin = time.perf_counter()
        try:
            yield
        finally:
            self.durations[name].append(time.perf_counter() - begin)

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def p50(self, name: str) -> float:
        return median(self.durations.get(name, ()))


@contextlib.contextmanager
def wrapped(owner: object, attr: str, spans: Spans, name: str) -> Iterator[None]:
    """Time every call of ``owner.attr`` under ``name`` while the block runs."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        with spans.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def stage_self_seconds(records) -> Dict[str, float]:
    """Exclusive seconds per ``stage.*`` span name from ``repro.obs`` records.

    A stage nested in another stage (Huffman inside a block coder, say) is
    charged to itself, and its parent only keeps the remainder, so the
    per-stage totals never count an instant twice.
    """
    stages = sorted(
        (r for r in records if r.name.startswith("stage.")),
        key=lambda r: (r.tid, r.begin_us, -r.duration_us),
    )
    child_us: Dict[int, float] = defaultdict(float)
    stack: List[int] = []
    for index, record in enumerate(stages):
        while stack and (
            stages[stack[-1]].tid != record.tid
            or stages[stack[-1]].begin_us + stages[stack[-1]].duration_us
            <= record.begin_us
        ):
            stack.pop()
        if stack:
            child_us[stack[-1]] += record.duration_us
        stack.append(index)
    totals: Dict[str, float] = defaultdict(float)
    for index, record in enumerate(stages):
        totals[record.name] += (record.duration_us - child_us[index]) / 1e6
    return dict(totals)
