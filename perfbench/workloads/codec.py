"""codec-hcbench: one-shot codec calls over HyperCompressBench suites.

The paper's §6.1 aggregate applied to the software codecs: the time to
(de)compress every file of a seed-chosen subset of each suite (snappy and
zstd, compress and decompress), called one-shot with each file's own level
and window, serially in this process. Frames for the decompress suites come
precomputed with the HyperCompressBench build.
"""

from __future__ import annotations

import pickle
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from common import (
    Context,
    Outcome,
    median,
    pick_subset,
    relative,
    settle,
    stage_self_seconds,
    steady_ms,
)

#: Files a run draws from each suite (see ``pick_subset``), on top of the
#: suite's largest file, which every run keeps.
SUBSET_FILES = 6
#: Largest file drawn; above it, only the kept largest file.
SUBSET_CAP = 256 * 1024
MIN_ROUNDS = 4
#: One-shot calls timed per lane for the fixed per-call cost.
FIXED_COST_CALLS = 100
FIXED_COST_BYTES = 64
#: Stage span prefixes that make up each reported part of a codec call.
STAGE_PARTS = {
    "lz77": ("stage.lz77.",),
    "entropy": ("stage.huffman.", "stage.fse."),
    "crc32c": ("stage.crc32c",),
}
SUITE_KEYS = (
    ("snappy", "compress"),
    ("snappy", "decompress"),
    ("zstd", "compress"),
    ("zstd", "decompress"),
)


@dataclass(frozen=True)
class Call:
    suite: str  # "zstd-d", say
    algorithm: str
    operation: str
    name: str
    #: Uncompressed file bytes (what MB/s counts).
    raw: bytes
    #: What the call is given: the file, or its frame for a decompress suite.
    data: bytes
    level: Optional[int]
    window_size: Optional[int]


def execute(call: Call) -> bytes:
    """One one-shot codec call."""
    from repro.algorithms.registry import get_codec

    codec = get_codec(call.algorithm)
    if call.operation == "compress":
        return codec.compress(call.data, level=call.level, window_size=call.window_size)
    return codec.decompress(call.data)


def load_calls(ctx: Context) -> List[Call]:
    from repro.algorithms.base import Operation

    with open(ctx.build / "hcbench.pkl", "rb") as handle:
        bench = pickle.load(handle)
    rng = random.Random(ctx.seed)
    calls = []
    for algorithm, op in SUITE_KEYS:
        suite = bench.suite(algorithm, Operation(op))
        name = f"{algorithm}-{op[0]}"
        files = pick_subset(
            rng,
            suite.files,
            lambda f: len(f.data),
            SUBSET_FILES,
            cap=SUBSET_CAP,
            keep_largest=True,
        )
        for file in files:
            calls.append(
                Call(
                    suite=name,
                    algorithm=algorithm,
                    operation=op,
                    name=file.name,
                    raw=file.data,
                    data=file.data if op == "compress" else suite.compressed_form(file),
                    level=file.level,
                    window_size=file.window_size,
                )
            )
    return calls


class CodecBench:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.calls = load_calls(ctx)
        self.expected: Dict[str, bytes] = {}

    def verify(self, call: Call, out: bytes, outcome: Outcome) -> None:
        """Decompress output must be the file; compress output must round-trip
        (checked once) and then stay byte-identical."""
        key = f"{call.suite}/{call.name}"
        if call.operation == "decompress":
            outcome.check(out == call.raw, f"{key} decompressed wrong")
            return
        known = self.expected.get(key)
        if known is None:
            from repro.algorithms.registry import get_codec

            back = get_codec(call.algorithm).decompress(out)
            outcome.check(back == call.raw, f"{key} does not round-trip")
            self.expected[key] = out
        else:
            outcome.check(out == known, f"{key} compressed differently")

    def serial_pass(self, outcome: Outcome) -> List[float]:
        """Every call once, in this process; each call's time in reference
        loops (see ``relative``)."""
        settle()
        units, outputs = [], []
        for call in self.calls:
            result, _seconds, took = relative(execute, call)
            outputs.append(result)
            units.append(took)
        for call, out in zip(self.calls, outputs):
            self.verify(call, out, outcome)
        return units

    def measure(self, seconds: float, out: Outcome) -> None:
        """Serial passes until ``seconds`` are up. A call's time is its
        ``steady_ms`` over the passes, and a pass the sum of those."""
        per_call: List[List[float]] = [[] for _ in self.calls]
        deadline = time.perf_counter() + seconds
        while len(per_call[0]) < MIN_ROUNDS or time.perf_counter() < deadline:
            for times, took in zip(per_call, self.serial_pass(out)):
                times.append(took)
        best = [steady_ms(units) / 1e3 for units in per_call]
        out.end_to_end["latency_ms"] = sum(best) * 1e3
        suite_seconds: Dict[str, float] = defaultdict(float)
        suite_bytes: Dict[str, int] = defaultdict(int)
        suite_calls: Dict[str, List[float]] = defaultdict(list)
        for call, seconds_taken in zip(self.calls, best):
            suite_seconds[call.suite] += seconds_taken
            suite_bytes[call.suite] += len(call.raw)
            suite_calls[call.suite].append(seconds_taken)
        for suite, name in (
            ("snappy-c", "snappy_compress_mbps"),
            ("snappy-d", "snappy_decompress_mbps"),
            ("zstd-c", "zstd_compress_mbps"),
            ("zstd-d", "zstd_decompress_mbps"),
        ):
            out.layers[name] = suite_bytes[suite] / suite_seconds[suite] / 1e6
        for suite, values in suite_calls.items():
            out.layers[f"codec.{suite}.call_ms.p50"] = median(values) * 1e3

    def traced_pass(self, out: Outcome, totals: Dict[str, float]) -> List[float]:
        """One serial pass with ``repro.obs`` stage spans read per call;
        adds exclusive stage seconds to ``totals``; returns each call's time
        in reference loops."""
        from repro import obs
        from repro.obs.spans import SPAN_BUFFER

        settle()
        times = []
        for call in self.calls:
            obs.reset()
            result, took, units = relative(execute, call)
            times.append(units)
            self.verify(call, result, out)
            spent = stage_self_seconds(SPAN_BUFFER.drain_view())
            staged = 0.0
            for part, prefixes in STAGE_PARTS.items():
                value = sum(v for k, v in spent.items() if k.startswith(prefixes))
                totals[f"{call.suite}.{part}"] += value
                staged += value
            totals[f"{call.suite}.other"] += took - staged
        return times

    def stages(self, seconds: float, out: Outcome) -> float:
        """Serial passes with stage spans on; the pass time in ms, summed
        over the calls as in ``measure``.

        Stage times are exclusive, per pass, per suite; ``other`` is the rest
        of the suite's call time (framing, context set-up, block logic).
        """
        from repro import obs

        totals: Dict[str, float] = defaultdict(float)
        passes: List[List[float]] = []
        deadline = time.perf_counter() + seconds
        obs.enable()
        try:
            while not passes or time.perf_counter() < deadline:
                passes.append(self.traced_pass(out, totals))
        finally:
            obs.disable()
            obs.reset()
        for key, value in totals.items():
            out.layers[f"codec.{key}_s"] = value / len(passes)
        return sum(steady_ms(units) for units in zip(*passes))

    @staticmethod
    def fixed_costs(seed: int, out: Outcome) -> None:
        """p50 of a one-shot call on a 64-byte input, per lane."""
        from repro.algorithms.registry import get_codec
        from repro.service.harness import synthesize_payload

        for algorithm in ("snappy", "zstd"):
            codec = get_codec(algorithm)
            raw = synthesize_payload(seed, algorithm, FIXED_COST_BYTES)
            frame = codec.compress(raw)
            for operation, fn, arg, want in (
                ("compress", codec.compress, raw, frame),
                ("decompress", codec.decompress, frame, raw),
            ):
                settle()
                samples = []
                for _ in range(FIXED_COST_CALLS):
                    begin = time.perf_counter()
                    result = fn(arg)
                    samples.append(time.perf_counter() - begin)
                out.check(result == want, f"{algorithm} {operation} of 64 B")
                out.layers[f"codec.{algorithm}.{operation}.fixed_ms"] = (
                    median(samples) * 1e3
                )

    def run(self) -> Outcome:
        ctx = self.ctx
        out = Outcome()
        if not ctx.trace:
            self.measure(ctx.seconds, out)
            return out
        self.measure(ctx.seconds / 2, out)
        self.fixed_costs(ctx.seed, out)
        traced = self.stages(ctx.seconds / 2, out)
        out.layers["trace.overhead_frac"] = traced / out.end_to_end["latency_ms"] - 1
        return out


def run(ctx: Context) -> Outcome:
    bench = CodecBench(ctx)
    ctx.ready()
    if ctx.setup_only:
        return Outcome()
    return bench.run()
