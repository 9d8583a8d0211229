"""dse-sweep: the Figure 11, 12, 14 and 15 grids through ``DseRunner``.

Each round sweeps the 84 design points cold at ``jobs=1`` (and, in the
first round or a traced run, cold at ``jobs=2``), each on a fresh runner
with a fresh benchmark-owned ``DseCache`` attached (as the CLI does), then
replays the ``jobs=1`` sweep warm from its cache. The HyperCompressBench
subset is chosen by the seed.
"""

from __future__ import annotations

import pickle
import random
import shutil
import time
from collections import defaultdict
from typing import Dict, List

from common import (
    Context,
    Outcome,
    Spans,
    pick_subset,
    relative,
    settle,
    stage_self_seconds,
    steady_ms,
    wrapped,
)

#: Per-figure times in reference loops (see ``common.relative``).
Units = Dict[str, List[float]]

#: Files a run draws from each suite (see ``pick_subset``), of at most
#: SUBSET_CAP bytes each.
SUBSET_FILES = 4
SUBSET_CAP = 128 * 1024
FIGURES = ("fig11", "fig12", "fig14", "fig15")
MIN_ROUNDS = 3


def load_bench(ctx: Context):
    from repro.hcbench.suite import HyperCompressBench, Suite

    with open(ctx.build / "hcbench.pkl", "rb") as handle:
        full = pickle.load(handle)
    rng = random.Random(ctx.seed)
    suites = {}
    for key in sorted(full.suites, key=lambda k: (k[0], k[1].value)):
        suite = full.suites[key]
        files = pick_subset(
            rng,
            suite.files,
            lambda f: len(f.data),
            SUBSET_FILES,
            cap=SUBSET_CAP,
        )
        suites[key] = Suite(
            suite.algorithm,
            suite.operation,
            files,
            {f.name: suite.compressed_form(f) for f in files},
        )
    return HyperCompressBench(suites=suites, config=full.config)


def figure_functions():
    from repro.dse import experiments

    return {
        "fig11": experiments.fig11_snappy_decompression,
        "fig12": experiments.fig12_snappy_compression,
        "fig14": experiments.fig14_zstd_decompression,
        "fig15": experiments.fig15_zstd_compression,
    }


class DseSweep:
    def __init__(self, ctx: Context) -> None:
        from repro.soc.xeon import XeonBaseline

        self.ctx = ctx
        self.bench = load_bench(ctx)
        self.xeon = XeonBaseline()
        self.figures = figure_functions()
        self.rounds = 0

    def sweep(self, jobs: int, cache_dir, units: Units) -> Dict[str, object]:
        """The four figures on a fresh runner, each timed into ``units``."""
        from repro.dse.cache import DseCache
        from repro.dse.runner import DseRunner

        settle()
        runner = DseRunner(self.bench, self.xeon, jobs=jobs, cache=DseCache(cache_dir))
        results = {}
        for name in FIGURES:
            results[name], _seconds, took = relative(self.figures[name], runner)
            units[name].append(took)
        return results

    def compare(self, reference, other, label: str, out: Outcome) -> None:
        """Every design point of ``other`` must equal the reference bit for bit."""
        for name in FIGURES:
            for index, (want, got) in enumerate(
                zip(reference[name].points, other[name].points)
            ):
                out.check(want == got, f"{label} {name} point {index} differs")
            out.check(
                len(reference[name].points) == len(other[name].points)
                and reference[name].series == other[name].series,
                f"{label} {name} series differ",
            )

    def round(self, out: Outcome, units: Dict[str, Units], with_jobs2: bool) -> None:
        """One cold jobs=1 sweep, a cold jobs=2 sweep if ``with_jobs2``, and
        a warm replay, each timed per figure into ``units[kind]``."""
        self.rounds += 1
        cold_dir = self.ctx.scratch(f"dse-{self.rounds}-jobs1")
        jobs2_dir = self.ctx.scratch(f"dse-{self.rounds}-jobs2")
        try:
            reference = self.sweep(1, cold_dir, units["jobs1"])
            if with_jobs2:
                self.compare(reference, self.sweep(2, jobs2_dir, units["jobs2"]), "jobs2", out)
            self.compare(reference, self.sweep(1, cold_dir, units["warm"]), "warm", out)
        finally:
            shutil.rmtree(cold_dir, ignore_errors=True)
            shutil.rmtree(jobs2_dir, ignore_errors=True)

    def measure(self, seconds: float, out: Outcome, every_jobs2: bool) -> None:
        """Rounds until ``seconds`` are up. A sweep's time is the sum over
        its figures of each figure's ``steady_ms`` over the rounds. The
        jobs=2 sweep runs in the first round only (a correctness check)
        unless ``every_jobs2``."""
        units: Dict[str, Units] = {key: defaultdict(list) for key in ("jobs1", "jobs2", "warm")}
        deadline = time.perf_counter() + seconds
        while self.rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            self.round(out, units, every_jobs2 or self.rounds == 0)
        sweep = {
            key: sum(steady_ms(timed[name]) for name in FIGURES) / 1e3
            for key, timed in units.items()
        }
        jobs1, jobs2 = sweep["jobs1"], sweep["jobs2"]
        out.end_to_end["latency_ms"] = jobs1 * 1e3
        out.layers["dse_sweep_s"] = jobs1
        out.layers["dse_sweep_jobs2_s"] = jobs2
        out.layers["dse.parallel_efficiency"] = jobs1 / (2 * jobs2)
        out.layers["dse.warm_replay_s"] = sweep["warm"]

    def traced(self, out: Outcome) -> float:
        """A cold jobs=1 sweep and its warm replay with spans around each
        layer call and ``repro.obs`` stage spans on; the sweep's seconds,
        from its figures' times in reference loops."""
        from repro import obs
        from repro.core.generator import CdpuGenerator
        from repro.dse.cache import DseCache
        from repro.dse.runner import DseRunner
        from repro.obs.spans import SPAN_BUFFER

        spans = Spans()
        figures: Units = defaultdict(list)
        memo_keys = set()
        evaluate = DseRunner.evaluate

        def timed_evaluate(runner, config, algorithm, operation):
            # A point fills the runner's memo when it is the first one with
            # its decode suite, or with its encoder parameters.
            key = (algorithm, operation)
            if operation.value == "compress":
                key += (config.encoder_lz77_params(), config.fse_max_accuracy_log)
            name = "fill" if key not in memo_keys else "point"
            memo_keys.add(key)
            with spans.span(name):
                return evaluate(runner, config, algorithm, operation)

        cache_dir = self.ctx.scratch("dse-traced")
        obs.reset()
        obs.enable()
        DseRunner.evaluate = timed_evaluate
        try:
            with wrapped(CdpuGenerator, "generate", spans, "generate"), wrapped(
                DseRunner, "xeon_seconds", spans, "xeon"
            ), wrapped(DseCache, "put", spans, "put"):
                reference = self.sweep(1, cache_dir, figures)
            with wrapped(DseCache, "get", spans, "get"):
                replay = self.sweep(1, cache_dir, defaultdict(list))
            self.compare(reference, replay, "traced warm", out)
            lz77 = stage_self_seconds(SPAN_BUFFER.drain_view()).get("stage.lz77.encode", 0.0)
        finally:
            DseRunner.evaluate = evaluate
            obs.disable()
            obs.reset()
            shutil.rmtree(cache_dir, ignore_errors=True)
        layers = out.layers
        for name in FIGURES:
            layers[f"dse.{name}_s"] = steady_ms(figures[name]) / 1e3
        layers["dse.memo_fill_s"] = spans.total("fill")
        layers["dse.point_ms.p50"] = spans.p50("point") * 1e3
        layers["dse.generate_ms.p50"] = spans.p50("generate") * 1e3
        layers["dse.xeon_s"] = spans.total("xeon")
        layers["dse.lz77_encode_s"] = lz77
        layers["dse.cache.put_ms.p50"] = spans.p50("put") * 1e3
        layers["dse.cache.get_ms.p50"] = spans.p50("get") * 1e3
        return sum(layers[f"dse.{name}_s"] for name in FIGURES)

    def run(self) -> Outcome:
        out = Outcome()
        if not self.ctx.trace:
            self.measure(self.ctx.seconds, out, every_jobs2=False)
            return out
        self.measure(self.ctx.seconds / 2, out, every_jobs2=True)
        traced = self.traced(out)
        out.layers["trace.overhead_frac"] = traced / out.layers["dse_sweep_s"] - 1
        return out


def run(ctx: Context) -> Outcome:
    sweep = DseSweep(ctx)
    ctx.ready()
    if ctx.setup_only:
        return Outcome()
    return sweep.run()
