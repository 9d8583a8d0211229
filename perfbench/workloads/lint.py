"""lint-src: ``run_lint`` over a pinned snapshot of the source tree.

The snapshot is the repository's ``src/repro`` (plus the tests the registry
rule reads) at the commit that added this benchmark, so code added or
deleted later cannot move these numbers by changing the input. The seed
picks the files linted. Each round lints cold at ``jobs=1`` (filling a fresh
benchmark-owned ``LintCache``), cold at ``jobs=2`` without a cache (in the
first round or a traced run), and warm from the ``jobs=1`` cache.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import Context, Outcome, Spans, pick_subset, relative, settle, steady_ms, wrapped
from prepare import SNAPSHOT_NODES

#: Files a run lints (see ``pick_subset``), out of the snapshot's 137.
SUBSET_FILES = 30
MIN_ROUNDS = 4


def snapshot_files(ctx: Context) -> List[Path]:
    """The seed's files, sized by syntax-tree nodes (see ``prepare.py``)."""
    root = ctx.build / "lint_snapshot"
    nodes = json.loads((ctx.build / SNAPSHOT_NODES).read_text())
    files = sorted((root / "src" / "repro").rglob("*.py"))
    rng = random.Random(ctx.seed)
    return pick_subset(
        rng, files, lambda p: nodes[p.relative_to(root).as_posix()], SUBSET_FILES
    )


def fingerprint(result) -> tuple:
    return (result.files_checked, result.suppressed, [f.to_json() for f in result.findings])


class LintSrc:
    def __init__(self, ctx: Context) -> None:
        from repro.lint import engine

        self.ctx = ctx
        self.engine = engine
        self.root = ctx.build / "lint_snapshot"
        self.files = snapshot_files(ctx)
        self.rounds = 0
        self.reference = None
        # Warm-up: the rule and flow modules load on first use.
        smallest = min(self.files, key=lambda p: p.stat().st_size)
        engine.run_lint([str(smallest)], root=self.root, jobs=1)

    def lint(self, jobs: int, cache=None, rules=None):
        return self.engine.run_lint(
            [str(p) for p in self.files], root=self.root, jobs=jobs, cache=cache, rules=rules
        )

    def agree(self, result, label: str, out: Outcome) -> None:
        got = fingerprint(result)
        if self.reference is None:
            self.reference = got
        out.check(got == self.reference, f"{label} findings differ")

    def round(self, out: Outcome, with_jobs2: bool) -> Dict[str, float]:
        """A cold jobs=1 run, a cold jobs=2 run if ``with_jobs2``, and a warm
        run; each one's time in reference loops (see ``common.relative``)."""
        from repro.lint.cache import LintCache

        self.rounds += 1
        cache_dir = self.ctx.scratch(f"lint-{self.rounds}")
        try:
            cache = LintCache(cache_dir)
            times = {}
            for key, jobs, use_cache in (("cold", 1, cache), ("jobs2", 2, None), ("warm", 1, cache)):
                if key == "jobs2" and not with_jobs2:
                    continue
                settle()
                result, _seconds, times[key] = relative(self.lint, jobs, use_cache)
                self.agree(result, key, out)
            return times
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def measure(self, seconds: float, out: Outcome, every_jobs2: bool) -> None:
        """Rounds until ``seconds`` are up, each run's ``steady_ms``
        reported. The jobs=2 run is made in the first round only (a
        correctness check) unless ``every_jobs2``."""
        rounds: List[Dict[str, float]] = []
        deadline = time.perf_counter() + seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds.append(self.round(out, every_jobs2 or not rounds))
        cold = steady_ms([r["cold"] for r in rounds]) / 1e3
        jobs2 = steady_ms([r["jobs2"] for r in rounds if "jobs2" in r]) / 1e3
        out.end_to_end["latency_ms"] = cold * 1e3
        out.layers["lint_cold_s"] = cold
        out.layers["lint_cold_jobs2_s"] = jobs2
        out.layers["lint_warm_s"] = steady_ms([r["warm"] for r in rounds]) / 1e3
        out.layers["lint.pool_speedup"] = cold / jobs2

    def traced(self, out: Outcome) -> Tuple[Dict[str, float], float]:
        """A cold jobs=1 run with spans around every layer call, then a warm
        run timing the cache lookup. Returns the traced run's layer seconds
        and its total, and its seconds from its time in reference loops."""
        from repro.lint.cache import LintCache
        from repro.lint.registry import all_rules

        spans = Spans()
        rules = all_rules()
        for rule in rules:
            check = rule.check

            def timed_check(project, check=check, name=f"rule.{rule.code}"):
                with spans.span(name):
                    return list(check(project))

            rule.check = timed_check
        engine = self.engine
        cache_dir = self.ctx.scratch("lint-traced")
        try:
            with wrapped(engine, "load_module", spans, "parse"), wrapped(
                engine, "collect_module_flow", spans, "flow"
            ), wrapped(engine, "assemble", spans, "assemble"):
                settle()
                result, total, units = relative(self.lint, 1, LintCache(cache_dir), rules)
            self.agree(result, "traced", out)
            with wrapped(LintCache, "get", spans, "cache_get"):
                self.agree(self.lint(1, LintCache(cache_dir)), "traced warm", out)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        parts = {"total": total}
        for name in ("parse", "flow", "assemble"):
            parts[name] = spans.total(name)
        for rule in rules:
            parts[f"rule.{rule.code}"] = spans.total(f"rule.{rule.code}")
        for name, value in parts.items():
            if name != "total":
                out.layers[f"lint.{name}_s"] = value
        out.layers["lint.cache_get_ms"] = spans.p50("cache_get") * 1e3
        out.layers["lint.files"] = float(result.files_checked)
        out.layers["lint.findings"] = float(len(result.findings))
        return parts, steady_ms([units]) / 1e3

    def run(self) -> Outcome:
        out = Outcome()
        if not self.ctx.trace:
            self.measure(self.ctx.seconds, out, every_jobs2=False)
            return out
        self.measure(self.ctx.seconds / 2, out, every_jobs2=True)
        _parts, traced = self.traced(out)
        out.layers["trace.overhead_frac"] = traced / out.layers["lint_cold_s"] - 1
        return out


def run(ctx: Context) -> Outcome:
    workload = LintSrc(ctx)
    ctx.ready()
    if ctx.setup_only:
        return Outcome()
    return workload.run()
