"""Lint wall-clock baseline: cold vs warm cache, jobs 1, 2 and 4.

Emits ``results/BENCH_lint.json`` — the repo's first lint perf artifact —
so the performance trajectory of the analyzer is tracked the same way the
figure tables are. Two properties are asserted hard because they are
architectural, not machine-dependent:

* a warm content-hash cache must beat a cold run by a wide margin (the
  whole point of :mod:`repro.lint.cache`): per worker count, the median of
  ``RUNS`` cold runs, each on a fresh cache directory, against the median
  of the ``RUNS`` warm runs that replay them, so one slow spell of a shared
  machine cannot fail the gate alone;
* every configuration must produce identical findings (jobs parity).

Every time recorded is such a median. The median cold ``jobs=1`` run is also
broken down by layer — parse, flow
(per-function CFG + taint on demand, then summary assembly) and each rule's check —
and the layers must account for that run's total within
``LAYER_SUM_TOLERANCE``, so a regression names the layer that moved. The
same run counts the functions the flow pass read and the taint solves it
made (``repro.obs`` counters ``lint.flow.functions`` and
``lint.flow.taint_solves``). The artifact keeps the numbers of the one it
replaces under ``previous``, so a regeneration carries its before and
after.

The comparison against the *committed* baseline is deliberately soft: CI
machines vary, so a slowdown beyond the allowed ratio emits a prominent
warning for the reviewer rather than failing the build. Lives under
``benchmarks/`` with the ``bench`` marker because it measures time.
"""

import json
import statistics
import time
import warnings
from pathlib import Path

import pytest

from repro import obs
from repro.lint import engine, run_lint
from repro.lint.cache import LintCache
from repro.lint.registry import all_rules

REQUIRED_WARM_SPEEDUP = 3.0
#: Cold runs (and warm replays) per worker count; the gate compares medians.
RUNS = 3
#: Soft gate: warn (don't fail) when cold lint is this much slower than the
#: committed baseline.
SOFT_REGRESSION_RATIO = 3.0
#: The per-layer seconds must sum to the run's total within this fraction.
LAYER_SUM_TOLERANCE = 0.10

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BASELINE = _REPO_ROOT / "results" / "BENCH_lint.json"


def _timed_run(src: Path, *, jobs: int, cache: LintCache):
    start = time.perf_counter()
    result = run_lint([src], root=_REPO_ROOT, jobs=jobs, cache=cache)
    return result, time.perf_counter() - start


def _layered_run(src: Path, *, cache: LintCache, monkeypatch):
    """A jobs=1 run that also returns seconds per layer: ``parse``
    (``load_module``), ``flow`` (``_collect_flows`` + ``assemble``) and
    ``rule.<code>`` for each rule's check, and the flow counters it added."""
    layers = {}
    counted = ("lint.flow.functions", "lint.flow.taint_solves")
    was_enabled = obs.enabled()
    before = obs.snapshot().counters

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                layers[name] = layers.get(name, 0.0) + time.perf_counter() - start

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(engine, "load_module", timed("parse", engine.load_module))
        patch.setattr(engine, "_collect_flows", timed("flow", engine._collect_flows))
        patch.setattr(engine, "assemble", timed("flow", engine.assemble))
        rules = all_rules()
        for rule in rules:
            rule.check = timed(
                f"rule.{rule.code}", lambda project, check=rule.check: list(check(project))
            )
        obs.enable()
        try:
            start = time.perf_counter()
            result = run_lint([src], root=_REPO_ROOT, jobs=1, cache=cache, rules=rules)
            total = time.perf_counter() - start
        finally:
            if not was_enabled:
                obs.disable()
    after = obs.snapshot().counters
    counters = {name: after.get(name, 0) - before.get(name, 0) for name in counted}
    return result, total, layers, counters


@pytest.mark.bench
def test_lint_cold_warm_jobs_matrix_and_baseline(tmp_path, results_dir, monkeypatch):
    src = _REPO_ROOT / "src"
    timings = {}
    findings = {}
    layered = []
    for jobs in (1, 2, 4):
        colds, warms = [], []
        for run in range(RUNS):
            cache = LintCache(tmp_path / f"lint-cache-j{jobs}-{run}")
            if jobs == 1:
                result_cold, cold, layers, counters = _layered_run(
                    src, cache=cache, monkeypatch=monkeypatch
                )
                layered.append((cold, layers, counters))
            else:
                result_cold, cold = _timed_run(src, jobs=jobs, cache=cache)
            result_warm, warm = _timed_run(src, jobs=jobs, cache=cache)
            colds.append(cold)
            warms.append(warm)
            cold_findings = [f.to_json() for f in result_cold.findings]
            assert findings.setdefault(jobs, cold_findings) == cold_findings
            assert [f.to_json() for f in result_warm.findings] == cold_findings
        cold, warm = statistics.median(colds), statistics.median(warms)
        timings[f"cold_jobs{jobs}_seconds"] = round(cold, 4)
        timings[f"warm_jobs{jobs}_seconds"] = round(warm, 4)
        assert cold >= REQUIRED_WARM_SPEEDUP * warm, (
            f"warm lint cache not fast enough at jobs={jobs}: median "
            f"cold={cold:.3f}s warm={warm:.3f}s over {RUNS} runs"
        )

    # Jobs parity: the parallel flow pass must not perturb findings.
    assert findings[1] == findings[2] == findings[4]

    # The layers of the median cold jobs=1 run, whose total is the median.
    cold, layers, counters = sorted(layered, key=lambda run: run[0])[RUNS // 2]
    accounted = sum(layers.values())
    assert abs(accounted - cold) <= LAYER_SUM_TOLERANCE * cold, (
        f"layers account for {accounted:.3f}s of a {cold:.3f}s cold run"
    )

    payload = {
        "benchmark": "lint",
        "files": len(list(src.rglob("*.py"))),
        "cold_jobs1_layers_seconds": {
            name: round(seconds, 4) for name, seconds in sorted(layers.items())
        },
        "cold_jobs1_counters": counters,
        **timings,
    }
    previous = None
    if _BASELINE.exists():
        previous = json.loads(_BASELINE.read_text())
        previous.pop("previous", None)
        payload["previous"] = previous
    (results_dir / "BENCH_lint.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    if previous is not None:
        for key in ("cold_jobs1_seconds", "cold_jobs4_seconds"):
            before, now = previous.get(key), payload[key]
            if before and now > SOFT_REGRESSION_RATIO * before:
                warnings.warn(
                    f"lint perf regression (soft): {key} was {before}s, "
                    f"now {now}s (> {SOFT_REGRESSION_RATIO}x)",
                    stacklevel=1,
                )
