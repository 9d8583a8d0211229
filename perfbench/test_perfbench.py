"""Self-checks of the benchmark: declared metrics, seeded inputs, layer sums.

Run from the repository root with ``python3 -m pytest perfbench``. The
layer-sum checks run short traced rounds of the real workloads, so the
first run in a checkout also builds the inputs (see ``prepare.py``).
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from common import Context, Outcome, median, pick_subset, stage_self_seconds  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from worker import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def build() -> Path:
    from prepare import ensure_built

    return ensure_built(ROOT)


def traced_context(build: Path, seconds: float = 2.0) -> Context:
    return Context(seed=7, seconds=seconds, trace=True, setup_only=False, build=build)


# -- declarations ----------------------------------------------------------


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert spec["paths"] == ["perfbench"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_without_program_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lint-src", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- seeded inputs ---------------------------------------------------------


def test_pick_subset_draws_one_item_per_size_stratum_at_a_fixed_total():
    rng = random.Random(3)
    sizes = sorted(rng.randint(100, 50_000) for _ in range(60))
    items = list(range(60))  # index order is size order
    one = pick_subset(random.Random(1), items, sizes.__getitem__, 6)
    assert one == pick_subset(random.Random(1), items, sizes.__getitem__, 6)
    assert one != pick_subset(random.Random(2), items, sizes.__getitem__, 6)
    assert [index // 10 for index in one] == list(range(6))
    target = sum(statistics.median(sizes[k * 10 : k * 10 + 10]) for k in range(6))
    assert abs(sum(sizes[i] for i in one) - target) <= 0.01 * target


def test_pick_subset_keeps_the_largest_and_respects_the_cap():
    sizes = [10, 20, 30, 40, 50, 60, 70, 80, 1000]
    chosen = pick_subset(random.Random(5), sizes, lambda s: s, 2, keep_largest=True, cap=60)
    assert 1000 in chosen and len(chosen) == 3
    rest = [s for s in chosen if s != 1000]
    assert max(rest) <= 60 and sum(rest) == 70


def test_stage_self_seconds_charges_nested_stages_once():
    def span(name, begin, duration, tid=1):
        return SimpleNamespace(name=name, begin_us=begin, duration_us=duration, tid=tid)

    records = [
        span("codec.zstd.compress", 0, 1000),  # not a stage: ignored
        span("stage.lz77.encode", 10, 400),
        span("stage.fse.encode", 500, 300),
        span("stage.huffman.encode", 550, 100),  # inside fse
        span("stage.crc32c", 900, 50),
    ]
    spent = stage_self_seconds(records)
    assert spent["stage.fse.encode"] == pytest.approx(200e-6)
    assert spent["stage.huffman.encode"] == pytest.approx(100e-6)
    assert sum(spent.values()) == pytest.approx(750e-6)


def test_percentiles():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([]) == 0.0


# -- layer sums ------------------------------------------------------------


def test_serve_layers_sum_to_the_client_latency(build):
    from workloads.serve import ServeFleet, layer_parts

    fleet = ServeFleet(traced_context(build))
    out = asyncio.run(fleet.run())
    assert out.failed == 0
    calls = [r for r in fleet.traced_results if r.roundtrip is not None]
    assert len(calls) > 100
    residuals = [abs(r.latency - sum(layer_parts(r))) for r in calls]
    within = sum(
        residual <= max(1e-3, 0.2 * r.latency) for residual, r in zip(residuals, calls)
    ) / len(calls)
    assert within >= 0.9
    assert median(residuals) <= 0.5e-3


def test_lint_layers_sum_to_the_traced_cold_run(build):
    from workloads.lint import LintSrc

    parts, _seconds = LintSrc(traced_context(build)).traced(Outcome())
    total = parts.pop("total")
    assert 0.9 * total <= sum(parts.values()) <= total


def test_codec_stage_times_never_exceed_the_call_time(build):
    from metrics import SUITES
    from workloads.codec import CodecBench

    bench = CodecBench(traced_context(build))
    out = Outcome()
    bench.stages(0.0, out)
    assert out.failed == 0
    for suite in SUITES:
        stages = [out.layers[f"codec.{suite}.{part}_s"] for part in ("lz77", "entropy", "crc32c")]
        assert min(stages) >= 0
        assert out.layers[f"codec.{suite}.other_s"] >= 0
