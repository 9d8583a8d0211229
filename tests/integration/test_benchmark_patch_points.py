"""The attributes the benchmark's traced runs patch are still called.

``perfbench``'s traced lint-src and dse-sweep runs time each layer by
replacing an attribute with a wrapper: the lint engine's ``load_module``,
``collect_module_flow`` and ``assemble``, every rule's ``check`` and
``LintCache.get``; ``DseRunner.evaluate`` and ``xeon_seconds``,
``CdpuGenerator.generate`` and ``DseCache.get``/``put``. A refactor that
stops calling one through that attribute leaves its metric silently empty,
and one that breaks under a wrapper crashes the traced run. Each attribute
is replaced by a counting wrapper here, and each wrapper must be called.
"""

from __future__ import annotations

import functools
from pathlib import Path

import pytest

from repro.algorithms.base import Operation
from repro.core.generator import CdpuGenerator
from repro.core.params import CdpuConfig
from repro.dse.cache import DseCache
from repro.dse.runner import DesignPoint, DseRunner
from repro.hcbench.suite import HyperCompressBench, Suite
from repro.lint import engine
from repro.lint.cache import LintCache
from repro.lint.registry import all_rules
from repro.soc.placement import Placement

REPO = Path(__file__).resolve().parents[2]
LINTED = [REPO / "src" / "repro" / "common" / name for name in ("varint.py", "units.py", "store.py")]


class Counting:
    """A call counter around ``original``. Picklable, so a process pool
    can take it in place of a module function, and a descriptor, so it can
    stand in for a method."""

    def __init__(self, original) -> None:
        self.original = original
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.original(*args, **kwargs)

    def __get__(self, instance, owner):
        return self if instance is None else functools.partial(self, instance)


def _count(monkeypatch, owner, name: str) -> Counting:
    wrapper = Counting(getattr(owner, name))
    monkeypatch.setattr(owner, name, wrapper)
    return wrapper


@pytest.mark.parametrize("jobs", [1, 2])
def test_lint_layers_run_through_their_attributes(monkeypatch, tmp_path, jobs):
    parse = _count(monkeypatch, engine, "load_module")
    flow = _count(monkeypatch, engine, "collect_module_flow")
    assemble = _count(monkeypatch, engine, "assemble")
    cache_get = _count(monkeypatch, LintCache, "get")
    rules = all_rules()
    checks = [_count(monkeypatch, rule, "check") for rule in rules]
    paths = [str(path) for path in LINTED]

    result = engine.run_lint(paths, root=REPO, jobs=jobs, cache=LintCache(tmp_path), rules=rules)
    assert parse.calls == len(LINTED)
    # With a pool the flow pass runs in the workers, on the pickled wrapper.
    assert flow.calls == (len(LINTED) if jobs == 1 else 0)
    assert assemble.calls == 1
    assert [check.calls for check in checks] == [1] * len(rules)
    assert cache_get.calls == 1

    warm = engine.run_lint(paths, root=REPO, jobs=jobs, cache=LintCache(tmp_path), rules=rules)
    assert cache_get.calls == 2
    assert parse.calls == len(LINTED)  # the warm run parses nothing
    assert warm.findings == result.findings
    assert warm.files_checked == result.files_checked == len(LINTED)


def test_dse_layers_run_through_their_attributes(monkeypatch, tmp_path, bench):
    suite = bench.suite("snappy", Operation.COMPRESS)
    files = sorted(suite.files, key=lambda file: len(file.data))[-2:]
    small = HyperCompressBench(
        suites={
            ("snappy", Operation.COMPRESS): Suite(
                "snappy",
                Operation.COMPRESS,
                files,
                {file.name: suite.compressed_form(file) for file in files},
            )
        },
        config=bench.config,
    )
    points = [
        DesignPoint(
            "snappy",
            Operation.COMPRESS,
            CdpuConfig(encoder_history_bytes=history, placement=placement),
        )
        for history in (2048, 65536)
        for placement in (Placement.ROCC, Placement.CHIPLET)
    ]
    evaluate = _count(monkeypatch, DseRunner, "evaluate")
    generate = _count(monkeypatch, CdpuGenerator, "generate")
    xeon = _count(monkeypatch, DseRunner, "xeon_seconds")
    get = _count(monkeypatch, DseCache, "get")
    put = _count(monkeypatch, DseCache, "put")

    cold = DseRunner(small, cache=DseCache(tmp_path)).evaluate_many(points)
    assert evaluate.calls == len(points)  # once per uncached point
    assert generate.calls >= len(points)
    assert xeon.calls == len(points)
    assert get.calls == put.calls == len(points)

    warm = DseRunner(small, cache=DseCache(tmp_path)).evaluate_many(points)
    assert warm == cold
    assert evaluate.calls == len(points)  # a warm replay evaluates nothing
    assert get.calls == 2 * len(points)
    assert put.calls == len(points)
