"""Shared fixtures: expensive artifacts are built once per session.

The HyperCompressBench instance and the DSE runner are the costly pieces
(tens of seconds on a cold cache); both are session-scoped, and the benchmark
additionally persists to a disk cache across runs. A watchdog ends the run
with every thread's traceback if one test hangs.
"""

from __future__ import annotations

import faulthandler
import os
import random

import pytest
from hypothesis import HealthCheck, settings

from repro.dse.runner import DseRunner
from repro.fleet import generate_fleet_profile
from repro.hcbench import default_benchmark

# Hypothesis profiles: the default disables the per-example deadline (the
# pure-python codecs are slow enough that a 200 ms deadline flakes on loaded
# machines), while "ci" pins an explicit generous deadline and derandomizes
# so CI failures replay deterministically. Select with HYPOTHESIS_PROFILE.
settings.register_profile("default", deadline=None)
settings.register_profile(
    "ci",
    deadline=2000,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: Seconds one test may run before the watchdog prints every thread's
#: traceback and ends the run. Far above the slowest test (8.3 s), so only a
#: hang trips it.
WATCHDOG_S = 300

#: A copy of the terminal's stderr. pytest captures fd 2 while a test runs,
#: and that capture is lost when the watchdog ends the process.
_watchdog_fd = 2


def pytest_configure(config):
    global _watchdog_fd
    _watchdog_fd = os.dup(2)


@pytest.fixture(autouse=True)
def watchdog():
    """Turn a hung test into a traceback and a failed run, not a stall."""
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=_watchdog_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


def _sample_inputs() -> dict:
    rng = random.Random(1234)
    text = (
        b"the quick brown fox jumps over the lazy dog; "
        b"pack my box with five dozen liquor jugs. " * 120
    )
    return {
        "empty": b"",
        "one": b"x",
        "tiny": b"abc",
        "repeat": b"ab" * 4000,
        "zeros": b"\x00" * 4096,
        "text": text,
        "random": bytes(rng.getrandbits(8) for _ in range(6000)),
        "low_entropy": bytes(rng.choice(b"abcd") for _ in range(5000)),
        "mixed": text[:2000] + bytes(rng.getrandbits(8) for _ in range(2000)) + text[:2000],
    }


@pytest.fixture(scope="session")
def sample_inputs() -> dict:
    """Named byte buffers spanning the compressibility spectrum."""
    return _sample_inputs()


@pytest.fixture(scope="session")
def fleet_profile():
    """A mid-sized fleet sample shared by the §3 analysis tests."""
    return generate_fleet_profile(seed=1, num_calls=120_000)


@pytest.fixture(scope="session")
def bench():
    """The default scaled HyperCompressBench (disk-cached)."""
    return default_benchmark()


@pytest.fixture(scope="session")
def dse_runner(bench):
    """One DSE runner shared by all experiment tests (memoizes workloads)."""
    return DseRunner(bench)


@pytest.fixture(scope="session")
def figures(dse_runner):
    """All five figure sweeps, computed once."""
    from repro.dse.experiments import all_figures

    return all_figures(dse_runner)


class MatchCalls(list):
    """Input lengths of the matcher calls, in order; ``windows`` holds each
    call's window set, in the same order."""

    def __init__(self) -> None:
        super().__init__()
        self.windows = []

    def record(self, data, windows) -> None:
        self.append(len(data))
        self.windows.append(tuple(sorted(set(windows))))

    def clear(self) -> None:
        super().clear()
        self.windows.clear()


@pytest.fixture
def match_calls(monkeypatch):
    """Every ``Lz77Encoder.encode_with_stats`` and ``encode_windows`` call
    (see :class:`MatchCalls`)."""
    from repro.algorithms.lz77 import Lz77Encoder

    calls = MatchCalls()
    with_stats = Lz77Encoder.encode_with_stats
    windows = Lz77Encoder.encode_windows

    def counting_with_stats(self, data):
        calls.record(data, [self.params.window_size])
        return with_stats(self, data)

    def counting_windows(self, data, sizes):
        sizes = list(sizes)
        calls.record(data, sizes)
        return windows(self, data, sizes)

    monkeypatch.setattr(Lz77Encoder, "encode_with_stats", counting_with_stats)
    monkeypatch.setattr(Lz77Encoder, "encode_windows", counting_windows)
    return calls
