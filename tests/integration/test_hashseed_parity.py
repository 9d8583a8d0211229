"""Hash-seed and worker-count parity of the commands the repo ships.

Every artifact the repo publishes must come out byte for byte the same in
any environment. Tier-1 checks the worker-count axis in process
(``jobs=1 == jobs=4``), but hash randomization is fixed at interpreter
start, so ``PYTHONHASHSEED`` can only be varied in a fresh process. Each
command below therefore runs twice in a subprocess, once under
``PYTHONHASHSEED=0, REPRO_JOBS=1`` and once under
``PYTHONHASHSEED=1, REPRO_JOBS=2``, and must give the same exit status and
the same output.

JSON output is compared parsed, after dropping the fields that measure wall
time or echo the worker count, and nothing else. Any other difference is a
determinism bug. A planted unsorted-glob worker checks that the comparison
still sees a difference when there is one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional, Tuple

import pytest

from tests.planted_worker import plant

ROOT = Path(__file__).resolve().parents[2]

VARIANTS = (
    {"PYTHONHASHSEED": "0", "REPRO_JOBS": "1"},
    {"PYTHONHASHSEED": "1", "REPRO_JOBS": "2"},
)

#: The wall-clock moments of an obs ``*.seconds`` histogram; its count stays.
_TIMING_FIELDS = ("buckets", "min", "mean", "max", "total")


def _stream_payload() -> bytes:
    """A ~96 KiB mixed payload (text runs and an LCG byte walk).

    Built from arithmetic only, so the bytes are the same on every
    interpreter and hash seed.
    """
    text = b"the fleet compresses what the fleet decompresses. " * 640
    state = 0x2545F4914F6CDD1D
    noise = bytearray()
    for _ in range(64 * 1024):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        noise.append((state >> 33) & 0xFF)
    return text + bytes(noise)


#: ``python -m repro`` arguments and stdin of each command under test.
TARGETS = {
    # A Figure 11 sweep on a reduced benchmark: the parallel point path.
    "dse": (("dse", "fig11", "--no-cache", "--files-per-suite", "2"), b""),
    # The whole analyzer over src: the flow pool path.
    "lint": (("lint", "--format", "json", "--no-cache", "src"), b""),
    "stream": (
        ("stream", "compress", "--codec", "snappy", "--chunk-size", "4096"),
        _stream_payload(),
    ),
    "stats": (("stats", "--workload", "roundtrip", "--format", "json"), b""),
    # A service burst that cannot shed, over a monolithic codec and a graph
    # preset, so both frame families' decode paths run.
    "serve": (
        (
            "serve", "--calls", "32", "--codecs", "snappy,graph-delta-fse",
            "--max-payload", "1024", "--time-scale", "0",
            "--queue-depth", "100000", "--format", "json",
        ),
        b"",
    ),
}

Artifact = Tuple[int, object, bytes]


def _artifact(proc: subprocess.CompletedProcess) -> Artifact:
    """Exit status, stdout (timing-free when JSON) and stderr.

    JSON is re-serialized in its parsed key order, so an object whose keys
    come out in hash order still differs.
    """
    try:
        out = json.loads(proc.stdout)
    except ValueError:
        return proc.returncode, proc.stdout, proc.stderr
    if isinstance(out, dict):
        for name, hist in out.get("histograms", {}).items():
            if name.endswith(".seconds"):
                for field in _TIMING_FIELDS:
                    hist.pop(field, None)
        out.pop("measured", None)
        out.get("config", {}).pop("workers", None)
    return proc.returncode, json.dumps(out), proc.stderr


def _run_variants(argv, stdin: bytes = b"") -> Tuple[Artifact, Artifact]:
    """Run ``python argv`` once under each variant, from the repo root."""
    artifacts = []
    for variant in VARIANTS:
        env = dict(os.environ, **variant)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
        )
        proc = subprocess.run(
            [sys.executable, *argv],
            input=stdin,
            capture_output=True,
            env=env,
            cwd=ROOT,
            timeout=600,
        )
        artifacts.append(_artifact(proc))
    return artifacts[0], artifacts[1]


def _difference(a: Artifact, b: Artifact) -> Optional[str]:
    """Name the first part of two artifacts that differs, or ``None``."""
    for part, x, y in zip(("exit status", "stdout", "stderr"), a, b):
        if x != y:
            return f"{part} differs between {VARIANTS[0]} and {VARIANTS[1]}"
    return None


@pytest.mark.parametrize("name", list(TARGETS))
def test_same_output_across_hashseed_and_jobs(name):
    argv, stdin = TARGETS[name]
    a, b = _run_variants(("-m", "repro", *argv), stdin)
    assert a[0] == 0, a[2].decode(errors="replace")
    assert _difference(a, b) is None


@pytest.fixture(scope="module")
def planted(tmp_path_factory) -> Tuple[Artifact, Artifact]:
    """The planted worker's artifacts under both variants, run once."""
    return _run_variants(plant(tmp_path_factory.mktemp("planted")))


def test_planted_worker_differs(planted):
    a, b = planted
    assert a[0] == 0, a[2].decode(errors="replace")
    assert _difference(a, b) is not None


def test_planted_worker_difference_is_named(planted):
    # The worker exits cleanly both times; only its emitted order moves, so
    # the report must name stdout rather than stop at the exit status.
    a, b = planted
    assert _difference(a, b) == (
        f"stdout differs between {VARIANTS[0]} and {VARIANTS[1]}"
    )
