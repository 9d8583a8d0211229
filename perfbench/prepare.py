"""One-time build of the benchmark's inputs inside a checkout.

Everything a timed run reads is built here, once per source tree, before any
run is timed, so a run's ``setup_s`` never depends on what an earlier run
left behind:

* bytecode for ``src`` and ``perfbench`` (``compileall``), so every run
  imports from warm ``.pyc`` files;
* the HyperCompressBench instance (seed 0, 48 files per suite) with every
  file's software-compressed form precomputed, pickled to ``hcbench.pkl``;
* the pinned lint snapshot, extracted from ``data/lint_snapshot.tar.gz``,
  with each file's syntax-tree node count.

The build directory is keyed by a digest of the program and benchmark
sources, so a changed tree never reuses a stale build. It lives under
``.perfbench/`` at the checkout root, which ``.gitignore`` names.
"""

from __future__ import annotations

import ast
import compileall
import fcntl
import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
STATE_DIRNAME = ".perfbench"
SNAPSHOT_ARCHIVE = BENCH_DIR / "data" / "lint_snapshot.tar.gz"
#: Per-file syntax-tree node counts of the snapshot, in the build directory.
SNAPSHOT_NODES = "lint_nodes.json"

#: The HyperCompressBench instance every workload samples from.
HCBENCH_SEED = 0
HCBENCH_FILES_PER_SUITE = 48

#: Upper bound on the one-time build (HCBench generation dominates).
BUILD_TIMEOUT_SECONDS = 800


def checkout_root() -> Path:
    return BENCH_DIR.parent


def _source_digest(root: Path) -> str:
    """Digest of everything the build output depends on."""
    sha = hashlib.sha256()
    sources = sorted((root / "src").rglob("*.py"))
    for path in sources + [Path(__file__).resolve(), SNAPSHOT_ARCHIVE]:
        sha.update(path.relative_to(root).as_posix().encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def build_dir(root: Path) -> Path:
    return root / STATE_DIRNAME / f"build-{_source_digest(root)}"


def child_env(root: Path, build: Path) -> dict:
    """The pinned environment every benchmark child process runs under.

    Drops every inherited ``REPRO_*`` and ``PYTHON*`` variable (``REPRO_JOBS``
    among them), pins the hash seed, and points every cache the program
    knows at the build directory, never at ``results/`` or ``~/.cache``.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env.update(
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(BENCH_DIR)]),
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(build / "cache"),
        REPRO_DSE_CACHE_DIR=str(build / "dse-cache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def ensure_built(root: Path) -> Path:
    """Build the inputs for this source tree if needed; return the build dir."""
    build = build_dir(root)
    done = build / "DONE"
    if done.exists():
        return build
    state = root / STATE_DIRNAME
    state.mkdir(exist_ok=True)
    with open(state / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if done.exists():
            return build
        for stale in sorted(state.glob("build-*")):
            shutil.rmtree(stale, ignore_errors=True)
        build.mkdir(parents=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(root), str(build)],
            env=child_env(root, build),
            cwd=root,
            check=True,
            timeout=BUILD_TIMEOUT_SECONDS,
            stdout=subprocess.DEVNULL,
        )
        done.write_text("ok\n")
    return build


def _build_hcbench(path: Path) -> None:
    from repro.hcbench.generator import GeneratorConfig
    from repro.hcbench.suite import generate_hypercompressbench

    bench = generate_hypercompressbench(
        GeneratorConfig(seed=HCBENCH_SEED, files_per_suite=HCBENCH_FILES_PER_SUITE)
    )
    for key in sorted(bench.suites, key=lambda k: (k[0], k[1].value)):
        suite = bench.suites[key]
        for file in suite.files:
            suite.compressed_form(file)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(bench, handle)
    os.replace(tmp, path)


def _extract_snapshot(dest: Path) -> None:
    with tarfile.open(SNAPSHOT_ARCHIVE, "r:gz") as tar:
        for member in tar.getmembers():
            parts = member.name.split("/")
            if not member.isfile() or member.name.startswith("/") or ".." in parts:
                raise ValueError(f"unexpected snapshot member {member.name!r}")
        tar.extractall(dest)


def _count_snapshot_nodes(snapshot: Path) -> None:
    """Syntax-tree node count of every snapshot ``src`` file, the size by
    which lint-src draws its subsets (it follows lint time more closely
    than bytes do)."""
    counts = {
        path.relative_to(snapshot).as_posix(): sum(1 for _ in ast.walk(ast.parse(path.read_bytes())))
        for path in sorted((snapshot / "src").rglob("*.py"))
    }
    (snapshot.parent / SNAPSHOT_NODES).write_text(json.dumps(counts, indent=0, sort_keys=True))


def _build(root: Path, build: Path) -> None:
    for tree in (root / "src", BENCH_DIR):
        compileall.compile_dir(str(tree), quiet=1)
    _build_hcbench(build / "hcbench.pkl")
    _extract_snapshot(build / "lint_snapshot")
    _count_snapshot_nodes(build / "lint_snapshot")


if __name__ == "__main__":
    _build(Path(sys.argv[1]), Path(sys.argv[2]))
