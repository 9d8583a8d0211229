"""A deliberately nondeterministic worker, shared by two tests.

The classic unsorted-``glob`` bug, with the entries routed through a ``set``
so the emitted order also depends on ``PYTHONHASHSEED``. It is kept as a
source string rather than an importable module so ``repro lint --strict
src`` stays clean. R012 must catch it statically
(``tests/lint/test_concurrency_rules.py``) and the hash-seed parity test
must see its output differ at run time
(``tests/integration/test_hashseed_parity.py``).
"""

from pathlib import Path

#: ``glob.glob`` enumerates in OS order (R012 hazard one); the ``set``
#: detour makes the final order hash-seed dependent (hazard two).
PLANTED_WORKER_SOURCE = """\
import glob
import sys

def emit_manifest(root):
    names = {path.rsplit("/", 1)[-1] for path in glob.glob(root + "/*.bin")}
    for name in names:
        sys.stdout.write(name + "\\n")

if __name__ == "__main__":
    emit_manifest(sys.argv[1])
"""

#: Enough entries that two hash seeds agreeing on the order is negligible.
_PLANTED_FILES = 16


def plant(workdir: Path) -> list:
    """Write the worker and its input shards; return its command line."""
    script = workdir / "planted_worker.py"
    script.write_text(PLANTED_WORKER_SOURCE, encoding="utf-8")
    data = workdir / "data"
    data.mkdir()
    for i in range(_PLANTED_FILES):
        (data / f"shard-{i:02d}.bin").write_bytes(b"\x00")
    return [str(script), str(data)]
