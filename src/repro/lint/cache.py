"""Content-hash cache for whole-project lint runs.

A lint run is a pure function of (analyzer code, rule set, file contents):
every rule reads the parsed modules plus the few files it declares through
:meth:`~repro.lint.registry.Rule.reads` (R005's codec modules and
round-trip tests), and the baseline/suppression handling happens downstream
of the cached result. That makes the whole run memoizable with one key:

    sha256({schema, ruleset: analyzer_digest(), rule codes,
            [(rel path, sha256(file bytes))...]})

over the linted files, where :func:`analyzer_digest` hashes the source of
the ``repro.lint`` package itself. The entry also records the digest of
every file the rules declared they read; a lookup whose recorded reads no
longer match the disk is a miss. The reads are a function of the linted
files, so recording them keeps a warm ``repro lint src`` — the common case
in a commit loop — down to reading and hashing files: it parses nothing,
builds no CFG, solves no taint and runs no rule, and just replays the
stored findings. Any edited, added or removed file, any edit to a declared
read, and any edit to the analyzer's own source misses.

The analyzer imports nothing else from ``repro`` that can change a finding
(only ``common.errors``, ``common.parallel``, ``common.store`` and
``obs``), so edits elsewhere in the library keep hitting.

Entries are JSON files under ``results/.lint-cache/`` in a
:class:`repro.common.store.Store`, which owns the on-disk contract.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.common.store import Store, digest, source_digest

#: Bump to evict every entry written with an older cache layout. Version 3:
#: every entry records the digests of the files its rules read.
CACHE_SCHEMA_VERSION = 3

#: Default store location relative to the project root.
DEFAULT_CACHE_DIR = Path("results") / ".lint-cache"

#: The analyzer: every module whose code can change a finding.
ANALYZER_DIR = Path(__file__).resolve().parent


def analyzer_digest() -> str:
    """Digest of the analyzer source this process runs (see
    :func:`~repro.common.store.source_digest`)."""
    return source_digest(ANALYZER_DIR)


def file_digest(path: Path) -> str:
    """SHA-256 of the file's bytes; ``<missing>`` when it cannot be read."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "<missing>"


class LintCache:
    """Keyed store of complete lint results under one directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.store = Store(root, schema=CACHE_SCHEMA_VERSION, suffix=".json")

    def key(
        self, analyzer: str, rule_codes: Sequence[str], files: Sequence[Tuple[str, str]]
    ) -> str:
        """Cache key for one run: the analyzer's digest, the rule selection
        and every linted file's digest."""
        return digest(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "ruleset": analyzer,
                "rules": sorted(rule_codes),
                "files": sorted(files),
            }
        )

    def get(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``, or ``None`` (corrupt = miss)."""
        return self.store.get(key, json.loads, dict)

    def put(self, key: str, payload: dict) -> None:
        """Atomically store ``payload`` under ``key`` (best-effort)."""
        self.store.put(key, json.dumps(payload, separators=(",", ":")).encode("utf-8"))
