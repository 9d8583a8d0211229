"""Content-hash cache for whole-project lint runs.

A lint run is a pure function of (rule set, file contents): every rule
reads the parsed modules plus the few files it declares through
:meth:`~repro.lint.registry.Rule.reads` (R005's codec modules and
round-trip tests), and the baseline/suppression handling happens downstream
of the cached result. That makes the whole run memoizable with one key:

    sha256({schema, ruleset version, rule codes, [(rel path, sha256(source))...]})

where the file list covers the linted files and the declared reads (a
missing read keys as ``<missing>``). A warm ``repro lint src`` — the common
case in a commit loop — skips parsing, CFG construction, the taint solves,
and every rule, and just replays the stored findings. Any edited file,
added file, removed file, or rule-logic change (via
:data:`~repro.lint.registry.RULESET_VERSION`) changes the key and misses.

Entries are JSON files under ``results/.lint-cache/`` in a
:class:`repro.common.store.Store`, which owns the on-disk contract.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.common.store import Store, digest

#: Bump to evict every entry written with an older cache layout.
CACHE_SCHEMA_VERSION = 2

#: Default store location relative to the project root.
DEFAULT_CACHE_DIR = Path("results") / ".lint-cache"


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class LintCache:
    """Keyed store of complete lint results under one directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.store = Store(root, schema=CACHE_SCHEMA_VERSION, suffix=".json")

    def key(
        self, ruleset_version: int, rule_codes: Sequence[str], files: Sequence[Tuple[str, str]]
    ) -> str:
        """Cache key for one run: rule identity plus every file's digest."""
        return digest(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "ruleset": ruleset_version,
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
