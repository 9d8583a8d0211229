"""One keyed directory store under every on-disk memo in the repo.

The DSE, lint and HyperCompressBench caches each memoize a pure function of
some key material: the caller hashes it with :func:`digest` and keeps one
file of opaque bytes per key, ``<key><suffix>``, in one directory, encoded
and decoded with its own codec. The store owns the on-disk contract:

* a ``SCHEMA`` marker holds the caller's layout version; the first open
  under another version evicts every entry;
* entries and the marker are written to a temp file and moved into place
  with ``os.replace``, so a concurrent reader never sees a torn file;
* an entry that fails to decode is deleted and read as a miss;
* a directory that cannot be created or written makes every :meth:`get` a
  miss and every :meth:`put` a no-op: a cache never fails the run.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Optional, Type, TypeVar, Union

T = TypeVar("T")

SCHEMA_FILENAME = "SCHEMA"


def _jsonable(value: Any) -> Any:
    """Convert key material into a canonical JSON-serializable form."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        converted = {}
        for key, val in value.items():
            if isinstance(key, tuple):
                name = "/".join(str(_jsonable(k)) for k in key)
            elif isinstance(key, enum.Enum):
                name = str(key.value)
            else:
                name = str(key)
            converted[name] = _jsonable(val)
        return converted
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for cache key")


def digest(material: Any) -> str:
    """SHA-256 of the canonical JSON form of ``material`` (a store key)."""
    payload = json.dumps(_jsonable(material), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def source_digest(package: Path) -> str:
    """SHA-256 over every ``*.py`` file under the directory ``package``: each
    file's path relative to it and its bytes, in sorted path order.

    A memo whose entries are computed by the code in ``package`` keys on
    this, so editing that code misses every entry it wrote. The digest is
    taken once per process and path, after the package is imported, so it
    describes the code the process runs even if the files change later.
    """
    hasher = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        hasher.update(path.relative_to(package).as_posix().encode("utf-8") + b"\0")
        hasher.update(hashlib.sha256(path.read_bytes()).digest())
    return hasher.hexdigest()


class Store:
    """Keyed byte entries in one directory, versioned by a schema marker.

    ``on_evict`` is called once for every entry this store deletes, stale
    or corrupt, so a caller can count evictions.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        schema: int,
        suffix: str,
        on_evict: Optional[Callable[[], None]] = None,
    ) -> None:
        self.root = Path(root)
        self.schema = schema
        self.suffix = suffix
        self._on_evict = on_evict
        self._usable: Optional[bool] = None  # None until the first access

    def path(self, key: str) -> Path:
        """Where the entry for ``key`` lives."""
        return self.root / f"{key}{self.suffix}"

    def get(self, key: str, decode: Callable[[bytes], Any], kind: Type[T]) -> Optional[T]:
        """The entry for ``key`` decoded into a ``kind``, or ``None`` on a miss.

        An entry that fails to decode, or decodes to anything but a ``kind``,
        is corrupt: it is deleted and read as a miss.
        """
        if not self._open():
            return None
        path = self.path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            value = decode(data)
        except Exception:  # repro: noqa[R002] - any decode failure means a corrupt entry; it is evicted and recomputed, never returned
            value = None
        if isinstance(value, kind):
            return value
        self._evict(path)
        return None

    def put(self, key: str, data: bytes) -> bool:
        """Store ``data`` under ``key`` atomically; whether it was written."""
        return self._open() and self._write(self.path(key), data)

    def _open(self) -> bool:
        """Create the directory and evict entries of another schema, once."""
        if self._usable is None:
            self._usable = self._prepare()
        return self._usable

    def _prepare(self) -> bool:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        marker = self.root / SCHEMA_FILENAME
        current = str(self.schema)
        try:
            if marker.read_text(encoding="utf-8").strip() == current:
                return True
        except (OSError, ValueError):
            pass  # no readable marker: every entry has an unknown layout
        for entry in sorted(self.root.glob(f"*{self.suffix}")):
            self._evict(entry)
        return self._write(marker, f"{current}\n".encode("utf-8"))

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            return  # a concurrent reader evicted it first
        if self._on_evict is not None:
            self._on_evict()

    @staticmethod
    def _write(path: Path, data: bytes) -> bool:
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass  # the temp file never materialized
            return False
        return True
