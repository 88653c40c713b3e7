"""Disk-backed, content-addressed store for session results.

Layout (sharded on the first two key hex digits so no directory grows
unbounded)::

    <root>/
      objects/<k[:2]>/<key>.npz    # columnar payload (repro.store.codec)
      objects/<k[:2]>/<key>.json   # sidecar: sha256, size, fn, label, ...
      quarantine/                  # corrupted entries, moved aside

Every write is atomic (temp file in the destination directory +
``os.replace``), payload before sidecar, so concurrent ``--jobs N``
workers and parallel pytest runs never observe a torn entry: a sidecar
implies a complete payload.  Reads verify the sidecar's SHA-256 against
the payload bytes; any mismatch, unreadable sidecar, or decode failure
*quarantines* the entry and reports a miss — corruption is always
recompute-and-heal, never an error.

The sidecar's mtime doubles as the LRU clock: hits touch it, and
:meth:`TraceStore.evict` removes oldest-accessed entries until the
store fits a byte budget (applied automatically after every ``put``
when the store was created with ``max_bytes``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterator

from repro.store import codec
from repro.store.keys import (
    STORE_SCHEMA_VERSION,
    UnfingerprintableTask,
    task_fingerprint,
)

__all__ = ["StoreStats", "TraceStore"]

#: Environment variables the CLI and :meth:`TraceStore.from_env` honor.
CACHE_DIR_ENV = "REPRO_CACHE"
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"


def _check_max_bytes(max_bytes: int) -> None:
    if max_bytes < 0:
        raise ValueError("max_bytes must be non-negative")


@dataclass(frozen=True)
class StoreStats:
    """Aggregate state of a store (plus this process's hit/miss tally)."""

    root: str
    entries: int
    total_bytes: int
    quarantined: int
    hits: int
    misses: int
    bytes_read: int = 0
    bytes_written: int = 0

    def render(self) -> str:
        return (f"store {self.root}: {self.entries} entries, "
                f"{self.total_bytes / 1e6:.2f} MB, "
                f"{self.quarantined} quarantined; "
                f"session hits={self.hits} misses={self.misses} "
                f"read={self.bytes_read / 1e6:.2f}MB "
                f"written={self.bytes_written / 1e6:.2f}MB")

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable counters — one serializer for ``repro cache
        stats --json`` and CI gates, so the two can never drift apart."""
        return {
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "quarantined": self.quarantined,
            "hits": self.hits,
            "misses": self.misses,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


class TraceStore:
    """Content-addressed cache of simulated session results."""

    def __init__(self, root: str | Path, max_bytes: int | None = None) -> None:
        if max_bytes is not None:
            _check_max_bytes(max_bytes)
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.salt = STORE_SCHEMA_VERSION * 1000 + codec.CODEC_VERSION
        self.hits = 0
        self.misses = 0
        #: Payload bytes this process moved through the store.  Reads
        #: count hits; writes count local puts plus worker writes
        #: reported via :meth:`note_routed_write`.
        self.bytes_read = 0
        self.bytes_written = 0
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        (self.root / "quarantine").mkdir(parents=True, exist_ok=True)

    @classmethod
    def from_env(cls, root: str | Path | None = None) -> "TraceStore | None":
        """Store from ``root`` or ``$REPRO_CACHE``; ``None`` if neither set.

        ``$REPRO_CACHE_MAX_MB`` supplies the LRU size cap.
        """
        root = root or os.environ.get(CACHE_DIR_ENV) or None
        if root is None:
            return None
        max_mb = os.environ.get(CACHE_MAX_MB_ENV)
        if not max_mb:
            return cls(root)
        try:
            max_bytes = int(float(max_mb) * 1e6)
            _check_max_bytes(max_bytes)
        except (ValueError, OverflowError):
            raise ValueError(f"${CACHE_MAX_MB_ENV} must be a non-negative "
                             f"number of MB, got {max_mb!r}") from None
        return cls(root, max_bytes=max_bytes)

    # ------------------------------------------------------------------ #
    # Keys and paths
    # ------------------------------------------------------------------ #
    def task_key(self, task: Any) -> str | None:
        """Fingerprint of a session task, or ``None`` if uncacheable."""
        try:
            return task_fingerprint(task, salt=self.salt)
        except UnfingerprintableTask:
            return None

    def _paths(self, key: str) -> tuple[Path, Path]:
        shard = self.root / "objects" / key[:2]
        return shard / f"{key}.npz", shard / f"{key}.json"

    def _sidecars(self) -> Iterator[Path]:
        yield from sorted((self.root / "objects").glob("*/*.json"))

    # ------------------------------------------------------------------ #
    # Get / put
    # ------------------------------------------------------------------ #
    def _load(self, key: str) -> Any:
        """Verified decode of ``key``; raises ``KeyError`` without
        touching the hit/miss counters (:meth:`get` counts on top).

        A corrupted entry (hash mismatch, unreadable sidecar, decode
        failure) is quarantined so it is recomputed, not re-read.
        """
        payload_path, sidecar_path = self._paths(key)
        try:
            sidecar = json.loads(sidecar_path.read_text())
            data = payload_path.read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            self._quarantine(key)
            raise KeyError(key) from None
        if sha256(data).hexdigest() != sidecar.get("sha256"):
            self._quarantine(key)
            raise KeyError(key) from None
        try:
            value = codec.decode(data)
        except Exception:
            self._quarantine(key)
            raise KeyError(key) from None
        try:
            os.utime(sidecar_path)  # LRU clock
        except OSError:
            pass  # concurrently evicted; the value is still good
        self.bytes_read += len(data)
        return value

    def get(self, key: str) -> Any:
        """Decoded result for ``key``; raises ``KeyError`` on a miss.

        A corrupted entry (hash mismatch, unreadable sidecar, decode
        failure) is quarantined and reported as a miss.
        """
        try:
            value = self._load(key)
        except KeyError:
            self.misses += 1
            raise
        self.hits += 1
        return value

    def probe(self, key: str) -> bool:
        """Cheap existence probe (sidecar stat, no verification) that
        opens one lookup: an absent key counts as a miss here, a present
        one counts when :meth:`get` reads it (a hit, or a miss if it
        fails verification).

        A ``True`` here is advisory — the entry can still fail its hash
        check or vanish under concurrent eviction by the time it is
        read; callers must keep a recompute fallback.
        """
        if self._paths(key)[1].exists():
            return True
        self.misses += 1
        return False

    def read(self, key: str) -> Any:
        """Retired: the runner no longer reads worker-written results
        back, so nothing reads outside the hit/miss tally.  The name
        stays only because ``benchmarks/e2e/spans.py`` wraps it by name;
        remove it together with that entry.  Use :meth:`get`.
        """
        raise RuntimeError("TraceStore.read was retired; use get()")

    def note_routed_write(self, n_bytes: int) -> None:
        """Account payload bytes a worker process wrote on our behalf."""
        self.bytes_written += int(n_bytes)

    def put(self, key: str, value: Any, *, task: Any = None, label: str = "") -> bool:
        """Store a session result; returns ``False`` for uncacheable values."""
        data = codec.encode(value)
        if data is None:
            return False
        payload_path, sidecar_path = self._paths(key)
        payload_path.parent.mkdir(parents=True, exist_ok=True)
        sidecar = {
            "key": key,
            "sha256": sha256(data).hexdigest(),
            "size": len(data),
            "salt": self.salt,
            "created": time.time(),
            "label": label or getattr(task, "label", ""),
        }
        if task is not None:
            sidecar["fn"] = f"{task.fn.__module__}:{task.fn.__qualname__}"
            sidecar["seed"] = task.seed
        self._atomic_write(payload_path, data)
        self._atomic_write(sidecar_path, json.dumps(sidecar, sort_keys=True).encode())
        self.bytes_written += len(data)
        if self.max_bytes is not None:
            self.evict(self.max_bytes)
        return True

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.parent / f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def _quarantine(self, key: str) -> None:
        """Move a corrupted entry aside so it is recomputed, not re-read."""
        for path in self._paths(key):
            try:
                os.replace(path, self.root / "quarantine" / path.name)
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def stats(self) -> StoreStats:
        entries = 0
        total = 0
        for sidecar_path in self._sidecars():
            payload_path = sidecar_path.with_suffix(".npz")
            try:
                total += sidecar_path.stat().st_size + payload_path.stat().st_size
            except FileNotFoundError:
                continue
            entries += 1
        quarantined = sum(1 for p in (self.root / "quarantine").glob("*.npz"))
        return StoreStats(root=str(self.root), entries=entries, total_bytes=total,
                          quarantined=quarantined, hits=self.hits, misses=self.misses,
                          bytes_read=self.bytes_read, bytes_written=self.bytes_written)

    def verify(self) -> tuple[int, list[str]]:
        """Re-hash every entry; quarantine mismatches.

        Returns ``(entries_ok, quarantined_keys)``.
        """
        ok = 0
        bad: list[str] = []
        for sidecar_path in list(self._sidecars()):
            key = sidecar_path.stem
            payload_path = sidecar_path.with_suffix(".npz")
            try:
                sidecar = json.loads(sidecar_path.read_text())
                data = payload_path.read_bytes()
                intact = sha256(data).hexdigest() == sidecar.get("sha256")
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                intact = False
            if intact:
                ok += 1
            else:
                self._quarantine(key)
                bad.append(key)
        return ok, bad

    def clear(self) -> int:
        """Remove every entry (and the quarantine); returns entries removed."""
        removed = 0
        for sidecar_path in list(self._sidecars()):
            payload_path = sidecar_path.with_suffix(".npz")
            for path in (payload_path, sidecar_path):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            removed += 1
        for path in (self.root / "quarantine").iterdir():
            try:
                path.unlink()
            except (FileNotFoundError, IsADirectoryError):
                pass
        return removed

    def evict(self, max_bytes: int) -> list[str]:
        """LRU-evict entries until the store fits ``max_bytes``.

        Least-recently-*accessed* first (the sidecar mtime, touched on
        every hit).  Returns the evicted keys.  A negative budget is a
        ``ValueError``, as in :meth:`__init__`, not "evict everything".
        """
        _check_max_bytes(max_bytes)
        entries = []
        total = 0
        for sidecar_path in self._sidecars():
            payload_path = sidecar_path.with_suffix(".npz")
            try:
                stat = sidecar_path.stat()
                size = stat.st_size + payload_path.stat().st_size
            except FileNotFoundError:
                continue
            entries.append((stat.st_mtime, sidecar_path.stem, size))
            total += size
        evicted: list[str] = []
        for _, key, size in sorted(entries):
            if total <= max_bytes:
                break
            payload_path, sidecar_path = self._paths(key)
            for path in (payload_path, sidecar_path):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            total -= size
            evicted.append(key)
        return evicted
