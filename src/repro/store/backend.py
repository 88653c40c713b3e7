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

:meth:`TraceStore.read_ahead` reads a run's upcoming hits on two reader
threads (file read, SHA-256 and decode release the GIL), a bounded
window ahead of :meth:`TraceStore.get`, which takes each prefetched
result in the calling thread and keeps every count there; hits too
small to gain from the threads are read by ``get`` itself.

The sidecar's mtime doubles as the LRU clock: hits touch it, and
:meth:`TraceStore.evict` removes oldest-accessed entries until the
store fits a byte budget (applied automatically after every ``put``
when the store was created with ``max_bytes``).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterable, Iterator

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

#: :meth:`TraceStore.read_ahead`'s window: at most this many upcoming
#: hits in flight, holding at most this many payload bytes (by their
#: sidecars' ``size``; a lone larger entry is still read ahead), read by
#: this many threads.
READ_AHEAD_DEPTH = 4
READ_AHEAD_BYTES = 32 * 2**20
READ_AHEAD_THREADS = 2

#: Entries smaller than this are read by :meth:`TraceStore.get` in the
#: calling thread, not ahead: handing a hit to a reader thread and back
#: costs about 0.15 ms, more than the threads overlap on a payload this
#: small (a 3 s, 0.35 MB session read 8.5 ms per 12 hits ahead against
#: 6.7 ms serially on a 2-core host; 5 s, 0.59 MB sessions broke even
#: and 10 s, 1.2 MB sessions gained 25-30%).
READ_AHEAD_MIN_BYTES = 2**19


def _check_max_bytes(max_bytes: int) -> None:
    if max_bytes < 0:
        raise ValueError("max_bytes must be non-negative")


@dataclass(frozen=True)
class StoreStats:
    """Aggregate state of a store (plus this process's tally).

    ``quarantined`` counts the entries in the quarantine directory;
    ``quarantines`` the entries this process moved there.
    """

    root: str
    entries: int
    total_bytes: int
    quarantined: int
    hits: int
    misses: int
    bytes_read: int = 0
    bytes_written: int = 0
    quarantines: int = 0

    def render(self) -> str:
        return (f"store {self.root}: {self.entries} entries, "
                f"{self.total_bytes / 1e6:.2f} MB, "
                f"{self.quarantined} quarantined; "
                f"session hits={self.hits} misses={self.misses} "
                f"quarantined={self.quarantines} "
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
            "quarantines": self.quarantines,
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
        #: Entries this process moved to the quarantine.
        self.quarantines = 0
        self._ahead: _ReadAhead | None = None
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
    def task_key(self, task: Any, memo: dict | None = None) -> str | None:
        """Fingerprint of a session task, or ``None`` if uncacheable
        (``memo``: see :func:`~repro.store.keys.task_fingerprint`)."""
        try:
            return task_fingerprint(task, salt=self.salt, memo=memo)
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
    def _sidecar(self, key: str) -> dict:
        sidecar = json.loads(self._paths(key)[1].read_text())
        if not isinstance(sidecar, dict):
            raise ValueError(f"sidecar of {key} is not an object")
        return sidecar

    def _fetch(self, key: str, sidecar: dict | None = None) -> tuple[Any, int]:
        """``(value, payload bytes)`` of a verified read and decode of
        ``key``.  Touches no counter and moves no file, so reader
        threads may run it: raises ``KeyError`` for an absent entry and
        :class:`_Corrupt` for one to quarantine.
        """
        try:
            if sidecar is None:
                sidecar = self._sidecar(key)
            data = self._paths(key)[0].read_bytes()
        except FileNotFoundError:
            raise KeyError(key) from None
        except (ValueError, OSError):  # bad JSON or UTF-8, unreadable file
            raise _Corrupt(key) from None
        if sha256(data).hexdigest() != sidecar.get("sha256"):
            raise _Corrupt(key)
        try:
            return codec.decode(data), len(data)
        except Exception:
            raise _Corrupt(key) from None

    def _load(self, key: str, fetched: Future | _Inline | None = None) -> Any:
        """Verified decode of ``key`` (or the read-ahead's ``fetched``
        result for it); raises ``KeyError`` without touching the
        hit/miss counters (:meth:`get` counts on top).

        A corrupted entry (hash mismatch, unreadable sidecar, decode
        failure) is quarantined so it is recomputed, not re-read.
        """
        try:
            value, n_bytes = fetched.result() if fetched is not None else self._fetch(key)
        except _Corrupt:
            self._quarantine(key)
            raise KeyError(key) from None
        try:
            os.utime(self._paths(key)[1])  # LRU clock
        except OSError:
            pass  # concurrently evicted; the value is still good
        self.bytes_read += n_bytes
        return value

    def get(self, key: str) -> Any:
        """Decoded result for ``key``; raises ``KeyError`` on a miss.

        A corrupted entry (hash mismatch, unreadable sidecar, decode
        failure) is quarantined and reported as a miss.  Inside
        :meth:`read_ahead`, the next key of its window is taken from
        the reader threads; every count stays in the calling thread.
        """
        fetched = self._ahead.take(key) if self._ahead is not None else None
        try:
            value = self._load(key, fetched)
        except KeyError:
            self.misses += 1
            raise
        self.hits += 1
        return value

    @contextmanager
    def read_ahead(self, keys: Iterable[str]) -> Iterator[None]:
        """Read the entries ``keys`` ahead of the :meth:`get` calls that
        will ask for them, in that order, on :data:`READ_AHEAD_THREADS`
        threads within a :data:`READ_AHEAD_DEPTH` / :data:`READ_AHEAD_BYTES`
        window; entries below :data:`READ_AHEAD_MIN_BYTES` are left to
        ``get``.  A ``get`` out of that order reads synchronously.  The
        threads are joined on exit, whether the body returns or raises.
        """
        ahead = _ReadAhead(self, keys)
        self._ahead = ahead
        try:
            yield
        finally:
            self._ahead = None
            ahead.close()

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
        """Move a corrupted entry aside so it is recomputed, not re-read,
        and count it."""
        moved = False
        for path in self._paths(key):
            try:
                os.replace(path, self.root / "quarantine" / path.name)
                moved = True
            except FileNotFoundError:
                pass
        self.quarantines += moved

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
                          bytes_read=self.bytes_read, bytes_written=self.bytes_written,
                          quarantines=self.quarantines)

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


class _Corrupt(Exception):
    """An entry failed verification or decoding: quarantine it."""


class _Inline:
    """A read :class:`_ReadAhead` leaves to the calling thread:
    ``result()`` runs it there."""

    def __init__(self, fn, *args) -> None:
        self.fn, self.args = fn, args

    def result(self) -> Any:
        return self.fn(*self.args)


class _ReadAhead:
    """The window of :meth:`TraceStore.read_ahead`: upcoming keys, each
    submitted to the reader threads with its sidecar once the window has
    room for its ``size`` (or, below :data:`READ_AHEAD_MIN_BYTES`, left
    to the calling thread with its sidecar already read)."""

    def __init__(self, store: TraceStore, keys: Iterable[str]) -> None:
        self.store = store
        self.upcoming = deque(keys)
        #: ``(key, future or None, size)`` in :meth:`TraceStore.get` order;
        #: ``None`` leaves the read, and its failure, to ``get`` itself.
        self.window: deque[tuple[str, Future | _Inline | None, int]] = deque()
        self.window_bytes = 0
        self.pool = ThreadPoolExecutor(READ_AHEAD_THREADS,
                                       thread_name_prefix="repro-read-ahead")
        self.fill()

    def fill(self) -> None:
        while self.upcoming and len(self.window) < READ_AHEAD_DEPTH:
            key = self.upcoming[0]
            try:
                sidecar = self.store._sidecar(key)
                size = int(sidecar["size"])
            except (OSError, ValueError, KeyError, TypeError):
                sidecar, size = None, 0
            if self.window and self.window_bytes + size > READ_AHEAD_BYTES:
                return
            self.upcoming.popleft()
            if sidecar is None:
                future = None
            elif size < READ_AHEAD_MIN_BYTES:
                future = _Inline(self.store._fetch, key, sidecar)
            else:
                future = self.pool.submit(self.store._fetch, key, sidecar)
            self.window.append((key, future, size))
            self.window_bytes += size

    def take(self, key: str) -> Future | _Inline | None:
        """The read of ``key`` if it heads the window, else ``None``."""
        if not self.window or self.window[0][0] != key:
            return None
        _, future, size = self.window.popleft()
        self.window_bytes -= size
        self.fill()
        return future

    def close(self) -> None:
        self.pool.shutdown(wait=True, cancel_futures=True)
