"""Content-addressed session trace store.

``repro.store`` memoizes the repository's expensive unit of work — one
simulated measurement session — behind a disk cache, so overlapping
analyses (Table 1, Figs. 1/12/14, the campaign exporter, benchmarks)
simulate each session once and replay it from columnar npz blobs ever
after.

- :mod:`repro.store.keys` — canonical task fingerprints (what a session
  computes, hashed stably across processes);
- :mod:`repro.store.codec` — session results <-> deterministic npz;
- :mod:`repro.store.backend` — the sharded, hash-verified, atomically
  written on-disk store with quarantine and LRU eviction.

Wire-up lives in :func:`repro.core.runner.run_tasks` (``store=`` splits
a manifest into hits and misses) and the ``--cache`` / ``repro cache``
CLI surface (``repro cache stats|verify|clear|evict``).
"""

from repro.store.backend import CACHE_DIR_ENV, CACHE_MAX_MB_ENV, StoreStats, TraceStore
from repro.store.codec import CODEC_VERSION, decode, encode
from repro.store.keys import (
    STORE_SCHEMA_VERSION,
    UnfingerprintableTask,
    canonical_json,
    task_fingerprint,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_MAX_MB_ENV",
    "CODEC_VERSION",
    "STORE_SCHEMA_VERSION",
    "StoreStats",
    "TraceStore",
    "UnfingerprintableTask",
    "canonical_json",
    "decode",
    "encode",
    "task_fingerprint",
]
