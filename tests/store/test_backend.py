"""Tests for repro.store.backend — the on-disk content-addressed store."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ran.ca import AggregatedResult
from repro.store import TraceStore
from repro.xcal.records import SlotTrace, TraceMetadata

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _trace(n: int = 16, seed: int = 3) -> SlotTrace:
    trace = SlotTrace.empty(n, metadata=TraceMetadata(operator="T", seed=seed))
    trace.delivered_bits[:] = np.random.default_rng(seed).integers(0, 9000, n)
    trace.sinr_db[:] = np.random.default_rng(seed + 1).normal(20.0, 2.0, n)
    return trace


def _key(tag: str) -> str:
    return (tag * 64)[:64]


@pytest.fixture
def store(tmp_path) -> TraceStore:
    return TraceStore(tmp_path / "cache")


class TestPutGet:
    def test_roundtrip_trace(self, store):
        trace = _trace()
        assert store.put(_key("a"), trace) is True
        loaded = store.get(_key("a"))
        assert np.array_equal(loaded.delivered_bits, trace.delivered_bits)
        assert np.array_equal(loaded.sinr_db, trace.sinr_db)
        assert loaded.metadata == trace.metadata
        assert loaded.mu == trace.mu

    def test_roundtrip_aggregated(self, store):
        result = AggregatedResult(per_carrier=[_trace(8, 1), _trace(8, 2)])
        store.put(_key("b"), result)
        loaded = store.get(_key("b"))
        assert isinstance(loaded, AggregatedResult)
        assert loaded.n_carriers == 2
        for a, b in zip(loaded.per_carrier, result.per_carrier):
            assert np.array_equal(a.delivered_bits, b.delivered_bits)

    def test_miss_raises(self, store):
        with pytest.raises(KeyError):
            store.get(_key("0"))
        assert store.misses == 1

    def test_uncacheable_value_rejected(self, store):
        assert store.put(_key("c"), {"not": "a trace"}) is False
        with pytest.raises(KeyError):
            store.get(_key("c"))

    def test_sharded_layout(self, store):
        store.put(_key("d"), _trace())
        payload = store.root / "objects" / _key("d")[:2] / f"{_key('d')}.npz"
        assert payload.exists()
        assert payload.with_suffix(".json").exists()

    def test_no_temp_litter(self, store):
        store.put(_key("e"), _trace())
        assert not list(store.root.rglob("*.tmp"))


class TestCorruption:
    def test_payload_tamper_quarantines_and_misses(self, store):
        store.put(_key("a"), _trace())
        payload = store.root / "objects" / _key("a")[:2] / f"{_key('a')}.npz"
        payload.write_bytes(b"garbage" + payload.read_bytes()[7:])
        with pytest.raises(KeyError):
            store.get(_key("a"))
        assert (store.root / "quarantine" / payload.name).exists()
        # The entry is gone, not broken: a fresh put-and-get heals it.
        store.put(_key("a"), _trace())
        assert store.get(_key("a")) is not None

    def test_sidecar_tamper_quarantines(self, store):
        store.put(_key("b"), _trace())
        sidecar = store.root / "objects" / _key("b")[:2] / f"{_key('b')}.json"
        sidecar.write_text("{not json")
        with pytest.raises(KeyError):
            store.get(_key("b"))
        assert not sidecar.exists()

    def test_missing_payload_is_a_plain_miss(self, store):
        store.put(_key("c"), _trace())
        (store.root / "objects" / _key("c")[:2] / f"{_key('c')}.npz").unlink()
        with pytest.raises(KeyError):
            store.get(_key("c"))

    def test_verify_quarantines_tampered(self, store):
        store.put(_key("a"), _trace(seed=1))
        store.put(_key("b"), _trace(seed=2))
        payload = store.root / "objects" / _key("b")[:2] / f"{_key('b')}.npz"
        payload.write_bytes(payload.read_bytes()[:-1] + b"X")
        ok, bad = store.verify()
        assert ok == 1
        assert bad == [_key("b")]
        assert store.stats().quarantined == 1


class TestMaintenance:
    def test_stats(self, store):
        store.put(_key("a"), _trace())
        stats = store.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0
        assert stats.quarantined == 0
        assert "entries" in stats.render()

    def test_clear(self, store):
        store.put(_key("a"), _trace())
        store.put(_key("b"), _trace())
        assert store.clear() == 2
        assert store.stats().entries == 0
        with pytest.raises(KeyError):
            store.get(_key("a"))


class TestLruEviction:
    def _entry_bytes(self, store, key) -> int:
        payload = store.root / "objects" / key[:2] / f"{key}.npz"
        return payload.stat().st_size + payload.with_suffix(".json").stat().st_size

    def test_evicts_least_recently_accessed_first(self, store):
        keys = [_key(tag) for tag in "abc"]
        for i, key in enumerate(keys):
            store.put(key, _trace(seed=i))
            os.utime(store.root / "objects" / key[:2] / f"{key}.json",
                     (1000.0 + i, 1000.0 + i))
        # Touch "a" (oldest written) so "b" becomes least recently used.
        store.get(keys[0])
        budget = sum(self._entry_bytes(store, k) for k in keys) - 1
        evicted = store.evict(budget)
        assert evicted == [keys[1]]
        store.get(keys[0])
        store.get(keys[2])
        with pytest.raises(KeyError):
            store.get(keys[1])

    def test_get_refreshes_lru(self, store):
        """A hit ages its entry: the oldest-written but freshly read
        trace is not the next eviction victim."""
        keys = [_key(tag) for tag in "abc"]
        for i, key in enumerate(keys):
            store.put(key, _trace(seed=i))
            os.utime(store.root / "objects" / key[:2] / f"{key}.json",
                     (1000.0 + i, 1000.0 + i))
        store.get(keys[0])  # oldest written, freshly read
        budget = sum(self._entry_bytes(store, k) for k in keys) - 1
        assert store.evict(budget) == [keys[1]]
        assert store.hits == 1 and store.misses == 0
        assert store.get(keys[0]) is not None

    def test_evict_same_mtime_ties_break_lexicographically(self, store):
        """Same-mtime entries evict in key order — deterministic across
        runs instead of following directory-listing order."""
        keys = [_key(tag) for tag in "cab"]
        for i, key in enumerate(keys):
            store.put(key, _trace(seed=i))
        for key in keys:
            os.utime(store.root / "objects" / key[:2] / f"{key}.json",
                     (1000.0, 1000.0))
        budget = sum(self._entry_bytes(store, k) for k in keys) - 1
        assert store.evict(budget) == [_key("a")]
        assert store.evict(0) == sorted([_key("b"), _key("c")])

    def test_evict_to_zero_empties_store(self, store):
        for tag in "ab":
            store.put(_key(tag), _trace())
        # A negative budget is rejected, as in __init__, not "evict all".
        with pytest.raises(ValueError, match="non-negative"):
            store.evict(-1)
        assert store.stats().entries == 2
        assert len(store.evict(0)) == 2
        assert store.stats().entries == 0

    def test_put_applies_cap_automatically(self, tmp_path):
        capped = TraceStore(tmp_path / "capped", max_bytes=1)
        capped.put(_key("a"), _trace())
        capped.put(_key("b"), _trace())
        # Each put evicts down to the (tiny) cap; the store never grows.
        assert capped.stats().entries <= 1

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert TraceStore.from_env() is None
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env-cache"))
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "2.5")
        store = TraceStore.from_env()
        assert store is not None
        assert store.root == tmp_path / "env-cache"
        assert store.max_bytes == int(2.5e6)


class TestAccounting:
    def test_get_counts_hits_and_bytes_read(self, store):
        store.put(_key("a"), _trace())
        assert store.bytes_written > 0
        before = store.bytes_read
        store.get(_key("a"))
        assert store.hits == 1 and store.misses == 0
        assert store.bytes_read > before

    def test_note_routed_write_accumulates(self, store):
        store.note_routed_write(1000)
        store.note_routed_write(500)
        assert store.bytes_written == 1500

    def test_stats_render_includes_bytes(self, store):
        store.put(_key("a"), _trace())
        store.get(_key("a"))
        text = store.stats().render()
        assert "read=" in text and "written=" in text

    def test_stats_to_dict_matches_counters(self, store):
        """One serializer feeds ``cache stats --json`` and the CI
        gates — keep it faithful."""
        store.put(_key("a"), _trace())
        store.get(_key("a"))
        with pytest.raises(KeyError):
            store.get(_key("b"))
        stats = store.stats()
        document = stats.to_dict()
        assert document["entries"] == 1
        assert document["hits"] == 1 and document["misses"] == 1
        assert document["total_bytes"] == stats.total_bytes
        assert document["bytes_read"] == store.bytes_read
        assert document["bytes_written"] == store.bytes_written
        assert document["quarantined"] == 0
        assert document["root"] == str(store.root)
        assert json.loads(json.dumps(document)) == document


class TestQuarantineRecompute:
    def _manifest(self):
        from repro.operators.profiles import EU_PROFILES
        from repro.xcal.dataset import CampaignSpec, campaign_manifest

        spec = CampaignSpec(minutes_per_operator=0.02, session_s=1.0, seed=77)
        return campaign_manifest({"V_Sp": EU_PROFILES["V_Sp"]}, spec)

    def test_quarantine_recompute_write_back_roundtrip(self, tmp_path):
        """A tampered entry heals end to end: the next run quarantines
        it, recomputes the session, and writes the same bytes back."""
        from repro.core.runner import run_tasks

        store = TraceStore(tmp_path / "cache")
        manifest = self._manifest()
        first = run_tasks(manifest, jobs=1, store=store)
        assert store.misses == len(manifest)
        [payload] = (store.root / "objects").glob("*/*.npz")
        key = payload.stem
        good_bytes = payload.read_bytes()
        payload.write_bytes(b"garbage" + good_bytes[7:])

        second = run_tasks(manifest, jobs=1, store=store)
        # the tampered blob was parked, the session recomputed, and the
        # deterministic simulation wrote back byte-identical content
        assert (store.root / "quarantine" / f"{key}.npz").exists()
        assert store.misses == 2 * len(manifest)
        assert [p.stem for p in (store.root / "objects").glob("*/*.json")] == [key]
        assert payload.read_bytes() == good_bytes
        ok, bad = store.verify()
        assert ok == 1 and not bad

        before_hits = store.hits
        third = run_tasks(manifest, jobs=1, store=store)
        assert store.hits == before_hits + len(manifest)
        for a, b in zip(first, third):
            assert np.array_equal(a.delivered_bits, second[0].delivered_bits)
            assert np.array_equal(a.delivered_bits, b.delivered_bits)

    def test_hash_matching_malformed_payload_recomputed(self, tmp_path):
        """A payload that passes the SHA-256 check but fails the npz
        decoder (here: a member's CRC-32) is quarantined, counted,
        recomputed and written back intact."""
        from hashlib import sha256

        from repro.core.runner import run_tasks

        store = TraceStore(tmp_path / "cache")
        manifest = self._manifest()
        first = run_tasks(manifest, jobs=1, store=store)
        [payload] = (store.root / "objects").glob("*/*.npz")
        sidecar = payload.with_suffix(".json")
        good_bytes = payload.read_bytes()
        # Flip a byte of the first member's array data, past its
        # local header and npy header.
        name_len, extra_len = struct.unpack_from("<HH", good_bytes, 26)
        body = 30 + name_len + extra_len
        bad = bytearray(good_bytes)
        bad[body + 10 + struct.unpack_from("<H", good_bytes, body + 8)[0]] ^= 0x01
        payload.write_bytes(bytes(bad))
        document = json.loads(sidecar.read_text())
        document["sha256"] = sha256(bytes(bad)).hexdigest()
        sidecar.write_text(json.dumps(document))

        store = TraceStore(tmp_path / "cache")
        second = run_tasks(manifest, jobs=1, store=store)
        assert (store.hits, store.misses, store.quarantines) == (0, 1, 1)
        assert store.stats().to_dict()["quarantines"] == 1
        assert (store.root / "quarantine" / payload.name).read_bytes() == bytes(bad)
        assert payload.read_bytes() == good_bytes
        assert np.array_equal(first[0].delivered_bits, second[0].delivered_bits)
        assert store.verify() == (1, [])


_WRITER_SNIPPET = """
import sys
import numpy as np
from repro.store import TraceStore
from repro.xcal.records import SlotTrace, TraceMetadata

root, worker = sys.argv[1], int(sys.argv[2])
store = TraceStore(root)
for round_ in range(5):
    for tag in "abcd":
        key = (tag * 64)[:64]
        n = 64 + ord(tag)
        trace = SlotTrace.empty(n, metadata=TraceMetadata(operator=tag, seed=ord(tag)))
        trace.delivered_bits[:] = np.random.default_rng(ord(tag)).integers(0, 9000, n)
        store.put(key, trace)
        try:
            loaded = store.get(key)
            assert len(loaded) == n
        except KeyError:
            pass  # concurrently mid-replace is fine; torn reads are not
print("ok")
"""


_DISTINCT_WRITER_SNIPPET = """
import sys
import numpy as np
from repro.store import TraceStore
from repro.xcal.records import SlotTrace, TraceMetadata

root, worker = sys.argv[1], int(sys.argv[2])
store = TraceStore(root)
for item in range(6):
    key = (f"{worker}{item}" * 32)[:64]
    n = 16 + worker + item
    trace = SlotTrace.empty(n, metadata=TraceMetadata(operator=str(worker), seed=item))
    trace.delivered_bits[:] = np.random.default_rng(worker * 10 + item).integers(0, 9000, n)
    store.put(key, trace)
    assert len(store.get(key)) == n
print("ok")
"""


class TestConcurrentWriters:
    def test_parallel_processes_never_tear_entries(self, tmp_path):
        """N processes hammering the same keys must leave a clean store."""
        root = tmp_path / "shared"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen([sys.executable, "-c", _WRITER_SNIPPET, str(root), str(i)],
                             env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for i in range(4)
        ]
        for proc in workers:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        store = TraceStore(root)
        ok, bad = store.verify()
        assert ok == 4
        assert bad == []
        for tag in "abcd":
            assert len(store.get((tag * 64)[:64])) == 64 + ord(tag)
        assert not list(root.rglob("*.tmp"))

    def test_parallel_processes_on_distinct_keys(self, tmp_path):
        """Workers writing disjoint key sets (the parallel campaign
        pattern) must leave every entry intact and quarantine nothing."""
        root = tmp_path / "shared"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", _DISTINCT_WRITER_SNIPPET, str(root), str(i)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for i in range(4)
        ]
        for proc in workers:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        store = TraceStore(root)
        ok, bad = store.verify()
        assert ok == 4 * 6
        assert bad == []
        assert store.stats().quarantined == 0
        for worker in range(4):
            for item in range(6):
                key = (f"{worker}{item}" * 32)[:64]
                assert len(store.get(key)) == 16 + worker + item
