"""Tests for the memoizing runner — run_tasks(..., store=...)."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.reduce import CampaignReduction
from repro.core.runner import CampaignExecutor, SessionTask, derive_seed, run_tasks
from repro.store import TraceStore
from repro.store.codec import encode
from repro.xcal.records import SlotTrace, TraceMetadata

MARKER_DIR_KW = "marker_dir"
SRC = str(Path(__file__).resolve().parents[2] / "src")


def _traced_session(n_slots: int, seed: int, marker_dir: str) -> SlotTrace:
    """A deterministic fake session that leaves one marker file per call."""
    marker = Path(marker_dir) / f"exec-{n_slots}-{seed}"
    marker.write_text(marker.read_text() + "x" if marker.exists() else "x")
    trace = SlotTrace.empty(n_slots, metadata=TraceMetadata(operator="memo", seed=seed))
    trace.delivered_bits[:] = np.random.default_rng(seed).integers(0, 9000, n_slots)
    return trace


def _uncacheable(seed: int, blob: object = None) -> int:
    return seed * 2


def _manifest(marker_dir, n_tasks: int = 4) -> list[SessionTask]:
    return [
        SessionTask(fn=_traced_session,
                    kwargs={"n_slots": 32 + i, MARKER_DIR_KW: str(marker_dir)},
                    seed=derive_seed(7, "memo", i), label=f"memo/{i}")
        for i in range(n_tasks)
    ]


def _executions(marker_dir) -> int:
    return sum(len(p.read_text()) for p in Path(marker_dir).glob("exec-*"))


def _assert_same_results(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert np.array_equal(left.delivered_bits, right.delivered_bits)
        assert left.metadata == right.metadata


class TestMemoizedRunTasks:
    def test_cold_run_executes_and_backfills(self, tmp_path):
        store = TraceStore(tmp_path / "cache")
        results = run_tasks(_manifest(tmp_path), store=store)
        assert _executions(tmp_path) == 4
        assert store.misses == 4 and store.hits == 0
        assert store.stats().entries == 4
        assert all(r is not None for r in results)

    def test_warm_run_serves_hits_without_executing(self, tmp_path):
        store = TraceStore(tmp_path / "cache")
        cold = run_tasks(_manifest(tmp_path), store=store)
        warm = run_tasks(_manifest(tmp_path), store=TraceStore(tmp_path / "cache"))
        assert _executions(tmp_path) == 4  # no new executions on the warm run
        _assert_same_results(cold, warm)

    def test_warm_run_matches_uncached_run(self, tmp_path):
        store = TraceStore(tmp_path / "cache")
        run_tasks(_manifest(tmp_path), store=store)
        warm = run_tasks(_manifest(tmp_path), store=TraceStore(tmp_path / "cache"))
        uncached = run_tasks(_manifest(tmp_path))
        _assert_same_results(warm, uncached)

    def test_partial_hits_execute_only_misses_in_order(self, tmp_path):
        manifest = _manifest(tmp_path)
        store = TraceStore(tmp_path / "cache")
        # Prime tasks 1 and 3 only.
        run_tasks([manifest[1], manifest[3]], store=store)
        assert _executions(tmp_path) == 2
        results = run_tasks(manifest, store=store)
        assert _executions(tmp_path) == 4  # tasks 0 and 2 ran, 1 and 3 hit
        assert store.hits == 2
        _assert_same_results(results, run_tasks(manifest))

    def test_parallel_warm_run_identical(self, tmp_path):
        manifest = _manifest(tmp_path)
        store = TraceStore(tmp_path / "cache")
        cold = run_tasks(manifest, jobs=2, store=store)
        warm = run_tasks(manifest, jobs=2, store=TraceStore(tmp_path / "cache"))
        _assert_same_results(cold, warm)
        assert _executions(tmp_path) == 4

    def test_uncacheable_kwargs_always_execute(self, tmp_path):
        store = TraceStore(tmp_path / "cache")
        task = SessionTask(fn=_uncacheable, kwargs={"blob": object()}, seed=1)
        assert run_tasks([task], store=store) == [2]
        assert run_tasks([task], store=store) == [2]
        assert store.stats().entries == 0

    def test_uncacheable_result_always_executes(self, tmp_path):
        store = TraceStore(tmp_path / "cache")
        task = SessionTask(fn=_uncacheable, seed=21)
        assert run_tasks([task], store=store) == [42]
        assert run_tasks([task], store=store) == [42]
        assert store.stats().entries == 0  # int results are not cacheable

    @pytest.mark.parametrize("reduce", [False, True], ids=["exact", "reduce"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corruption_recomputes_and_heals(self, tmp_path, jobs, reduce):
        """One sweep for both modes: a hit that fails verification is
        recomputed once and written back, true misses run (in the pool
        at jobs=2), and every lookup counts once."""
        def run(store=None):
            reduction = CampaignReduction(group_mode="label") if reduce else None
            out = run_tasks(manifest, jobs=jobs, store=store, reduce=reduction)
            return [encode(out)] if reduce else [encode(r) for r in out]

        manifest = _manifest(tmp_path)
        run_tasks(manifest, store=TraceStore(tmp_path / "cache"))  # sessions only
        store = TraceStore(tmp_path / "cache")
        key = store.task_key(manifest[1])
        payload = store.root / "objects" / key[:2] / f"{key}.npz"
        payload.write_bytes(b"\x00" * payload.stat().st_size)
        for task in manifest[2:]:
            gone = store.task_key(task)
            for path in (store.root / "objects" / gone[:2]).glob(f"{gone}.*"):
                path.unlink()
        healed = run(store)
        assert _executions(tmp_path) == 4 + 3  # tasks 1-3 recomputed exactly once
        assert store.stats().quarantined == 1
        # task 0 hit; task 1 failed verification; tasks 2-3 and the memo missed
        assert (store.hits, store.misses) == (1, 3 + reduce)
        assert store.stats().entries == 4 + reduce
        # ... and the store is healed: next run hits again.
        warm_store = TraceStore(tmp_path / "cache")
        assert run(warm_store) == healed
        assert _executions(tmp_path) == 7
        assert (warm_store.hits, warm_store.misses) == (1 if reduce else 4, 0)
        assert healed == run()

    def test_key_excludes_label_so_renames_still_hit(self, tmp_path):
        store = TraceStore(tmp_path / "cache")
        manifest = _manifest(tmp_path, n_tasks=2)
        run_tasks(manifest, store=store)
        renamed = [SessionTask(fn=t.fn, kwargs=t.kwargs, seed=t.seed, label="other")
                   for t in manifest]
        run_tasks(renamed, store=store)
        assert _executions(tmp_path) == 2


class TestStoreRoutedTransport:
    def test_routed_cold_counts_misses_not_hits(self, tmp_path):
        """A cold parallel fill: workers write every result, the parent
        reads nothing back, and a fresh handle then replays all hits."""
        store = TraceStore(tmp_path / "cache")
        with CampaignExecutor(jobs=2, store=store) as executor:
            run_tasks(_manifest(tmp_path), store=store, executor=executor)
            assert executor.stats()["tasks_routed"] == store.misses == 4
        assert store.hits == 0
        assert store.bytes_read == 0 and store.bytes_written > 0
        assert store.stats().entries == 4
        warm_store = TraceStore(tmp_path / "cache")
        run_tasks(_manifest(tmp_path), store=warm_store)
        assert warm_store.hits == 4 and warm_store.misses == 0
        assert _executions(tmp_path) == 4

    def test_routed_executions_happen_in_workers(self, tmp_path):
        store = TraceStore(tmp_path / "cache")
        with CampaignExecutor(jobs=2, store=store) as executor:
            run_tasks(_manifest(tmp_path), store=store, executor=executor)
        assert _executions(tmp_path) == 4

    @pytest.mark.parametrize("reduce", [False, True], ids=["exact", "reduce"])
    def test_mismatched_store_rejected(self, tmp_path, reduce):
        """An executor warmed for one store must not run for another:
        the call fails before anything runs, and both stores stay empty."""
        pool_store = TraceStore(tmp_path / "pool-cache")
        other = TraceStore(tmp_path / "other-cache")
        reduction = CampaignReduction(group_mode="label") if reduce else None
        with CampaignExecutor(jobs=2, store=pool_store) as executor:
            with pytest.raises(ValueError, match="not the executor's store"):
                run_tasks(_manifest(tmp_path), store=other, executor=executor,
                          reduce=reduction)
            assert executor.stats()["dispatches"] == 0
        assert executor.pools_created == 0 and _executions(tmp_path) == 0
        assert other.stats().entries == pool_store.stats().entries == 0
        assert other.misses == pool_store.misses == 0

    def test_transient_pool_routes_without_executor(self, tmp_path):
        store = TraceStore(tmp_path / "cache")
        results = run_tasks(_manifest(tmp_path), jobs=2, store=store)
        assert _executions(tmp_path) == 4
        assert store.stats().entries == 4
        assert store.bytes_read == 0
        _assert_same_results(results, run_tasks(_manifest(tmp_path),
                                                store=TraceStore(tmp_path / "cache")))

    def test_determinism_matrix_byte_identical(self, tmp_path):
        """Every transport and worker count must produce the same bytes.

        jobs=1, jobs=2 pipe, jobs=2 default (executor and transient
        pool) and a warm re-read are compared through the store codec —
        the same serialization campaign exports use.
        """
        manifest = _manifest(tmp_path)
        reference = [encode(r) for r in run_tasks(manifest)]

        pipe = run_tasks(manifest, jobs=2, store=TraceStore(tmp_path / "pipe"),
                         transport="pipe")
        routed_store = TraceStore(tmp_path / "routed")
        with CampaignExecutor(jobs=2, store=routed_store) as executor:
            routed = run_tasks(manifest, store=routed_store, executor=executor)
            warm = run_tasks(manifest, store=TraceStore(tmp_path / "routed"),
                             executor=executor)
        transient = run_tasks(manifest, jobs=2, store=TraceStore(tmp_path / "tr"))
        for results in (pipe, routed, warm, transient):
            assert [encode(r) for r in results] == reference


class TestStoreRetention:
    def test_parallel_fill_does_not_depend_on_retention(self, tmp_path):
        """A store too small to keep one entry evicts every worker write
        at once; since the parent never reads results back, the run
        still matches serial byte for byte without recomputing."""
        manifest = _manifest(tmp_path)
        reference = [encode(t.execute()) for t in manifest]
        store = TraceStore(tmp_path / "cache", max_bytes=1)
        with CampaignExecutor(jobs=2, store=store) as executor:
            results = run_tasks(manifest, store=store, executor=executor)
            assert executor.stats()["tasks_executed"] == 4
        assert [encode(r) for r in results] == reference
        assert _executions(tmp_path) == 4 + 4  # the serial reference, then once each
        assert store.bytes_read == 0
        assert store.hits == 0 and store.stats().entries == 0


class TestCampaignMemoization:
    def test_campaign_csv_exports_byte_identical(self, tmp_path):
        from repro.operators.profiles import EU_PROFILES
        from repro.xcal.dataset import CampaignSpec, generate_campaign

        profiles = {"V_Sp": EU_PROFILES["V_Sp"]}
        spec = CampaignSpec(minutes_per_operator=0.1, session_s=3.0, seed=11)
        cold = generate_campaign(profiles, spec, store=TraceStore(tmp_path / "cache"))
        warm_store = TraceStore(tmp_path / "cache")
        warm = generate_campaign(profiles, spec, store=warm_store)
        assert warm_store.misses == 0 and warm_store.hits > 0
        uncached = generate_campaign(profiles, spec)
        for fmt in ("csv", "jsonl", "npz"):
            cold_paths = cold.export(tmp_path / f"cold-{fmt}", format=fmt)
            warm_paths = warm.export(tmp_path / f"warm-{fmt}", format=fmt)
            plain_paths = uncached.export(tmp_path / f"plain-{fmt}", format=fmt)
            assert [p.name for p in cold_paths] == [p.name for p in warm_paths]
            for a, b, c in zip(cold_paths, warm_paths, plain_paths):
                assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def _boom(seed: int) -> SlotTrace:
    raise RuntimeError(f"session {seed} failed")


_FORK_AFTER_WARM_SNIPPET = """
import os
import sys
import threading
from repro.core.runner import CampaignExecutor, run_tasks
from repro.operators.profiles import EU_PROFILES
from repro.store import TraceStore
from repro.xcal.dataset import CampaignSpec, campaign_manifest

profiles = {"V_Sp": EU_PROFILES["V_Sp"]}
warm = campaign_manifest(profiles, CampaignSpec(minutes_per_operator=0.05,
                                                session_s=1.0, seed=5))
cold = campaign_manifest(profiles, CampaignSpec(minutes_per_operator=0.05,
                                                session_s=1.0, seed=6))
threads_at_fork = []
os.register_at_fork(before=lambda: threads_at_fork.append(threading.active_count()))
store = TraceStore(sys.argv[1])
run_tasks(warm, jobs=1, store=store)
with CampaignExecutor(jobs=2, store=store) as executor:
    run_tasks(warm, store=store, executor=executor)
    assert store.hits == len(warm) and executor.pools_created == 0
    run_tasks(cold, store=store, executor=executor)
    assert executor.pools_created == 1
assert threads_at_fork and max(threads_at_fork) == 1, threads_at_fork
print("ok")
"""


class TestReadAhead:
    """``run_tasks`` reads upcoming hits ahead on reader threads
    (``TraceStore.read_ahead``); what it returns and counts must equal
    serial ``get`` calls, failures included."""

    N_TASKS = 11  # several read-ahead windows

    @pytest.fixture(autouse=True)
    def read_every_entry_ahead(self, monkeypatch):
        # These entries are a few KB; read them on the threads anyway.
        from repro.store import backend

        monkeypatch.setattr(backend, "READ_AHEAD_MIN_BYTES", 0)

    def _filled(self, tmp_path) -> tuple[list[SessionTask], list[str]]:
        manifest = _manifest(tmp_path, n_tasks=self.N_TASKS)
        store = TraceStore(tmp_path / "cache")
        run_tasks(manifest, store=store)
        return manifest, [store.task_key(task) for task in manifest]

    def test_warm_run_equals_serial_gets(self, tmp_path, monkeypatch):
        from repro.store import backend

        manifest, keys = self._filled(tmp_path)
        serial = TraceStore(tmp_path / "cache")
        expected = [serial.get(key) for key in keys]
        threads = []
        fetch = backend.TraceStore._fetch

        def spy(store, key, sidecar=None):
            threads.append(threading.current_thread().name)
            return fetch(store, key, sidecar)

        monkeypatch.setattr(backend.TraceStore, "_fetch", spy)
        warm = TraceStore(tmp_path / "cache")
        results = run_tasks(manifest, store=warm)
        _assert_same_results(results, expected)
        assert (warm.hits, warm.misses, warm.bytes_read) == \
            (serial.hits, serial.misses, serial.bytes_read) == \
            (self.N_TASKS, 0, serial.bytes_read)
        assert warm.quarantines == 0
        assert len(threads) == self.N_TASKS
        assert all(name.startswith("repro-read-ahead") for name in threads)
        assert _executions(tmp_path) == self.N_TASKS

    def test_small_entries_are_read_by_get(self, tmp_path, monkeypatch):
        """Entries below ``READ_AHEAD_MIN_BYTES`` are read in the calling
        thread, each sidecar once, with the same results and counts."""
        from repro.store import backend

        manifest, keys = self._filled(tmp_path)
        serial = TraceStore(tmp_path / "cache")
        expected = [serial.get(key) for key in keys]
        monkeypatch.setattr(backend, "READ_AHEAD_MIN_BYTES", 2**30)
        threads, sidecars = [], []
        fetch, sidecar = backend.TraceStore._fetch, backend.TraceStore._sidecar

        def spy_fetch(store, key, sidecar=None):
            threads.append(threading.current_thread().name)
            return fetch(store, key, sidecar)

        def spy_sidecar(store, key):
            sidecars.append(key)
            return sidecar(store, key)

        monkeypatch.setattr(backend.TraceStore, "_fetch", spy_fetch)
        monkeypatch.setattr(backend.TraceStore, "_sidecar", spy_sidecar)
        warm = TraceStore(tmp_path / "cache")
        _assert_same_results(run_tasks(manifest, store=warm), expected)
        assert (warm.hits, warm.misses, warm.bytes_read) == \
            (serial.hits, serial.misses, serial.bytes_read)
        assert threads == [threading.current_thread().name] * self.N_TASKS
        assert sorted(sidecars) == sorted(keys)

    @pytest.mark.parametrize("damage", ["corrupt", "payload_gone", "entry_gone"])
    def test_failed_middle_hit_recomputed_in_order(self, tmp_path, monkeypatch, damage):
        """A middle entry corrupted on disk, or deleted between the
        probe and the read, is recomputed once, written back and
        returned at its own index."""
        manifest, keys = self._filled(tmp_path)
        victim = keys[self.N_TASKS // 2]
        store = TraceStore(tmp_path / "cache")
        payload, sidecar = store._paths(victim)
        if damage == "corrupt":
            data = bytearray(payload.read_bytes())
            data[len(data) // 2] ^= 0xFF
            payload.write_bytes(bytes(data))
        else:
            probe = store.probe

            def probe_then_delete(key):
                found = probe(key)
                if key == victim:
                    payload.unlink()
                    if damage == "entry_gone":
                        sidecar.unlink()
                return found

            monkeypatch.setattr(store, "probe", probe_then_delete)
        results = run_tasks(manifest, store=store)
        _assert_same_results(results, run_tasks(manifest))
        assert (store.hits, store.misses) == (self.N_TASKS - 1, 1)
        assert store.quarantines == (damage == "corrupt")
        assert _executions(tmp_path) == 2 * self.N_TASKS + 1  # + the uncached run
        assert payload.exists() and sidecar.exists()  # written back
        assert TraceStore(tmp_path / "cache").verify() == (self.N_TASKS, [])

    def test_threads_joined_on_return_and_on_raise(self, tmp_path):
        manifest, _ = self._filled(tmp_path)
        before = threading.active_count()
        run_tasks(manifest, store=TraceStore(tmp_path / "cache"))
        assert threading.active_count() == before
        broken = manifest[:5] + [SessionTask(fn=_boom, seed=99, label="boom")] + manifest[5:]
        with pytest.raises(RuntimeError, match="session 99 failed"):
            run_tasks(broken, store=TraceStore(tmp_path / "cache"))
        assert threading.active_count() == before

    def test_no_fork_with_reader_threads_alive(self, tmp_path):
        """A warm run and then a cold ``jobs=2`` run on one executor: the
        pool forks after the warm run's reader threads are joined, so
        no fork-with-threads warning fires."""
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c",
             _FORK_AFTER_WARM_SNIPPET, str(tmp_path / "cache")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
        assert "DeprecationWarning" not in proc.stderr
