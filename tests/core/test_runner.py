"""Tests for repro.core.runner — manifest execution and seed derivation."""

import numpy as np
import pytest

from repro.core.runner import (
    CampaignExecutor,
    SessionTask,
    derive_seed,
    derive_seeds,
    dispatch_chunksize,
    resolve_jobs,
    run_tasks,
)


def _draw(seed: int, scale: float = 1.0) -> float:
    """Module-level session fn so tasks can cross a process boundary."""
    return scale * float(np.random.default_rng(seed).standard_normal())


def _no_seed(value: int) -> int:
    return value * 2


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(2024, "V_Sp", 3) == derive_seed(2024, "V_Sp", 3)

    def test_fits_uint64(self):
        seed = derive_seed(2024, "V_Sp", 0)
        assert 0 <= seed < 2**64

    def test_children_differ_across_keys(self):
        seeds = {derive_seed(2024, op, s) for op in ("V_Sp", "O_Sp_100", "Vzw_US")
                 for s in range(8)}
        assert len(seeds) == 24

    def test_children_differ_across_roots(self):
        assert derive_seed(1, "op", 0) != derive_seed(2, "op", 0)

    def test_key_independent_of_siblings(self):
        # A child's seed must not depend on how many siblings exist.
        alone = derive_seed(7, "op", 5)
        assert derive_seeds(7, 10, "op")[5] == alone

    def test_string_and_int_parts_mix(self):
        assert derive_seed(0, "a", 1, "b") != derive_seed(0, "a", 1, "c")

    def test_negative_int_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(0, -1)

    def test_derive_seeds_length(self):
        assert derive_seeds(0, 5) == [derive_seed(0, i) for i in range(5)]
        assert derive_seeds(0, 0) == []
        with pytest.raises(ValueError):
            derive_seeds(0, -1)


class TestResolveJobs:
    def test_default_and_none(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_int_string(self):
        assert resolve_jobs("4") == 4

    def test_auto_at_least_one(self):
        assert resolve_jobs("auto") >= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            resolve_jobs("fast")


class TestSessionTask:
    def test_seed_injected_into_kwargs(self):
        task = SessionTask(fn=_draw, kwargs={"scale": 2.0}, seed=11)
        assert task.execute() == _draw(11, scale=2.0)

    def test_seedless_task(self):
        assert SessionTask(fn=_no_seed, kwargs={"value": 21}).execute() == 42

    def test_with_seed_derives_and_preserves(self):
        task = SessionTask(fn=_draw, kwargs={"scale": 2.0}, label="s0")
        seeded = task.with_seed(2024, "V_Sp", 0)
        assert seeded.seed == derive_seed(2024, "V_Sp", 0)
        assert (seeded.fn, seeded.kwargs, seeded.label) == \
            (task.fn, task.kwargs, task.label)
        assert task.seed is None  # frozen original untouched


class TestRunTasks:
    def _manifest(self, n=6):
        return [SessionTask(fn=_draw, seed=derive_seed(99, "t", i), label=str(i))
                for i in range(n)]

    def test_serial_preserves_order(self):
        manifest = self._manifest()
        results = run_tasks(manifest, jobs=1)
        assert results == [task.execute() for task in manifest]

    def test_parallel_matches_serial(self):
        manifest = self._manifest()
        assert run_tasks(manifest, jobs=2) == run_tasks(manifest, jobs=1)

    def test_empty_manifest(self):
        assert run_tasks([], jobs=4) == []

    def test_jobs_exceeding_tasks(self):
        manifest = self._manifest(2)
        assert run_tasks(manifest, jobs=8) == run_tasks(manifest, jobs=1)

    def test_transport_validated(self):
        with pytest.raises(ValueError):
            run_tasks([], transport="carrier-pigeon")

    def test_retired_transports_rejected(self, tmp_path):
        from repro.store import TraceStore

        for transport in ("store", "shm"):
            with pytest.raises(ValueError):
                run_tasks(self._manifest(2), jobs=2, transport=transport,
                          store=TraceStore(tmp_path / "cache"))


class TestDispatchChunksize:
    def test_serial_is_one(self):
        assert dispatch_chunksize(1000, 1) == 1

    def test_fewer_tasks_than_workers_is_one(self):
        assert dispatch_chunksize(3, 4) == 1
        assert dispatch_chunksize(4, 4) == 1

    def test_targets_four_chunks_per_worker(self):
        assert dispatch_chunksize(256, 4) == 16
        assert dispatch_chunksize(64, 2) == 8

    def test_floor_one(self):
        # Just above the worker count still yields chunksize 1.
        assert dispatch_chunksize(9, 4) == 1

    def test_capped_for_huge_manifests(self):
        assert dispatch_chunksize(1_000_000, 4) == 32


class TestCampaignExecutor:
    def _manifest(self, n=6):
        return [SessionTask(fn=_draw, seed=derive_seed(99, "t", i), label=str(i))
                for i in range(n)]

    def test_pool_is_lazy(self):
        with CampaignExecutor(jobs=2) as executor:
            assert executor.stats()["pools_created"] == 0

    def test_pool_reused_across_dispatches(self):
        manifest = self._manifest()
        serial = run_tasks(manifest, jobs=1)
        with CampaignExecutor(jobs=2) as executor:
            assert run_tasks(manifest, executor=executor) == serial
            assert run_tasks(manifest, executor=executor) == serial
            stats = executor.stats()
        assert stats["pools_created"] == 1
        assert stats["dispatches"] == 2
        assert stats["tasks_executed"] == 12

    def test_executor_overrides_jobs(self):
        # The executor's worker count wins over the jobs argument.
        manifest = self._manifest()
        with CampaignExecutor(jobs=2) as executor:
            assert run_tasks(manifest, jobs=1, executor=executor) == \
                run_tasks(manifest, jobs=1)
            assert executor.stats()["dispatches"] == 1

    def test_routes_for(self, tmp_path):
        from repro.store import TraceStore

        store = TraceStore(tmp_path / "cache")
        other = TraceStore(tmp_path / "other")
        same_root = TraceStore(tmp_path / "cache")
        with CampaignExecutor(jobs=2, store=store) as executor:
            assert executor.routes_for(store)
            assert executor.routes_for(same_root)
            assert not executor.routes_for(other)
            assert not executor.routes_for(None)
        with CampaignExecutor(jobs=2) as storeless:
            assert not storeless.routes_for(store)

    def test_routes_for_resolves_path_spellings(self, tmp_path, monkeypatch):
        # A relative or symlinked spelling of the same directory is the
        # same store; textual root comparison used to disable routing.
        from pathlib import Path

        from repro.store import TraceStore

        root = tmp_path / "cache"
        store = TraceStore(root)
        alias = tmp_path / "alias"
        alias.symlink_to(root)
        monkeypatch.chdir(tmp_path)
        with CampaignExecutor(jobs=2, store=store) as executor:
            assert executor.routes_for(TraceStore(Path("cache")))
            assert executor.routes_for(TraceStore(alias))
            assert not executor.routes_for(TraceStore(tmp_path / "elsewhere"))

    def test_close_idempotent_and_reopens(self):
        executor = CampaignExecutor(jobs=2)
        manifest = self._manifest(4)
        first = run_tasks(manifest, executor=executor)
        executor.close()
        executor.close()
        # A closed executor builds a fresh pool on the next dispatch.
        assert run_tasks(manifest, executor=executor) == first
        assert executor.stats()["pools_created"] == 2
        executor.close()

    def test_render_stats_mentions_counters(self):
        with CampaignExecutor(jobs=3) as executor:
            text = executor.render_stats()
        assert "workers=3" in text and "routed=" in text


def test_prewarm_worker_caches_warms_every_full_grant():
    """The pool initializer's prewarm raises nothing and leaves every
    profile's full-grant TBS matrices, DL and UL, in the cache."""
    from repro.core.runner import prewarm_worker_caches
    from repro.nr.tbs import clear_tbs_matrix_cache, tbs_matrix_cache_stats
    from repro.nr.tdd import SlotType
    from repro.operators.profiles import ALL_PROFILES
    from repro.ran.simulator import prewarm_tbs_matrices

    clear_tbs_matrix_cache()
    prewarm_worker_caches()
    warm = tbs_matrix_cache_stats()
    assert warm["entries"] > 0
    for profile in ALL_PROFILES.values():
        prewarm_tbs_matrices(profile.primary_cell, SlotType.DL)
        prewarm_tbs_matrices(profile.primary_cell, SlotType.UL,
                             max_layers=profile.ul_max_layers)
    after = tbs_matrix_cache_stats()
    assert after["misses"] == warm["misses"]
    assert after["hits"] > warm["hits"]
