"""Tests for repro.core.reduce — mergeable streaming KPI sketches."""

import numpy as np
import pytest

from repro.core.reduce import (
    CampaignReduction,
    MomentSketch,
    QuantileSketch,
    VariabilitySketch,
)
from repro.core.runner import CampaignExecutor, SessionTask, derive_seed, run_tasks
from repro.core.stats import summarize
from repro.core.variability import variability_profile
from repro.store import TraceStore
from repro.store.codec import encode
from repro.xcal.records import SlotTrace, TraceMetadata


def _session(n_slots: int, seed: int) -> SlotTrace:
    """A deterministic fake session with enough KPI columns to fold."""
    rng = np.random.default_rng(seed)
    trace = SlotTrace.empty(n_slots, metadata=TraceMetadata(operator="red", seed=seed))
    trace.scheduled[:] = True
    trace.delivered_bits[:] = rng.integers(0, 9000, n_slots)
    trace.tbs_bits[:] = trace.delivered_bits
    trace.mcs_index[:] = rng.integers(0, 28, n_slots)
    trace.layers[:] = rng.integers(1, 5, n_slots)
    return trace


def _manifest(n: int = 8) -> list[SessionTask]:
    return [
        SessionTask(fn=_session, kwargs={"n_slots": 512},
                    seed=derive_seed(5, "reduce", i),
                    label=f"op{i % 2}/{'DL' if i % 4 < 2 else 'UL'}/{i:03d}")
        for i in range(n)
    ]


class TestMomentSketch:
    def test_matches_numpy(self):
        data = np.random.default_rng(0).standard_normal(257) * 40 + 100
        sketch = MomentSketch()
        for x in data:
            sketch.add(x)
        assert sketch.count == data.size
        assert sketch.mean == pytest.approx(data.mean(), rel=1e-12)
        assert sketch.std == pytest.approx(data.std(ddof=1), rel=1e-9)
        assert sketch.minimum == data.min() and sketch.maximum == data.max()

    def test_merge_equals_bulk(self):
        data = np.random.default_rng(1).standard_normal(100)
        bulk = MomentSketch()
        left, right = MomentSketch(), MomentSketch()
        for x in data:
            bulk.add(x)
        for x in data[:37]:
            left.add(x)
        for x in data[37:]:
            right.add(x)
        left.merge(right)
        assert left.count == bulk.count
        assert left.mean == pytest.approx(bulk.mean, rel=1e-12)
        assert left.std == pytest.approx(bulk.std, rel=1e-9)
        assert (left.minimum, left.maximum) == (bulk.minimum, bulk.maximum)

    def test_empty_and_single(self):
        empty = MomentSketch()
        assert np.isnan(empty.mean) and np.isnan(empty.std)
        single = MomentSketch()
        single.add(3.0)
        assert single.mean == 3.0 and single.std == 0.0

    def test_state_roundtrip(self):
        sketch = MomentSketch()
        for x in (1.0, 5.0, 2.0):
            sketch.add(x)
        back = MomentSketch.from_state(sketch.state())
        assert back.state() == sketch.state()


class TestQuantileSketch:
    def test_percentiles_within_one_bin(self):
        data = np.random.default_rng(2).uniform(0.0, 1000.0, 5000)
        sketch = QuantileSketch(0.0, 1024.0, n_bins=256)
        for x in data:
            sketch.add(x)
        lo, hi = data.min(), data.max()
        for q in (25.0, 50.0, 75.0):
            assert sketch.percentile(q, lo, hi) == pytest.approx(
                np.percentile(data, q), abs=sketch.resolution)

    def test_merge_equals_bulk(self):
        data = np.random.default_rng(3).uniform(0.0, 100.0, 400)
        bulk = QuantileSketch(0.0, 128.0)
        left, right = QuantileSketch(0.0, 128.0), QuantileSketch(0.0, 128.0)
        for x in data:
            bulk.add(x)
        for x in data[:111]:
            left.add(x)
        for x in data[111:]:
            right.add(x)
        left.merge(right)
        assert np.array_equal(left.counts, bulk.counts)

    def test_out_of_range_clamps_to_edge_bins(self):
        sketch = QuantileSketch(0.0, 10.0, n_bins=10)
        sketch.add(-5.0)
        sketch.add(50.0)
        assert sketch.counts[0] == 1 and sketch.counts[-1] == 1

    def test_merge_rejects_different_binning(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.0, 10.0).merge(QuantileSketch(0.0, 20.0))


class TestVariabilitySketch:
    def test_single_series_profile_is_exact(self):
        series = np.random.default_rng(4).standard_normal(4096)
        sketch = VariabilitySketch(base_interval_ms=0.5, max_scale_ms=64.0)
        sketch.fold_series(series)
        scales, values = sketch.profile()
        want_scales, want_values = variability_profile(series, 0.5,
                                                       max_scale_ms=64.0)
        assert np.array_equal(scales, want_scales)
        assert np.array_equal(values, want_values)

    def test_merge_pools_counts(self):
        a = VariabilitySketch(base_interval_ms=1.0, max_scale_ms=4.0)
        b = VariabilitySketch(base_interval_ms=1.0, max_scale_ms=4.0)
        a.fold_series(np.arange(64, dtype=float))
        b.fold_series(np.arange(64, dtype=float))
        a.merge(b)
        single = VariabilitySketch(base_interval_ms=1.0, max_scale_ms=4.0)
        single.fold_series(np.arange(64, dtype=float))
        assert a.counts[0] == 2 * single.counts[0]
        _, pooled = a.profile()
        _, alone = single.profile()
        assert pooled == pytest.approx(alone)  # identical sessions pool to same V

    def test_state_roundtrip(self):
        sketch = VariabilitySketch(base_interval_ms=0.5, max_scale_ms=8.0)
        sketch.fold_series(np.random.default_rng(6).standard_normal(256))
        back = VariabilitySketch.from_state(sketch.state())
        assert np.array_equal(back.profile()[1], sketch.profile()[1])


class TestCampaignReductionFold:
    def test_campaign_group_key_parses_operator_direction(self):
        reduction = CampaignReduction(group_mode="campaign")
        sketch = reduction.fold(_manifest()[0], _session(64, 1))
        assert list(sketch.groups) == ["op0/DL"]

    def test_label_mode_groups_per_label(self):
        reduction = CampaignReduction(group_mode="label")
        task = _manifest()[3]
        sketch = reduction.fold(task, _session(64, 1))
        assert list(sketch.groups) == [task.label]

    def test_malformed_campaign_label_rejected(self):
        reduction = CampaignReduction(group_mode="campaign")
        bad = SessionTask(fn=_session, kwargs={"n_slots": 8}, seed=1, label="flat")
        with pytest.raises(ValueError):
            reduction.fold(bad, _session(8, 1))

    def test_fold_accumulates_session_kpis(self):
        trace = _session(512, 9)
        reduction = CampaignReduction(group_mode="campaign")
        group = reduction.fold(_manifest()[0], trace).groups["op0/DL"]
        assert group.n_sessions == 1
        assert group.total_bits == trace.total_bits
        assert group.n_slots == len(trace)
        assert group.throughput.mean == trace.mean_throughput_mbps

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            CampaignReduction(group_mode="dynasty")
        with pytest.raises(ValueError):
            CampaignReduction(variability_kpis=("rainfall",))

    def test_fingerprint_tracks_config_not_stats(self):
        a = CampaignReduction(group_mode="campaign")
        b = CampaignReduction(group_mode="campaign")
        b.stats["sessions"] = 99
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != CampaignReduction(group_mode="label").fingerprint()
        assert a.fingerprint() != CampaignReduction(
            group_mode="campaign", variability_kpis=("mcs",)).fingerprint()

    def test_fingerprint_bytes_pinned(self):
        """Memo entries written before the binning options became
        constants must still hit: the fingerprint keeps every key."""
        assert CampaignReduction().fingerprint() == (
            '{"group_mode":"campaign","max_scale_ms":2048.0,'
            '"min_valid_fraction":0.5,"quantile_bins":1024,"quantile_hi":4096.0,'
            '"quantile_lo":0.0,"sketch_version":1,"variability_kpis":[]}')
        assert CampaignReduction(group_mode="label",
                                 variability_kpis=("throughput", "mcs")).fingerprint() == (
            '{"group_mode":"label","max_scale_ms":2048.0,'
            '"min_valid_fraction":0.5,"quantile_bins":1024,"quantile_hi":4096.0,'
            '"quantile_lo":0.0,"sketch_version":1,'
            '"variability_kpis":["throughput","mcs"]}')


class TestReducedRunTasks:
    def _sketch_bytes(self, **kwargs) -> bytes:
        reduction = CampaignReduction(group_mode="campaign",
                                      variability_kpis=("throughput",))
        sketch = run_tasks(_manifest(), reduce=reduction, **kwargs)
        return encode(sketch)

    def test_serial_parallel_and_routed_bytes_identical(self, tmp_path):
        serial = self._sketch_bytes(jobs=1)
        parallel = self._sketch_bytes(jobs=2)
        store = TraceStore(tmp_path / "cache")
        with CampaignExecutor(jobs=2, store=store) as executor:
            routed = self._sketch_bytes(store=store, executor=executor)
            assert executor.stats()["tasks_routed"] == len(_manifest())
        assert serial == parallel == routed
        # A warm store: the campaign memo replays it at jobs 1 and 2 ...
        for jobs in (1, 2):
            warm_store = TraceStore(tmp_path / "cache")
            assert self._sketch_bytes(jobs=jobs, store=warm_store) == serial
            assert (warm_store.hits, warm_store.misses) == (1, 0)
        # ... and without the memo every session is a hit folded in order.
        from repro.store.keys import reduce_key

        fingerprint = CampaignReduction(group_mode="campaign",
                                        variability_kpis=("throughput",)).fingerprint()
        memo = reduce_key(fingerprint, [store.task_key(t) for t in _manifest()],
                          salt=store.salt)
        for jobs in (1, 2):
            for path in (store.root / "objects" / memo[:2]).glob(f"{memo}.*"):
                path.unlink()
            warm_store = TraceStore(tmp_path / "cache")
            assert self._sketch_bytes(jobs=jobs, store=warm_store) == serial
            assert (warm_store.hits, warm_store.misses) == (len(_manifest()), 1)

    def test_summary_matches_exact_path(self):
        traces = run_tasks(_manifest(), jobs=1)
        reduction = CampaignReduction(group_mode="campaign")
        sketch = run_tasks(_manifest(), jobs=1, reduce=reduction)
        groups: dict[str, list] = {}
        for task, trace in zip(_manifest(), traces):
            key = task.label.rsplit("/", 1)[0]
            groups.setdefault(key, []).append(trace.mean_throughput_mbps)
        for key, samples in groups.items():
            want = summarize(np.asarray(samples))
            have = sketch.groups[key].summary()
            assert have.n == want.n
            assert have.mean == pytest.approx(want.mean, rel=1e-12)
            assert have.minimum == want.minimum and have.maximum == want.maximum
            tolerance = sketch.groups[key].quantiles.resolution
            assert have.median == pytest.approx(want.median, abs=tolerance)

    def test_memo_hit_on_warm_run(self, tmp_path):
        store = TraceStore(tmp_path / "cache")
        cold_reduction = CampaignReduction(group_mode="campaign")
        cold = run_tasks(_manifest(), store=store, reduce=cold_reduction)
        assert cold_reduction.stats["memo"] == "write"
        warm_store = TraceStore(tmp_path / "cache")
        warm_reduction = CampaignReduction(group_mode="campaign")
        warm = run_tasks(_manifest(), store=warm_store, reduce=warm_reduction)
        assert warm_reduction.stats["memo"] == "hit"
        assert warm_store.hits == 1  # one memo get replays the campaign
        assert encode(cold) == encode(warm)

    def test_reduce_accounting_stats(self):
        reduction = CampaignReduction(group_mode="campaign")
        run_tasks(_manifest(), jobs=1, reduce=reduction)
        assert reduction.stats["sessions"] == 8
        assert reduction.stats["folded_local"] == 8
        assert reduction.stats["memo"] == "off"

    def test_reduce_requires_fold_and_merge(self):
        with pytest.raises(TypeError):
            run_tasks(_manifest(), reduce=object())

    def test_codec_roundtrip_preserves_summaries(self):
        from repro.store.codec import decode

        reduction = CampaignReduction(group_mode="campaign",
                                      variability_kpis=("throughput", "mcs"))
        sketch = run_tasks(_manifest(), jobs=1, reduce=reduction)
        back = decode(encode(sketch))
        assert list(back.groups) == list(sketch.groups)
        for key, group in sketch.groups.items():
            assert back.groups[key].summary() == group.summary()
            assert back.groups[key].total_bits == group.total_bits
            for kpi, vs in group.variability.items():
                assert np.array_equal(back.groups[key].variability[kpi].profile()[1],
                                      vs.profile()[1])
