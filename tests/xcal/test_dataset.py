"""Tests for repro.xcal.dataset — the synthetic measurement campaign."""

import numpy as np
import pytest

from repro.operators.profiles import EU_PROFILES
from repro.xcal.dataset import (
    CampaignSpec,
    generate_campaign,
    run_session,
    session_seed,
)


@pytest.fixture(scope="module")
def small_campaign():
    profiles = {k: EU_PROFILES[k] for k in ("V_Sp", "O_Sp_100")}
    spec = CampaignSpec(minutes_per_operator=0.2, session_s=4.0, seed=99)
    return generate_campaign(profiles, spec)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(minutes_per_operator=0.0)
        with pytest.raises(ValueError):
            CampaignSpec(ul_fraction=1.5)
        with pytest.raises(ValueError):
            CampaignSpec(ul_fraction=-0.1)

    @pytest.mark.parametrize("field", ["minutes_per_operator", "session_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_durations_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            CampaignSpec(**{field: value})

    def test_ul_only_campaign_expressible(self):
        # ul_fraction=1.0 is valid: every session measures the uplink.
        spec = CampaignSpec(minutes_per_operator=0.1, session_s=3.0,
                            ul_fraction=1.0, seed=3)
        campaign = generate_campaign({"V_Sp": EU_PROFILES["V_Sp"]}, spec)
        assert campaign.dl_traces["V_Sp"] == []
        assert len(campaign.ul_traces["V_Sp"]) == 2
        assert all(t.metadata.direction == "UL"
                   for t in campaign.ul_traces["V_Sp"])


class TestCampaign:
    def test_operators_covered(self, small_campaign):
        assert set(small_campaign.operators) == {"V_Sp", "O_Sp_100"}

    def test_session_counts(self, small_campaign):
        # 0.2 min / 4 s = 3 sessions, 30% UL -> 1 UL + 2 DL.
        assert len(small_campaign.dl_traces["V_Sp"]) == 2
        assert len(small_campaign.ul_traces["V_Sp"]) == 1

    def test_total_minutes(self, small_campaign):
        assert small_campaign.total_minutes == pytest.approx(2 * 3 * 4.0 / 60.0)

    def test_data_volume_positive(self, small_campaign):
        assert small_campaign.total_data_gb > 0.01

    def test_metadata_attached(self, small_campaign):
        trace = small_campaign.dl_traces["V_Sp"][0]
        assert trace.metadata.operator == "Vodafone"
        assert trace.metadata.country == "Spain"
        assert trace.metadata.direction == "DL"

    def test_ul_slower_than_dl(self, small_campaign):
        dl = small_campaign.dl_traces["V_Sp"][0].mean_throughput_mbps
        ul = small_campaign.ul_traces["V_Sp"][0].mean_throughput_mbps
        assert ul < dl

    def test_summary_rows(self, small_campaign):
        rows = small_campaign.summary_rows()
        assert any("minutes" in row for row in rows)

    def test_export_csv(self, small_campaign, tmp_path):
        paths = small_campaign.export_csv(tmp_path)
        assert len(paths) == 6
        assert all(p.exists() for p in paths)

    def test_sessions_differ(self, small_campaign):
        a, b = small_campaign.dl_traces["V_Sp"]
        assert a.mean_throughput_mbps != b.mean_throughput_mbps


class TestExportFormats:
    def test_jsonl_and_npz_load_back(self, small_campaign, tmp_path):
        from repro.xcal.io import read_jsonl, read_npz

        for fmt, reader in (("jsonl", read_jsonl), ("npz", read_npz)):
            paths = small_campaign.export(tmp_path / fmt, format=fmt)
            assert len(paths) == 6
            loaded = reader(paths[0])
            assert len(loaded) > 0
            assert loaded.metadata.operator in ("Vodafone", "Orange")

    @pytest.mark.parametrize("format", ["xlsx", "parquet"])
    def test_unknown_format_rejected(self, small_campaign, tmp_path, format):
        with pytest.raises(ValueError, match="unknown export format"):
            small_campaign.export(tmp_path, format=format)

    def test_operator_keys_sanitized_in_filenames(self, tmp_path):
        from repro.xcal.dataset import _filename_key

        assert _filename_key("V_Sp") == "V_Sp"
        assert _filename_key("O Sp/100") == "O_Sp_100"
        assert _filename_key("../../etc/passwd") == "etc_passwd"
        assert _filename_key("***") == "operator"

    def test_weird_operator_key_stays_inside_directory(self, tmp_path):
        profiles = {"../escape me": EU_PROFILES["V_Sp"]}
        spec = CampaignSpec(minutes_per_operator=0.1, session_s=3.0, seed=5)
        campaign = generate_campaign(profiles, spec)
        out = tmp_path / "exports"
        paths = campaign.export(out)
        assert paths
        for path in paths:
            assert path.parent == out
            assert "/" not in path.name and ".." not in path.name

    def test_colliding_operator_keys_rejected_before_writing(self, tmp_path):
        profiles = {"a/b": EU_PROFILES["V_Sp"], "a_b": EU_PROFILES["O_Sp_100"]}
        spec = CampaignSpec(minutes_per_operator=0.1, session_s=3.0, seed=5)
        campaign = generate_campaign(profiles, spec)
        out = tmp_path / "exports"
        with pytest.raises(ValueError, match="'a/b' and 'a_b' both export as 'a_b'"):
            campaign.export(out)
        assert not out.exists()


class TestStoreIntegration:
    def test_generate_campaign_warm_equals_cold(self, tmp_path):
        from repro.store import TraceStore

        profiles = {"V_Sp": EU_PROFILES["V_Sp"]}
        spec = CampaignSpec(minutes_per_operator=0.1, session_s=3.0, seed=17)
        cold = generate_campaign(profiles, spec, store=TraceStore(tmp_path / "c"))
        warm_store = TraceStore(tmp_path / "c")
        warm = generate_campaign(profiles, spec, store=warm_store)
        assert warm_store.misses == 0
        for a, b in zip(cold.dl_traces["V_Sp"], warm.dl_traces["V_Sp"]):
            assert np.array_equal(a.delivered_bits, b.delivered_bits)
            assert a.metadata == b.metadata


class TestDeterminism:
    def test_parallel_export_byte_identical(self, tmp_path):
        profiles = {k: EU_PROFILES[k] for k in ("V_Sp", "O_Sp_100")}
        spec = CampaignSpec(minutes_per_operator=0.2, session_s=4.0, seed=99)
        serial = generate_campaign(profiles, spec, jobs=1)
        parallel = generate_campaign(profiles, spec, jobs=4)
        serial_paths = serial.export_csv(tmp_path / "serial")
        parallel_paths = parallel.export_csv(tmp_path / "parallel")
        assert [p.name for p in serial_paths] == [p.name for p in parallel_paths]
        for a, b in zip(serial_paths, parallel_paths):
            assert a.read_bytes() == b.read_bytes()

    def test_derived_seed_recorded_in_metadata(self, small_campaign):
        # Sessions 0..n_ul-1 are UL, the rest DL (n_ul = 1 here).
        assert small_campaign.ul_traces["V_Sp"][0].metadata.seed == session_seed(99, "V_Sp", 0)
        assert small_campaign.dl_traces["V_Sp"][0].metadata.seed == session_seed(99, "V_Sp", 1)
        assert small_campaign.dl_traces["V_Sp"][1].metadata.seed == session_seed(99, "V_Sp", 2)

    def test_trace_regenerates_from_metadata_seed(self, small_campaign):
        trace = small_campaign.dl_traces["V_Sp"][1]
        regenerated = run_session(EU_PROFILES["V_Sp"], small_campaign.spec,
                                  "DL", trace.metadata.seed)
        assert np.array_equal(regenerated.delivered_bits, trace.delivered_bits)
        assert np.array_equal(regenerated.sinr_db, trace.sinr_db)
        assert regenerated.metadata.seed == trace.metadata.seed

    def test_sessions_stable_under_ul_fraction_change(self, small_campaign):
        # A session's seed depends only on (campaign seed, operator,
        # session index); re-running with ul_fraction=0 turns session 0
        # into a DL run but leaves sessions 1 and 2 bit-identical.
        profiles = {"V_Sp": EU_PROFILES["V_Sp"]}
        spec = CampaignSpec(minutes_per_operator=0.2, session_s=4.0,
                            seed=99, ul_fraction=0.0)
        all_dl = generate_campaign(profiles, spec)
        for original, shared in zip(small_campaign.dl_traces["V_Sp"],
                                    all_dl.dl_traces["V_Sp"][1:]):
            assert original.metadata.seed == shared.metadata.seed
            assert np.array_equal(original.delivered_bits, shared.delivered_bits)

    def test_sessions_stable_under_campaign_growth(self, small_campaign):
        # Doubling the campaign keeps the sessions it shares with the
        # smaller one unchanged (session 2 is DL in both shapes).
        profiles = {"V_Sp": EU_PROFILES["V_Sp"]}
        spec = CampaignSpec(minutes_per_operator=0.4, session_s=4.0, seed=99)
        bigger = generate_campaign(profiles, spec)
        small = small_campaign.dl_traces["V_Sp"][1]  # session index 2
        big = bigger.dl_traces["V_Sp"][0]            # session index 2 (n_ul=2)
        assert small.metadata.seed == big.metadata.seed
        assert np.array_equal(small.delivered_bits, big.delivered_bits)
