"""Integration tests: every experiment runs and reproduces the paper's
shape-level findings (orderings, ratios, signs, paper tolerances) in
quick mode."""

import numpy as np
import pytest

from repro import papertargets as targets
from repro.experiments import EXPERIMENT_IDS, run_experiment


@pytest.fixture(scope="module")
def results():
    """Run each experiment once per test session (quick mode)."""
    cache = {}

    def get(experiment_id):
        if experiment_id not in cache:
            cache[experiment_id] = run_experiment(experiment_id, seed=2024, quick=True)
        return cache[experiment_id]

    return get


class TestHarness:
    def test_registry_complete(self):
        # One experiment per table/figure of DESIGN.md's index, plus the
        # §8 network-aware and AI/ML prediction extensions.
        assert len(EXPERIMENT_IDS) == 28

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    @pytest.mark.parametrize("experiment_id", ["table1", "table2", "table3", "eq32"])
    def test_cheap_experiments_render(self, results, experiment_id):
        result = results(experiment_id)
        assert result.rows
        assert result.experiment_id in result.render()


class TestConfigurations:
    def test_table2_rows(self, results):
        data = results("table2").data
        assert data["V_Sp"][0]["n_rb"] == 245
        assert data["O_Sp_100"][0]["max_modulation"] == "QAM64"
        assert all(not rows[0]["ca"] for rows in data.values())
        # Row 7 of Table 2, verbatim.
        expected_nrb = {"O_Sp_100": 273, "O_Sp_90": 245, "V_Sp": 245, "O_Fr": 245,
                        "S_Fr": 217, "V_It": 217, "T_Ge": 245, "V_Ge": 217}
        for key, n_rb in expected_nrb.items():
            row = data[key][0]
            assert row["n_rb"] == n_rb, key
            assert row["band"] == "n78", key
            assert row["scs_khz"] == 30, key
            assert row["duplexing"] == "TDD", key

    def test_table3_rows(self, results):
        data = results("table3").data
        assert [c["n_rb"] for c in data["Tmb_US"]] == [273, 106, 51, 11]
        assert [c["duplexing"] for c in data["Tmb_US"]] == ["TDD", "TDD", "FDD", "FDD"]
        assert data["Att_US"][0]["bandwidth_mhz"] == 40
        assert data["Vzw_US"][0]["bandwidth_mhz"] == 60
        assert data["Tmb_US"][0]["ca"] and data["Vzw_US"][0]["ca"]
        assert data["Att_US"][0]["ca"] is False

    def test_eq32_matches_paper_values(self, results):
        data = results("eq32").data
        assert data["V_Sp_90MHz"]["two_layer_no_oh"] == pytest.approx(1213.44, rel=0.01)
        assert data["O_Sp_100MHz"]["two_layer_no_oh"] == pytest.approx(1352.12, rel=0.01)
        assert data["ratio"] == pytest.approx(273 / 245, rel=1e-4)
        # The TDD-adjusted ceiling sits above the paper's measured V_Sp mean.
        assert data["operators"]["V_Sp"]["primary_tdd_adjusted_mbps"] > 743.0


class TestFig1Fig2:
    def test_eu_means_within_band(self, results):
        data = results("fig01").data["eu"]
        assert set(data) == set(targets.FIG1_EU_DL_MBPS)
        for key, measured in data.items():
            paper = targets.FIG1_EU_DL_MBPS[key]
            assert measured == pytest.approx(paper, rel=0.20), key

    def test_eu_best_is_vit(self, results):
        data = results("fig01").data["eu"]
        assert max(data, key=data.get) == "V_It"
        assert data["V_Sp"] > data["O_Sp_100"]

    def test_us_ca_exceeds_1gbps_except_att(self, results):
        data = results("fig01").data["us"]
        assert data["Tmb_US"] > 1.0
        assert data["Vzw_US"] > 1.0
        assert data["Att_US"] < 0.6

    def test_fig2_gap(self, results):
        data = results("fig02").data
        for key, paper in targets.FIG2_SPAIN_CQI12_MBPS.items():
            assert data[key]["cqi12_mbps"] == pytest.approx(paper, rel=0.25), key
        # The headline: both 90 MHz carriers beat the 100 MHz carrier.
        assert data["V_Sp"]["cqi12_mbps"] > data["O_Sp_100"]["cqi12_mbps"]
        assert data["O_Sp_90"]["cqi12_mbps"] > data["O_Sp_100"]["cqi12_mbps"]
        assert 0.10 < data["gap"] < 0.45


class TestResourceDissection:
    def test_fig3_ordering(self, results):
        data = results("fig03").data
        # More REs on the wider channel: allocation does NOT explain Fig 2.
        assert data["O_Sp_100"]["mean_re"] > data["O_Sp_90"]["mean_re"]
        assert data["O_Sp_100"]["mean_re"] > data["V_Sp"]["mean_re"]
        # CDFs spread across allocations (not a point mass).
        for key in ("O_Sp_100", "V_Sp"):
            quantiles = data[key]["quantiles"]
            assert quantiles[90] > quantiles[10], key

    def test_fig4_near_max_everywhere(self, results):
        data = results("fig04").data
        for key, row in data.items():
            assert row["utilization"] > 0.9, key
            assert row["max_allocated"] <= row["configured_n_rb"], key

    def test_fig5_modulation_shares(self, results):
        data = results("fig05").data
        assert data["O_Sp_100"].get("256QAM", 0.0) == 0.0
        for key in ("V_Sp", "O_Sp_90"):
            assert 1.0 < data[key].get("256QAM", 0.0) < 20.0
            assert data[key].get("64QAM", 0.0) > 60.0

    def test_fig6_layer_shares(self, results):
        data = results("fig06").data
        # Paper shares: V_Sp 87.1%, O_Sp_90 83.8% 4-layer; O_Sp_100 13.8%
        # 4-layer and 74.1% 3-layer.
        assert data["V_Sp"].get(4, 0.0) == pytest.approx(87.1, abs=15.0)
        assert data["O_Sp_90"].get(4, 0.0) == pytest.approx(83.8, abs=15.0)
        assert data["O_Sp_100"].get(4, 0.0) == pytest.approx(13.8, abs=10.0)
        assert data["O_Sp_100"].get(3, 0.0) == pytest.approx(74.1, abs=15.0)

    def test_fig7_density_advantage(self, results):
        data = results("fig07").data
        vodafone = data["V_Sp (3 gNBs)"]
        orange = data["O_Sp (2 gNBs)"]
        assert vodafone["n_sites"] == 3 and orange["n_sites"] == 2
        assert vodafone["rsrq_p10"] >= orange["rsrq_p10"] - 0.5
        assert vodafone["share_4l"] > orange["share_4l"]
        assert vodafone["mean_tput_mbps"] > orange["mean_tput_mbps"]

    def test_fig8_interplay(self, results):
        data = results("fig08").data
        # O_Sp_100 leads on REs but trails on modulation, layers and throughput.
        assert data["O_Sp_100"]["mean_re"] > data["V_Sp"]["mean_re"]
        assert data["O_Sp_100"]["mean_modulation_order"] <= data["V_Sp"]["mean_modulation_order"]
        assert data["O_Sp_100"]["mean_layers"] < data["V_Sp"]["mean_layers"]
        assert data["O_Sp_100"]["tput_mbps"] < data["V_Sp"]["tput_mbps"]


class TestUplink:
    def test_fig9_all_below_120(self, results):
        data = results("fig09").data
        for key, row in data.items():
            if isinstance(row, dict):
                assert row["ul_mbps"] < 120.0, key

    def test_fig9_means_close(self, results):
        data = results("fig09").data
        for key, paper in targets.FIG9_EU_UL_MBPS.items():
            assert data[key]["ul_mbps"] == pytest.approx(paper, rel=0.30), key

    def test_fig9_weak_bandwidth_correlation(self, results):
        assert abs(results("fig09").data["bandwidth_correlation"]) < 0.6

    def test_fig10_lte_beats_tmobile_nr(self, results):
        data = results("fig10").data
        for condition in ("good", "poor"):
            assert data[condition]["LTE_US"] > data[condition]["Tmb_US"]

    def test_fig10_poor_degrades(self, results):
        data = results("fig10").data
        for key, paper in targets.FIG10_US_UL_MBPS["good"].items():
            assert data["good"][key] == pytest.approx(paper, rel=0.30), key
        for key in ("Att_US", "Vzw_US", "Tmb_US"):
            assert data["poor"][key] < data["good"][key]
        assert data["poor"]["Att_US"] < 6.0   # near-collapse (paper 0.3)


class TestLatency:
    def test_fig11_pattern_ordering(self, results):
        data = results("fig11").data
        assert data["V_It"]["bler0_ms"] > 2.0 * data["V_Ge"]["bler0_ms"]
        assert data["O_Fr"]["bler0_ms"] > 1.5 * data["T_Ge"]["bler0_ms"]

    def test_fig11_bler_tail(self, results):
        data = results("fig11").data
        for key, row in data.items():
            assert row["bler_pos_ms"] > row["bler0_ms"]

    def test_fig11_absolute_values(self, results):
        data = results("fig11").data
        for case in ("bler0", "bler_pos"):
            for key, paper in targets.FIG11_LATENCY_MS[case].items():
                assert data[key][f"{case}_ms"] == pytest.approx(paper, rel=0.25), key


class TestVariability:
    def test_fig12_ordering(self, results):
        data = results("fig12").data
        order = data["ordering_128ms"]
        assert order[0] == "O_Sp_100"
        assert order[-1] == "V_It"
        # V(t) stabilizes at coarse scales: the 2 s value sits below the peak.
        for key in ("O_Sp_100", "V_Sp", "V_It"):
            tput = data[key]["throughput"]["v"]
            assert tput[-1] < tput.max(), key

    def test_fig12_mimo_below_mcs(self, results):
        data = results("fig12").data
        for key in ("O_Sp_100", "V_Sp", "V_It"):
            mcs = data[key]["mcs"]["v"]
            mimo = data[key]["mimo"]["v"]
            n = min(mcs.size, mimo.size)
            assert np.all(mimo[2:n] <= mcs[2:n])
            assert np.median(mimo) < np.median(mcs), key

    def test_fig13_correlations(self, results):
        data = results("fig13").data
        assert data["corr_mcs"] > 0.5
        assert data["corr_mimo"] > 0.5
        assert data["rb_cv"] < 0.5 * data["mcs_cv"]

    def test_fig14_halving(self, results):
        data = results("fig14").data
        assert data["tput_ratio"] == pytest.approx(0.5, abs=0.15)
        assert data["rb_ratio"] == pytest.approx(0.5, abs=0.1)

    def test_fig14_variability_location_dependence(self, results):
        data = results("fig14").data
        # Farther UE B shows more MCS variability; competition does not
        # change per-UE variability much.
        assert data["sequential"]["B"]["v_mcs"] > data["sequential"]["A"]["v_mcs"]
        for label in ("A", "B"):
            seq = data["sequential"][label]["v_mcs"]
            sim = data["simultaneous"][label]["v_mcs"]
            assert sim == pytest.approx(seq, abs=max(1.0, 0.8 * seq)), label


class TestQoeExperiments:
    def test_fig15_correlations(self, results):
        data = results("fig15").data
        assert data["corr_bitrate"] > 0.5
        assert data["corr_stall"] > 0.0
        assert len(data["points"]) == 6

    def test_fig16_shape(self, results):
        data = results("fig16").data
        qoe = data["qoe"]
        assert 3.0 <= qoe.mean_quality_level <= 6.5
        assert qoe.stall_percentage < 30.0
        assert data["oscillation"] >= 0.0
        assert data["tput_60ms"].min() < 0.3 * data["tput_60ms"].mean()

    def test_fig17_stall_reduction(self, results):
        data = results("fig17").data
        for key in ("O_Fr", "V_Ge"):
            assert data[key]["stall_reduction"] > 0.3
            # Bitrate roughly preserved or improved with 1 s chunks.
            assert data[key]["bitrate_gain"] > -0.15

    def test_fig24_bola_best(self, results):
        data = results("fig24").data
        assert data["best"] == "Bola"
        for name in ("ThroughputBased", "DynamicAbr"):
            assert data["Bola"]["score"] >= data[name]["score"], name


class TestMmwave:
    def test_fig18_shapes(self, results):
        data = results("fig18").data
        for scenario in ("walking", "driving"):
            row = data[scenario]
            assert row["mmwave_gbps"] > row["midband_gbps"] * 0.8
            assert row["rv_mmwave"] > row["rv_midband"]
            assert row["stability_gain"] > 0.0
        # The mmWave advantage narrows under driving.
        walking_gap = data["walking"]["mmwave_gbps"] / data["walking"]["midband_gbps"]
        driving_gap = data["driving"]["mmwave_gbps"] / data["driving"]["midband_gbps"]
        assert driving_gap < walking_gap

    def test_fig19_shapes(self, results):
        data = results("fig19").data
        set_a = data["set_a"]
        assert set_a["mmwave"]["norm_bitrate"] >= set_a["midband"]["norm_bitrate"] - 0.05
        assert set_a["mmwave"]["stall_pct"] >= set_a["midband"]["stall_pct"] - 0.01
        set_b = data["set_b"]
        assert set_b["driving"]["bitrate_mbps"] <= set_b["walking"]["bitrate_mbps"]
        assert 0.3 <= set_b["driving"]["bitrate_tput_fraction"] <= 1.1

    def test_fig23_ca_monotone(self, results):
        data = results("fig23").data
        means = [row["mean_gbps"] for row in data.values()]
        assert means == sorted(means)
        assert means[-1] > 1.0
        assert means[0] < means[-1] * 0.8
        peaks = [row["peak_gbps"] for row in data.values()]
        assert peaks[-1] > means[-1]


class TestCampaign:
    def test_table1_statistics(self, results):
        data = results("table1").data
        assert data["minutes"] > 0
        assert len(data["operators"]) == 11
        assert set(data["countries"]) == {"Spain", "France", "Italy", "Germany", "USA"}


class TestExtensions:
    def test_ext_network_aware(self, results):
        data = results("ext_aware").data
        # Network awareness cuts stalls relative to plain BOLA ...
        assert data["aware"]["stall_pct"] <= data["bola"]["stall_pct"]
        assert data["stall_reduction"] > 0.0
        # ... at a bounded bitrate cost.
        assert data["aware"]["norm_bitrate"] > 0.8 * data["bola"]["norm_bitrate"]

    def test_ext_prediction(self, results):
        data = results("ext_predict").data
        # Ridge-over-persistence beats persistence on a held-out session.
        assert data["improvement"] > 0.05
        assert data["model_mae"] < data["baseline_mae"]
        # PHY features (not just throughput history) drive the residual model.
        importance = data["importance"]
        phy_weight = importance["mcs_mean"] + importance["cqi_mean"] + importance["layers_mean"]
        assert phy_weight > 0.0

    def test_ext_e2e_latency(self, results):
        data = results("ext_e2e").data
        for key in ("V_Ge", "V_It"):
            row = data[key]
            # Deeper placement tiers cost strictly more RTT.
            assert row["wavelength"] < row["edge"] < row["metro"] < row["regional"], key
        # The Fig. 11 ordering holds at every placement tier.
        for tier in ("wavelength", "edge", "metro", "regional"):
            assert data["V_It"][tier] > data["V_Ge"][tier], tier
