"""Tests for repro.ran.ca, repro.ran.lte and repro.ran.nsa."""

import numpy as np
import pytest

from repro.channel.blockage import BlockageProcess
from repro.channel.model import SyntheticChannel
from repro.nr.tdd import TddPattern
from repro.ran.ca import AggregatedResult, CarrierAggregation
from repro.ran.config import CellConfig
from repro.ran.lte import LTE_NRB, LteCellConfig, simulate_lte_uplink
from repro.ran.nsa import NsaUplink
from repro.ran.simulator import simulate_downlink


def _cells():
    pattern = TddPattern.from_string("DDDSU")
    return [
        CellConfig(name="cc0", band_name="n41", bandwidth_mhz=100, tdd=pattern),
        CellConfig(name="cc1", band_name="n41", bandwidth_mhz=40, tdd=pattern),
    ]


class TestCarrierAggregation:
    def test_aggregate_bandwidth(self):
        ca = CarrierAggregation(carriers=_cells())
        assert ca.aggregate_bandwidth_mhz == 140.0

    def test_aggregate_exceeds_primary(self, rng):
        ca = CarrierAggregation(carriers=_cells())
        base = SyntheticChannel(mean_sinr_db=20.0)
        result = ca.simulate_downlink(base, 3.0, rng=rng)
        primary_alone = simulate_downlink(_cells()[0], base.realize(3.0, rng=np.random.default_rng(7)),
                                          rng=np.random.default_rng(7))
        assert result.mean_throughput_mbps > primary_alone.mean_throughput_mbps

    def test_per_carrier_offsets(self, rng):
        ca = CarrierAggregation(carriers=_cells(), sinr_offsets_db=[0.0, -15.0])
        result = ca.simulate_downlink(SyntheticChannel(mean_sinr_db=20.0), 3.0, rng=rng)
        # The degraded secondary contributes much less per MHz.
        primary, secondary = result.per_carrier
        per_mhz_primary = primary.mean_throughput_mbps / 100.0
        per_mhz_secondary = secondary.mean_throughput_mbps / 40.0
        assert per_mhz_secondary < 0.7 * per_mhz_primary

    def test_throughput_series_sums(self, rng):
        ca = CarrierAggregation(carriers=_cells())
        result = ca.simulate_downlink(SyntheticChannel(mean_sinr_db=18.0), 2.0, rng=rng)
        series = result.throughput_mbps(500.0)
        assert series.size == 4
        assert series.mean() == pytest.approx(result.mean_throughput_mbps, rel=0.1)

    def test_shared_blockage_hits_all_carriers(self):
        blockage = BlockageProcess(blockage_rate_hz=2.0, mean_blockage_duration_s=0.3,
                                   blockage_attenuation_db=40.0)
        ca = CarrierAggregation(carriers=_cells())
        base = SyntheticChannel(mean_sinr_db=22.0, blockage=blockage)
        result = ca.simulate_downlink(base, 5.0, rng=np.random.default_rng(3))
        series = result.throughput_mbps(100.0)
        # Common outages produce near-zero aggregate bins.
        assert series.min() < 0.15 * series.mean()

    def test_shared_blockage_series_is_not_modified(self, monkeypatch):
        """Each carrier subtracts the shared attenuation from its own
        SINR; the shared series itself stays as drawn."""
        blockage = BlockageProcess(blockage_rate_hz=2.0, mean_blockage_duration_s=0.3,
                                   blockage_attenuation_db=40.0)
        seen = []
        realize = SyntheticChannel.realize

        def recording(self, *args, extra_attenuation_db=None, **kwargs):
            seen.append((extra_attenuation_db, extra_attenuation_db.copy()))
            return realize(self, *args, extra_attenuation_db=extra_attenuation_db, **kwargs)

        monkeypatch.setattr(SyntheticChannel, "realize", recording)
        ca = CarrierAggregation(carriers=_cells())
        ca.simulate_downlink(SyntheticChannel(mean_sinr_db=22.0, blockage=blockage), 2.0,
                             rng=np.random.default_rng(3))
        assert len(seen) == 2 and seen[0][0] is seen[1][0]
        for shared, drawn in seen:
            assert shared.tobytes() == drawn.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            CarrierAggregation(carriers=[])
        with pytest.raises(ValueError):
            CarrierAggregation(carriers=_cells(), sinr_offsets_db=[0.0])
        with pytest.raises(ValueError):
            AggregatedResult(per_carrier=[])


class TestLte:
    def test_nrb_table(self):
        assert LTE_NRB[20] == 100
        assert LTE_NRB[10] == 50

    def test_rate_monotone_in_sinr(self):
        config = LteCellConfig()
        rates = config.ul_rate_mbps(np.array([0.0, 10.0, 20.0]))
        assert np.all(np.diff(rates) > 0)

    def test_rate_capped(self):
        config = LteCellConfig(ul_max_efficiency=4.3)
        # Huge SINR saturates at the modulation ceiling.
        ceiling = 4.3 * 100 * 0.18 * (1 - 2 / 14)
        assert float(config.ul_rate_mbps(60.0)) == pytest.approx(ceiling)

    def test_lte_ul_realistic_peak(self):
        # A 20 MHz LTE UL peaks in the tens of Mbps (Fig. 10's ~72 Mbps).
        assert 50.0 < float(LteCellConfig().ul_rate_mbps(30.0)) < 80.0

    def test_simulate_applies_harq_losses(self, rng):
        config = LteCellConfig()
        series = simulate_lte_uplink(config, np.full(5000, 20.0), rng=rng, bler_target=0.1)
        clean_rate = float(config.ul_rate_mbps(20.0))
        assert series.max() == pytest.approx(clean_rate)
        assert series.mean() == pytest.approx(clean_rate * 0.95, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            LteCellConfig(bandwidth_mhz=7.0)
        with pytest.raises(ValueError):
            simulate_lte_uplink(LteCellConfig(), np.ones(10), subframe_ms=0.0)


class TestNsa:
    @pytest.fixture
    def nr_cell(self):
        return CellConfig(name="nr", bandwidth_mhz=90, tdd=TddPattern.from_string("DDDSU"))

    def test_nr_only(self, nr_cell, rng):
        nsa = NsaUplink(nr_cell=nr_cell, nr_fraction=1.0)
        result = nsa.simulate(SyntheticChannel(mean_sinr_db=12.0).realize(2.0, rng=rng), rng=rng)
        assert result.nr_mean_mbps > 0
        assert result.lte_mean_mbps == 0.0

    def test_lte_only(self, nr_cell, rng):
        nsa = NsaUplink(nr_cell=nr_cell, nr_fraction=0.0)
        result = nsa.simulate(SyntheticChannel(mean_sinr_db=5.0).realize(2.0, rng=rng), rng=rng)
        assert result.nr_mean_mbps == 0.0
        assert result.lte_mean_mbps > 0

    def test_split_bearer_uses_both(self, nr_cell, rng):
        nsa = NsaUplink(nr_cell=nr_cell, nr_fraction=0.5)
        result = nsa.simulate(SyntheticChannel(mean_sinr_db=10.0).realize(2.0, rng=rng), rng=rng)
        assert result.nr_mean_mbps > 0
        assert result.lte_mean_mbps > 0
        assert result.total_mean_mbps == pytest.approx(
            result.nr_mean_mbps + result.lte_mean_mbps)

    def test_lte_offset_improves_lte_leg(self, nr_cell):
        channel = SyntheticChannel(mean_sinr_db=0.0).realize(2.0, rng=np.random.default_rng(5))
        weak = NsaUplink(nr_cell=nr_cell, nr_fraction=0.0, lte_sinr_offset_db=5.0).simulate(
            channel, rng=np.random.default_rng(6))
        strong = NsaUplink(nr_cell=nr_cell, nr_fraction=0.0, lte_sinr_offset_db=20.0).simulate(
            channel, rng=np.random.default_rng(6))
        assert strong.lte_mean_mbps > weak.lte_mean_mbps

    def test_fraction_validation(self, nr_cell):
        with pytest.raises(ValueError):
            NsaUplink(nr_cell=nr_cell, nr_fraction=1.5)
