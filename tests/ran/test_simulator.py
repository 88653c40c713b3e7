"""Tests for repro.ran.simulator — the slot-level link simulation."""

from collections import deque

import numpy as np
import pytest

from repro.channel.model import SyntheticChannel
from repro.nr.mcs import Modulation
from repro.nr.tdd import TddPattern
from repro.ran.amc import RankAdapter
from repro.ran.config import CellConfig
from repro.ran.scheduler import ProportionalFairScheduler, RoundRobinScheduler
from repro.ran.simulator import (
    SLOT_DL,
    SLOT_SPECIAL,
    SLOT_UL,
    SimParams,
    simulate_downlink,
    simulate_downlink_multi,
    simulate_uplink,
)


def _channel(mean_db, duration=3.0, seed=1, mu=None):
    from repro.nr.numerology import Numerology

    return SyntheticChannel(mean_sinr_db=mean_db).realize(
        duration, mu=mu or Numerology.MU_1, rng=np.random.default_rng(seed))


class TestDownlinkBasics:
    def test_trace_length_matches_channel(self, cell_90mhz, good_channel, rng):
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng)
        assert len(trace) == good_channel.n_slots

    def test_ul_slots_never_scheduled(self, cell_90mhz, good_channel, rng):
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng)
        assert not trace.scheduled[trace.slot_type == SLOT_UL].any()

    def test_dl_slots_fully_used(self, cell_90mhz, good_channel, rng):
        # Full-buffer: every DL slot carries a grant.
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng)
        dl = trace.slot_type == SLOT_DL
        assert trace.scheduled[dl].mean() > 0.99

    def test_special_slots_carry_smaller_tbs(self, cell_90mhz, good_channel, rng):
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng)
        special = trace.scheduled & (trace.slot_type == SLOT_SPECIAL) & ~trace.is_retx
        full = trace.scheduled & (trace.slot_type == SLOT_DL) & ~trace.is_retx
        assert trace.tbs_bits[special].mean() < 0.7 * trace.tbs_bits[full].mean()

    def test_bler_converges_to_target(self, cell_90mhz, rng):
        channel = _channel(20.0, duration=10.0)
        trace = simulate_downlink(cell_90mhz, channel, rng=rng)
        assert trace.bler == pytest.approx(0.10, abs=0.035)

    def test_throughput_increases_with_sinr(self, cell_90mhz, rng):
        low = simulate_downlink(cell_90mhz, _channel(8.0), rng=np.random.default_rng(2))
        high = simulate_downlink(cell_90mhz, _channel(24.0), rng=np.random.default_rng(2))
        assert high.mean_throughput_mbps > 1.5 * low.mean_throughput_mbps

    def test_retransmissions_recover_bits(self, cell_90mhz, good_channel, rng):
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng)
        assert trace.is_retx.sum() > 0
        retx_ok = trace.is_retx & (trace.delivered_bits > 0)
        assert retx_ok.sum() > 0.5 * trace.is_retx.sum()

    def test_deterministic_given_seed(self, cell_90mhz):
        channel = _channel(18.0, seed=3)
        a = simulate_downlink(cell_90mhz, channel, rng=np.random.default_rng(9))
        b = simulate_downlink(cell_90mhz, channel, rng=np.random.default_rng(9))
        assert np.array_equal(a.delivered_bits, b.delivered_bits)

    def test_cqi_forward_filled(self, cell_90mhz, good_channel, rng):
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng)
        assert (trace.cqi > 0).all()

    def test_rank_respects_cell_cap(self, good_channel, rng):
        cell = CellConfig(name="2x2", bandwidth_mhz=90, max_layers=2,
                          tdd=TddPattern.from_string("DDDSU"))
        trace = simulate_downlink(cell, good_channel, rng=rng)
        assert trace.layers[trace.scheduled].max() <= 2

    def test_background_load_varies_allocations(self, cell_90mhz, good_channel, rng):
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng)
        sched = trace.scheduled_view()
        assert np.unique(sched.n_prb).size > 1
        assert sched.n_prb.max() <= cell_90mhz.grantable_rb

    def test_no_background_gives_constant_grants(self, cell_90mhz, good_channel, rng):
        params = SimParams(background_rb_mean=0.0, background_rb_sigma=0.0)
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng, params=params)
        sched = trace.scheduled_view()
        assert np.unique(sched.n_prb).size == 1


class TestModulationBehaviour:
    def test_64qam_cell_never_uses_256(self, good_channel, rng):
        cell = CellConfig(name="qam64", bandwidth_mhz=100,
                          max_modulation=Modulation.QAM64,
                          tdd=TddPattern.from_string("DDDSU"))
        trace = simulate_downlink(cell, good_channel, rng=rng)
        assert trace.modulation_order[trace.scheduled].max() <= 6

    def test_dci_fallback_under_poor_conditions(self, cell_90mhz, rng):
        poor = _channel(-2.0, duration=4.0)
        trace = simulate_downlink(cell_90mhz, poor, rng=rng)
        sched = trace.scheduled.astype(bool)
        # Some share of grants should use DCI 1_0 (code 0) when CQI dips.
        assert (trace.dci_format[sched] == 0).any()

    def test_good_conditions_use_1_1(self, cell_90mhz, good_channel, rng):
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng)
        sched = trace.scheduled.astype(bool)
        assert (trace.dci_format[sched] == 1).mean() > 0.95

    def test_64qam_cell_schedules_with_dci_1_0(self, good_channel, rng):
        # A 64QAM-only cell has no 256QAM table to address: every grant
        # is DCI 1_0 (code 0), however good the channel.
        cell = CellConfig(name="qam64", bandwidth_mhz=100,
                          max_modulation=Modulation.QAM64,
                          tdd=TddPattern.from_string("DDDSU"))
        trace = simulate_downlink(cell, good_channel, rng=rng)
        sched = trace.scheduled.astype(bool)
        assert sched.any()
        assert (trace.dci_format[sched] == 0).all()


class TestCsiReports:
    """One CSI report per CQI period sets that period's grants
    (appendix 10.2's CSI -> DCI exchange)."""

    def test_one_report_per_period(self, cell_90mhz, good_channel, rng):
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng)
        period = cell_90mhz.cqi_period_slots
        sched = trace.scheduled.astype(bool)
        for start in range(0, len(trace), period):
            in_period = sched[start:start + period]
            for column in (trace.cqi, trace.mcs_index, trace.layers, trace.dci_format):
                assert np.unique(column[start:start + period][in_period]).size == 1

    def test_cqi_reports_the_delayed_channel(self, cell_90mhz, good_channel, rng):
        # Noise-free, period p reports the CQI of the SINR
        # ``cqi_delay_slots`` before it starts (clamped at slot 0).
        from repro.nr.cqi import CQI_MAX
        from repro.nr.signal import sinr_to_cqi

        params = SimParams(cqi_noise_db=0.0)
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng, params=params)
        period = cell_90mhz.cqi_period_slots
        starts = np.arange(0, len(trace), period)

        def reported(slots):
            cqi = sinr_to_cqi(good_channel.sinr_db[slots], cell_90mhz.cqi_table,
                              alpha=params.cqi_alpha)
            return np.minimum(cqi, CQI_MAX)

        expected = reported(np.maximum(starts - params.cqi_delay_slots, 0))
        assert (expected != reported(starts)).any()  # the delay is visible
        sched = trace.scheduled.astype(bool)
        for p, start in enumerate(starts):
            in_period = sched[start:start + period]
            assert (trace.cqi[start:start + period][in_period] == expected[p]).all()

    def test_measurement_noise_moves_reports(self, cell_90mhz, good_channel):
        clean, noisy = (
            simulate_downlink(cell_90mhz, good_channel, rng=np.random.default_rng(7),
                              params=SimParams(cqi_noise_db=noise_db))
            for noise_db in (0.0, 3.0))
        assert not np.array_equal(clean.cqi, noisy.cqi)

    def test_reports_follow_channel_quality(self, cell_90mhz):
        good = simulate_downlink(cell_90mhz, _channel(28.0), rng=np.random.default_rng(3))
        poor = simulate_downlink(cell_90mhz, _channel(-5.0), rng=np.random.default_rng(3))
        good_sched = good.scheduled.astype(bool)
        poor_sched = poor.scheduled.astype(bool)
        assert np.median(good.cqi[good_sched]) >= 12
        assert (good.layers[good_sched] == 4).mean() > 0.9
        assert np.median(poor.cqi[poor_sched]) <= 3
        assert (poor.layers[poor_sched] == 1).all()


class TestUplink:
    def test_ul_uses_ul_slots_only(self, cell_90mhz, good_channel, rng):
        trace = simulate_uplink(cell_90mhz, good_channel, rng=rng)
        assert not trace.scheduled[trace.slot_type == SLOT_DL].any()

    def test_ul_much_slower_than_dl(self, cell_90mhz, good_channel):
        dl = simulate_downlink(cell_90mhz, good_channel, rng=np.random.default_rng(1))
        ul = simulate_uplink(cell_90mhz, good_channel, rng=np.random.default_rng(1))
        # §4.2's asymmetry: UL far below DL on the same channel.
        assert ul.mean_throughput_mbps < 0.5 * dl.mean_throughput_mbps

    def test_ul_layer_cap(self, cell_90mhz, good_channel, rng):
        trace = simulate_uplink(cell_90mhz, good_channel, rng=rng, max_layers=2)
        assert trace.layers[trace.scheduled].max() <= 2

    def test_ul_uses_64qam_table(self, cell_90mhz, good_channel, rng):
        trace = simulate_uplink(cell_90mhz, good_channel, rng=rng)
        assert trace.modulation_order[trace.scheduled].max() <= 6


class TestFddCarrier:
    def test_fdd_dl_all_slots(self, cell_fdd, rng):
        channel = _channel(20.0, mu=cell_fdd.mu)
        trace = simulate_downlink(cell_fdd, channel, rng=rng)
        assert (trace.slot_type == SLOT_DL).all()
        assert trace.scheduled.mean() > 0.99

    def test_fdd_ul_all_slots(self, cell_fdd, rng):
        channel = _channel(20.0, mu=cell_fdd.mu)
        trace = simulate_uplink(cell_fdd, channel, rng=rng)
        assert (trace.slot_type == SLOT_UL).all()


class TestMultiUser:
    def test_two_ues_split_resources(self, cell_90mhz, rng):
        channels = [_channel(20.0, seed=1), _channel(20.0, seed=2)]
        traces = simulate_downlink_multi(cell_90mhz, channels, RoundRobinScheduler(), rng=rng)
        solo = simulate_downlink(cell_90mhz, _channel(20.0, seed=1), rng=np.random.default_rng(1))
        for trace in traces:
            ratio = trace.mean_throughput_mbps / solo.mean_throughput_mbps
            assert 0.3 < ratio < 0.7  # roughly half (Fig. 14)

    def test_rb_shares_sum_within_budget(self, cell_90mhz, rng):
        channels = [_channel(18.0, seed=1), _channel(18.0, seed=2)]
        traces = simulate_downlink_multi(cell_90mhz, channels, RoundRobinScheduler(), rng=rng)
        total = traces[0].n_prb + traces[1].n_prb
        assert total.max() <= cell_90mhz.grantable_rb

    def test_requires_channels(self, cell_90mhz, rng):
        with pytest.raises(ValueError):
            simulate_downlink_multi(cell_90mhz, [], RoundRobinScheduler(), rng=rng)


class TestProportionalFairMulti:
    def test_starved_ue_recovers(self, cell_90mhz):
        # Regression (PF starvation): a UE entering with a stuck-high
        # EWMA gets no RBs at first; zero-bit decay on unscheduled slots
        # must bring it back to an even share instead of starving it
        # for the whole run.
        scheduler = ProportionalFairScheduler()
        scheduler.averages = {0: 1.0, 1: 1e15}
        channels = [_channel(20.0, seed=1), _channel(20.0, seed=2)]
        traces = simulate_downlink_multi(cell_90mhz, channels, scheduler,
                                         rng=np.random.default_rng(5))
        assert traces[1].scheduled.sum() > 0
        n = len(traces[0])
        tail = slice(int(0.8 * n), n)
        rb0 = int(traces[0].n_prb[tail].sum())
        rb1 = int(traces[1].n_prb[tail].sum())
        assert rb1 > 0.35 * (rb0 + rb1)

    def test_deep_fade_share_recovers(self, cell_90mhz):
        # One UE drops into a deep fade mid-run; once the channel comes
        # back its RB share must return to roughly half (Fig. 14's even
        # split), which requires its EWMA to have decayed during the fade.
        channels = [_channel(22.0, seed=1), _channel(22.0, seed=2)]
        n = channels[1].n_slots
        channels[1].sinr_db[n // 4: n // 2] -= 35.0
        traces = simulate_downlink_multi(cell_90mhz, channels,
                                         ProportionalFairScheduler(),
                                         rng=np.random.default_rng(6))
        tail = slice(int(0.8 * n), n)
        rb0 = int(traces[0].n_prb[tail].sum())
        rb1 = int(traces[1].n_prb[tail].sum())
        assert 0.35 < rb1 / max(1, rb0 + rb1) < 0.65


class TestHarqSpecialSlots:
    def test_special_slot_retx_fits_special_tbs(self, cell_90mhz, rng):
        # Regression: a retransmission may land in a special slot only
        # if the slot's (shorter) TBS can carry the pending block; an
        # oversized block defers to the next full DL slot.
        from repro.nr.mcs import MCS_TABLE_64QAM
        from repro.nr.tbs import transport_block_size

        channel = _channel(14.0, duration=10.0)
        trace = simulate_downlink(cell_90mhz, channel, rng=rng)
        assert trace.is_retx.sum() > 0
        symbols = cell_90mhz.tdd.special.dl_symbols
        for i in np.flatnonzero(trace.is_retx & (trace.slot_type == SLOT_SPECIAL)):
            table = MCS_TABLE_64QAM if trace.dci_format[i] == 0 else cell_90mhz.mcs_table
            entry = table[int(trace.mcs_index[i])]
            cap = transport_block_size(int(trace.n_prb[i]), entry,
                                       int(trace.layers[i]), symbols=symbols)
            assert trace.tbs_bits[i] <= cap


def _harq_blocks(trace, params):
    """Replay a trace's HARQ exchange and return, per finished block,
    ``(transmissions, last_failed)``.

    Every failed transmission queues its block ``harq_rtt_slots`` later;
    a block failing its ``max_attempts``-th transmission is dropped.
    With one RTT and one transmission per slot the queue is FIFO, so
    each retransmission must serve the oldest queued block: it must be
    due and carry that block's TBS, and no due block may wait through
    a full DL slot.  A simulator that sent a block more often than the
    cap, or dropped it earlier, breaks one of these.
    """
    queue: deque = deque()
    blocks = []
    for i in range(len(trace)):
        if queue and queue[0][0] <= i and trace.slot_type[i] == SLOT_DL:
            assert trace.is_retx[i], f"block due at {queue[0][0]} skipped at {i}"
        if trace.is_retx[i]:
            due, tbs, sent = queue.popleft()
            assert due <= i and trace.tbs_bits[i] == tbs
            sent += 1
        elif trace.scheduled[i]:
            tbs, sent = int(trace.tbs_bits[i]), 1
        else:
            continue
        failed = bool(trace.error[i])
        assert trace.delivered_bits[i] == (0 if failed else tbs)
        if failed and sent < params.max_attempts:
            queue.append((i + params.harq_rtt_slots, tbs, sent))
        else:
            blocks.append((sent, failed))
    return blocks


class TestHarqAttemptCap:
    @pytest.mark.parametrize("engine", ["reference", ""], ids=["reference", "policy"])
    @pytest.mark.parametrize("max_attempts", [1, 2, 3])
    def test_block_sent_at_most_max_attempts_times(self, cell_90mhz, engine,
                                                   max_attempts, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        params = SimParams(max_attempts=max_attempts, retx_error_scale=1.0)
        trace = simulate_downlink(cell_90mhz, _channel(0.0),
                                  rng=np.random.default_rng(3), params=params)
        blocks = _harq_blocks(trace, params)
        assert max(sent for sent, _ in blocks) == max_attempts
        if max_attempts == 1:  # a failed new transmission is dropped at once
            assert not trace.is_retx.any()
            assert (1, True) in blocks
            return
        # Some blocks fail every attempt and are dropped; others recover
        # on their first retransmission.
        assert (max_attempts, True) in blocks
        assert (2, False) in blocks


class TestParamsValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            SimParams(harq_rtt_slots=0)
        with pytest.raises(ValueError):
            SimParams(max_attempts=0)
        with pytest.raises(ValueError):
            SimParams(retx_error_scale=1.5)

    def test_olla_disabled_runs(self, cell_90mhz, good_channel, rng):
        params = SimParams(olla_enabled=False)
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng, params=params)
        assert trace.mean_throughput_mbps > 0

    def test_rank_bias_reduces_layers(self, cell_90mhz, good_channel):
        neutral = simulate_downlink(cell_90mhz, good_channel,
                                    rng=np.random.default_rng(4),
                                    params=SimParams(rank_adapter=RankAdapter()))
        biased = simulate_downlink(cell_90mhz, good_channel,
                                   rng=np.random.default_rng(4),
                                   params=SimParams(rank_adapter=RankAdapter(bias_db=8.0)))
        assert biased.layers[biased.scheduled].mean() < neutral.layers[neutral.scheduled].mean()


class TestNativeInputCheck:
    """``_native_periods`` checks each row against the one element type
    and length the C struct declares, before the compiled loop can touch
    it."""

    def test_wrong_dtype_trace_column_raises_before_the_loop(
            self, cell_90mhz, good_channel, rng, monkeypatch):
        from repro.ran import _native, simulator
        from repro.xcal.records import SlotTrace

        calls = []
        monkeypatch.setattr(simulator, "resolve_engine", lambda: "native")
        monkeypatch.setattr(_native, "load_kernel",
                            lambda: lambda *args: calls.append(args))
        empty = SlotTrace.empty

        def widened(*args, **kwargs):
            trace = empty(*args, **kwargs)
            trace.n_prb = trace.n_prb.astype(np.int64)
            return trace

        monkeypatch.setattr(SlotTrace, "empty", widened)
        with pytest.raises(TypeError, match="'t_n_prb'.*int16"):
            simulate_downlink(cell_90mhz, good_channel, rng=rng)
        assert calls == []

    #: Row sizes of a 6-slot session at 4-slot periods, by length class.
    _SIZES = {"n_slots": 6, "n_periods": 2, "period": 4, "period + 1": 5}

    def _row(self, name, dtype=None, size=None):
        from repro.ran._native import ROW_DTYPES, ROW_LENGTHS

        if size is None:
            size = self._SIZES.get(ROW_LENGTHS.get(name), 3)
        return np.zeros(size, dtype=dtype or ROW_DTYPES[name])

    @pytest.mark.parametrize("name,dtype", [("cqi", np.uint8), ("usable", np.int64),
                                            ("t_tbs_bits", np.int64), ("t_error", np.int8),
                                            ("measured", np.float32),
                                            ("eff_cap", np.float32), ("eff_lut", np.float32),
                                            ("pe", np.float32)])
    def test_each_row_takes_one_dtype(self, name, dtype):
        from repro.ran.simulator import _check_native_rows

        _check_native_rows({name: self._row(name)}, 6, 4)
        with pytest.raises(TypeError, match=repr(name)):
            _check_native_rows({name: self._row(name, dtype)}, 6, 4)

    def test_short_trace_row_rejected(self):
        from repro.ran.simulator import _check_native_rows

        with pytest.raises(TypeError, match="'t_cqi' holds 3 elements"):
            _check_native_rows({"t_cqi": np.zeros(3, dtype=np.int8)}, 4, 4)

    @pytest.mark.parametrize("name,length", [
        ("uniforms", 6), ("retx_uniforms", 6), ("usable", 6), ("special", 6),
        ("eff_cap", 6), ("measured", 2), ("cqi", 2), ("prb", 2), ("grant", 2),
        ("pe", 4)])
    def test_short_input_row_rejected(self, name, length):
        """Every row the loop reads is length-checked: one element short
        would be read past its end."""
        from repro.ran.simulator import _check_native_rows

        _check_native_rows({name: self._row(name, size=length)}, 6, 4)
        with pytest.raises(TypeError, match=f"{name!r} holds {length - 1} elements"):
            _check_native_rows({name: self._row(name, size=length - 1)}, 6, 4)
