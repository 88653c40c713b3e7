"""Tests for repro.ran.amc — BLER model, OLLA, rank adaptation."""

import numpy as np
import pytest

from repro.ran.amc import BlerModel, Olla, RankAdapter


class TestBlerModel:
    def test_monotone_in_mcs_efficiency(self):
        model = BlerModel()
        probabilities = model.error_probability(np.array([1.0, 3.0, 5.0]), 15.0)
        assert np.all(np.diff(probabilities) > 0)

    def test_monotone_in_sinr(self):
        model = BlerModel()
        probabilities = np.array([float(model.error_probability(3.0, s)) for s in (5.0, 10.0, 20.0)])
        assert np.all(np.diff(probabilities) < 0)

    def test_scheduling_far_below_capacity_is_safe(self):
        model = BlerModel()
        assert float(model.error_probability(1.0, 25.0)) < 0.001

    def test_scheduling_above_capacity_fails(self):
        model = BlerModel()
        assert float(model.error_probability(6.0, 5.0)) > 0.99

    def test_draw_errors_rate(self, rng):
        model = BlerModel()
        # Find the efficiency with p ~ 0.5 at 15 dB and check the draws.
        eff = float(0.6 * np.log2(1 + 10 ** 1.5)) + model.bias
        errors = model.draw_errors(np.full(50_000, eff), np.full(50_000, 15.0), rng)
        assert errors.mean() == pytest.approx(0.5, abs=0.02)


class TestOlla:
    def test_asymmetric_steps(self):
        olla = Olla(target_bler=0.1, step_down=0.9)
        assert olla.step_up == pytest.approx(0.1)

    def test_ack_nack_updates(self):
        olla = Olla(step_down=0.5)
        olla.update(acked=False)
        assert olla.delta == pytest.approx(-0.5)
        olla.update(acked=True)
        assert olla.delta == pytest.approx(-0.5 + 0.5 / 9)

    def test_zero_drift_at_target(self):
        # Deterministic ACK/NACK stream at exactly the target rate has
        # zero net drift (the equilibrium property; the closed BLER loop
        # provides the restoring force in the full simulator).
        olla = Olla(target_bler=0.1, step_down=0.2)
        for i in range(1000):
            olla.update(acked=(i % 10 != 0))
        assert abs(olla.delta) < 0.25

    def test_biased_stream_drifts(self):
        olla = Olla(target_bler=0.1, step_down=0.2)
        for _ in range(100):
            olla.update(acked=False)
        assert olla.delta == olla.min_offset

    def test_batch_matches_sequential(self):
        sequential = Olla(step_down=0.3)
        batch = Olla(step_down=0.3)
        for _ in range(7):
            sequential.update(True)
        for _ in range(2):
            sequential.update(False)
        batch.update_batch(7, 2)
        assert batch.delta == pytest.approx(sequential.delta)

    def test_offset_rounding(self):
        olla = Olla()
        olla.delta = -1.4
        assert olla.offset == -1
        olla.delta = -1.6
        assert olla.offset == -2

    def test_clamping(self):
        olla = Olla(step_down=5.0, min_offset=-10.0)
        for _ in range(10):
            olla.update(False)
        assert olla.delta == -10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Olla(target_bler=0.0)
        with pytest.raises(ValueError):
            Olla(step_down=0.0)
        with pytest.raises(ValueError):
            Olla().update_batch(-1, 0)


class TestRankAdapter:
    def test_thresholds(self):
        adapter = RankAdapter(thresholds_db=(5.0, 11.0, 17.0), hysteresis_db=0.0)
        assert adapter.rank_for_sinr(0.0) == 1
        assert adapter.rank_for_sinr(6.0) == 2
        assert adapter.rank_for_sinr(12.0) == 3
        assert adapter.rank_for_sinr(20.0) == 4

    def test_bias_shifts_thresholds(self):
        neutral = RankAdapter(hysteresis_db=0.0)
        biased = RankAdapter(bias_db=5.0, hysteresis_db=0.0)
        assert neutral.rank_for_sinr(18.0) == 4
        assert biased.rank_for_sinr(18.0) == 3

    def test_hysteresis_keeps_rank(self):
        adapter = RankAdapter(thresholds_db=(5.0, 11.0, 17.0), hysteresis_db=2.0)
        # 16 dB is below the rank-4 threshold, but a UE already at rank 4
        # keeps it within the hysteresis margin.
        assert adapter.rank_for_sinr(16.0, previous_rank=4) == 4
        assert adapter.rank_for_sinr(16.0, previous_rank=1) == 3

    def test_max_layers_cap(self):
        adapter = RankAdapter(max_layers=2)
        assert adapter.rank_for_sinr(30.0) == 2

    def test_rank_series_sequential(self):
        adapter = RankAdapter(hysteresis_db=1.0)
        sinr = np.array([20.0, 20.0, 16.5, 10.0, 20.0])
        ranks = adapter.rank_series(sinr)
        assert ranks[0] == 4
        assert ranks[2] == 4  # hysteresis holds
        assert ranks[3] < 4

    def test_validation(self):
        with pytest.raises(ValueError):
            RankAdapter(thresholds_db=(10.0, 5.0, 17.0))
        with pytest.raises(ValueError):
            RankAdapter(max_layers=0)

