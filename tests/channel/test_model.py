"""Tests for repro.channel.model — the composite SINR engines."""

import numpy as np
import pytest

from repro.channel.blockage import BlockageProcess
from repro.channel.mobility import Position, Stationary, Walking
from repro.channel.model import ChannelModel, ChannelRealization, GnbSite, SyntheticChannel
from repro.nr.numerology import Numerology


class TestRealizationContainer:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="length mismatch"):
            ChannelRealization(
                sinr_db=np.zeros(10), rsrp_dbm=np.zeros(9),
                rsrq_db=np.zeros(10), serving_cell=np.zeros(10, dtype=int),
            )

    def test_duration_and_times(self):
        realization = SyntheticChannel().realize(1.0)
        assert realization.n_slots == 2000
        assert realization.duration_s == pytest.approx(1.0)
        times = realization.times_ms()
        assert times[0] == 0.0
        assert times[1] == 0.5


class TestSyntheticChannel:
    def test_mean_matches_spec(self, rng):
        spec = SyntheticChannel(mean_sinr_db=18.0, fast_sigma_db=2.0, slow_sigma_db=1.5)
        realization = spec.realize(20.0, rng=rng)
        assert realization.sinr_db.mean() == pytest.approx(18.0, abs=1.0)

    def test_std_combines_components(self, rng):
        spec = SyntheticChannel(mean_sinr_db=15.0, fast_sigma_db=2.0,
                                slow_sigma_db=1.5, slow_coherence_slots=200.0)
        realization = spec.realize(60.0, rng=rng)
        expected = np.hypot(2.0, 1.5)
        assert realization.sinr_db.std() == pytest.approx(expected, rel=0.25)

    def test_blockage_pulls_sinr_down(self, rng):
        blockage = BlockageProcess(blockage_rate_hz=1.0, mean_blockage_duration_s=0.5,
                                   blockage_attenuation_db=30.0)
        clear = SyntheticChannel(mean_sinr_db=20.0).realize(60.0, rng=np.random.default_rng(1))
        blocked = SyntheticChannel(mean_sinr_db=20.0, blockage=blockage).realize(
            60.0, rng=np.random.default_rng(1))
        assert blocked.sinr_db.mean() < clear.sinr_db.mean() - 3.0

    def test_extra_attenuation_overrides_blockage(self, rng):
        att = np.full(2000, 10.0)
        spec = SyntheticChannel(mean_sinr_db=20.0, fast_sigma_db=0.0, slow_sigma_db=0.0)
        realization = spec.realize(1.0, rng=rng, extra_attenuation_db=att)
        assert realization.sinr_db.mean() == pytest.approx(10.0, abs=0.01)

    def test_extra_attenuation_too_short(self, rng):
        with pytest.raises(ValueError, match="shorter"):
            SyntheticChannel().realize(1.0, rng=rng, extra_attenuation_db=np.zeros(10))

    def test_mu_controls_grid(self, rng):
        fr2 = SyntheticChannel().realize(1.0, mu=Numerology.MU_3, rng=rng)
        assert fr2.n_slots == 8000

    def test_rsrq_reasonable(self, rng):
        realization = SyntheticChannel(mean_sinr_db=25.0).realize(2.0, rng=rng)
        assert -20.0 < realization.rsrq_db.mean() < -10.0

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            SyntheticChannel().realize(0.0)


class TestGeometricChannel:
    @pytest.fixture
    def two_site_model(self):
        return ChannelModel(
            sites=[GnbSite(Position(0, 0)), GnbSite(Position(400, 0))],
            frequency_ghz=3.5, bandwidth_mhz=90.0, n_rb=245,
            neighbour_load=0.1,
        )

    def test_realize_shapes(self, two_site_model, rng):
        realization = two_site_model.realize(2.0, rng=rng)
        assert realization.n_slots == 4000
        assert realization.serving_cell.shape == (4000,)

    def test_serving_cell_follows_proximity(self, two_site_model, rng):
        near_a = two_site_model.realize(1.0, mobility=Stationary(Position(10, 0)), rng=rng)
        near_b = two_site_model.realize(1.0, mobility=Stationary(Position(390, 0)), rng=rng)
        assert np.bincount(near_a.serving_cell).argmax() == 0
        assert np.bincount(near_b.serving_cell).argmax() == 1

    def test_sinr_degrades_with_distance(self, rng):
        model = ChannelModel(sites=[GnbSite(Position(0, 0))], neighbour_load=0.0)
        near = model.realize(1.0, mobility=Stationary(Position(30, 0)), rng=np.random.default_rng(5))
        far = model.realize(1.0, mobility=Stationary(Position(800, 0)), rng=np.random.default_rng(5))
        assert near.sinr_db.mean() > far.sinr_db.mean()

    def test_walking_produces_variation(self, two_site_model, rng):
        moving = two_site_model.realize(30.0, mobility=Walking(Position(0, 30)), rng=rng)
        static = two_site_model.realize(30.0, mobility=Stationary(Position(0, 30)), rng=rng)
        assert moving.sinr_db.std() >= static.sinr_db.std() * 0.5  # both vary, sanity only

    def test_requires_sites(self):
        with pytest.raises(ValueError):
            ChannelModel(sites=[])

    def test_load_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(sites=[GnbSite(Position(0, 0))], neighbour_load=1.5)


def _linear(sinr_db: np.ndarray) -> np.ndarray:
    """The dB-to-linear expression each consumer evaluated on its own."""
    return np.power(10.0, np.asarray(sinr_db, dtype=float) / 10.0)


class TestOneLinearPass:
    """A realization converts its SINR to linear once; RSRQ and the
    simulator's channel capacity read that array and keep the bytes of
    the expressions that each converted the dB series again."""

    BLOCKED = BlockageProcess(blockage_rate_hz=1.0, mean_blockage_duration_s=0.2,
                              blockage_attenuation_db=25.0)

    def _check(self, realization, load: float) -> None:
        from repro.ran.amc import BlerModel

        sinr = realization.sinr_db
        assert realization.sinr_linear.tobytes() == _linear(sinr).tobytes()
        with np.errstate(divide="ignore"):
            rsrq = 10.0 * np.log10(1.0 / (12.0 * (load + 1.0 / _linear(sinr))))
        assert realization.rsrq_db.tobytes() == rsrq.tobytes()
        bler = BlerModel()
        eff_cap = bler.alpha * np.log2(1.0 + _linear(sinr))
        assert bler.capacity_linear(realization.sinr_linear).tobytes() == eff_cap.tobytes()
        assert bler.capacity(sinr).tobytes() == eff_cap.tobytes()

    @pytest.mark.parametrize("blockage", [False, True])
    def test_synthetic(self, blockage):
        from repro.channel.fading import Ar1Fading
        from repro.nr.numerology import slot_duration_ms

        spec = SyntheticChannel(mean_sinr_db=9.0, rsrq_load=0.7, speed_mps=1.4,
                                **({"blockage": self.BLOCKED} if blockage else {}))
        realization = spec.realize(3.0, rng=np.random.default_rng(4))
        self._check(realization, 0.7)
        # The SINR sums its terms in the order ``mean + fast + slow - blockage``.
        rng = np.random.default_rng(4)
        n = realization.n_slots
        fast = Ar1Fading(spec.fast_sigma_db, spec.fast_coherence_slots).sample(n, rng)
        slow = Ar1Fading(spec.slow_sigma_db, spec.slow_coherence_slots).sample(n, rng)
        sinr = spec.mean_sinr_db + fast + slow
        sinr = sinr - spec.blockage.attenuation_db(n, slot_duration_ms(realization.mu),
                                                   spec.speed_mps, rng)
        assert realization.sinr_db.tobytes() == sinr.tobytes()

    def test_shared_attenuation_is_not_modified(self):
        attenuation = np.random.default_rng(8).uniform(0.0, 30.0, 4000)
        before = attenuation.copy()
        spec = SyntheticChannel(mean_sinr_db=15.0)
        first = spec.realize(1.0, rng=np.random.default_rng(1), extra_attenuation_db=attenuation)
        second = spec.realize(1.0, rng=np.random.default_rng(1), extra_attenuation_db=attenuation)
        assert attenuation.tobytes() == before.tobytes()
        assert first.sinr_db.tobytes() == second.sinr_db.tobytes()
        self._check(first, 1.0)

    def test_geometric(self):
        model = ChannelModel(sites=[GnbSite(Position(0, 0)), GnbSite(Position(400, 0))],
                             neighbour_load=0.3, blockage=self.BLOCKED)
        realization = model.realize(2.0, mobility=Walking(Position(0, 30)),
                                    rng=np.random.default_rng(6))
        self._check(realization, 1.0)

    def test_container_converts_when_not_given(self):
        sinr = np.array([-3.0, 0.0, 12.5])
        realization = ChannelRealization(sinr, np.zeros(3), np.zeros(3), np.zeros(3, dtype=int))
        assert realization.sinr_linear.tobytes() == _linear(sinr).tobytes()
        with pytest.raises(ValueError, match="sinr_linear length mismatch"):
            ChannelRealization(sinr, np.zeros(3), np.zeros(3), np.zeros(3, dtype=int),
                               sinr_linear=np.ones(2))
