"""Composite per-slot SINR engine.

Two entry points produce the same artifact — a :class:`ChannelRealization`
holding per-slot SINR / RSRP / RSRQ arrays on the numerology's slot grid:

- :class:`ChannelModel` is geometry-driven: gNB sites, a mobility model,
  TR 38.901 path loss, correlated shadowing, AR(1) fading and (for FR2)
  blockage.  Used for the route experiments (Fig. 7) and the multi-gNB
  coverage study (§4.1, appendix 10.3).
- :class:`SyntheticChannel` is calibration-driven: a base SINR plus fast
  and slow AR(1) components.  Used for the per-operator throughput
  experiments, where the paper's reported distributions (not city maps)
  are the ground truth being matched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.blockage import NO_BLOCKAGE, BlockageProcess
from repro.channel.fading import Ar1Fading
from repro.channel.mobility import MobilityModel, Position, Stationary
from repro.channel.pathloss import UMA, PathLossModel
from repro.channel.shadowing import CorrelatedShadowing
from repro.nr.numerology import Numerology, slot_duration_ms
from repro.nr.signal import db_to_linear, linear_to_db, noise_power_dbm, rsrq_from_sinr_linear

#: Number of slots per large-scale update (50 ms at 30 kHz SCS).
LARGE_SCALE_STRIDE = 100


@dataclass(frozen=True)
class GnbSite:
    """A gNB site in the local coordinate frame."""

    position: Position
    tx_power_dbm: float = 44.0
    antenna_gain_db: float = 8.0


@dataclass
class ChannelRealization:
    """Per-slot channel KPIs for one run.

    Consumers only read the arrays: a series that is constant over the
    run may be a read-only zero-stride view (``np.broadcast_to``) rather
    than a per-slot buffer.

    Attributes
    ----------
    sinr_db:
        Wideband post-combining SINR per slot.
    rsrp_dbm, rsrq_db:
        Per-slot reference-signal KPIs, as XCAL reports them.
    serving_cell:
        Index of the serving gNB per slot (always 0 for synthetic runs).
    mu:
        Numerology of the slot grid.
    sinr_linear:
        ``db_to_linear(sinr_db)``, the one dB-to-linear pass of a run:
        RSRQ and the simulator's channel capacity read it.  Computed
        here when not given.
    """

    sinr_db: np.ndarray
    rsrp_dbm: np.ndarray
    rsrq_db: np.ndarray
    serving_cell: np.ndarray
    mu: Numerology = Numerology.MU_1
    sinr_linear: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.sinr_linear is None:
            self.sinr_linear = db_to_linear(self.sinr_db)
        n = self.sinr_db.size
        for name in ("rsrp_dbm", "rsrq_db", "serving_cell", "sinr_linear"):
            if getattr(self, name).size != n:
                raise ValueError(f"{name} length mismatch ({getattr(self, name).size} != {n})")

    @property
    def n_slots(self) -> int:
        return int(self.sinr_db.size)

    @property
    def duration_s(self) -> float:
        return self.n_slots * slot_duration_ms(self.mu) * 1e-3

    def times_ms(self) -> np.ndarray:
        """Slot start times in ms."""
        return np.arange(self.n_slots) * slot_duration_ms(self.mu)


def _repeat_to(values: np.ndarray, n_slots: int, stride: int) -> np.ndarray:
    """Expand a coarse (per-stride) series to the slot grid."""
    return np.repeat(values, stride)[:n_slots]


@dataclass
class ChannelModel:
    """Geometry-driven channel: sites + mobility -> per-slot SINR.

    Interference is computed from all non-serving sites scaled by a
    neighbour ``load`` factor; the serving site is the strongest in
    smoothed RSRP (ideal handover, adequate for walking-route scales).
    """

    sites: list[GnbSite]
    frequency_ghz: float = 3.5
    bandwidth_mhz: float = 90.0
    n_rb: int = 245
    pathloss: PathLossModel = field(default_factory=UMA)
    shadowing: CorrelatedShadowing = field(default_factory=CorrelatedShadowing)
    fading_sigma_db: float = 2.0
    blockage: BlockageProcess = NO_BLOCKAGE
    neighbour_load: float = 0.5
    noise_figure_db: float = 9.0
    los: bool = True

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("need at least one gNB site")
        if not 0.0 <= self.neighbour_load <= 1.0:
            raise ValueError("neighbour_load must lie in [0, 1]")

    def received_power_matrix(
        self,
        duration_s: float,
        mobility: MobilityModel | None = None,
        mu: Numerology = Numerology.MU_1,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, float]:
        """Large-scale received power per site along a route.

        Returns ``(rx_dbm, sample_interval_s)`` with ``rx_dbm`` of shape
        ``(n_coarse, n_sites)`` — the input the A3 handover rule
        (:mod:`repro.channel.handover`) consumes.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        rng = rng or np.random.default_rng()
        mobility = mobility or Stationary()
        slot_ms = slot_duration_ms(mu)
        n_slots = max(1, int(round(duration_s * 1000.0 / slot_ms)))
        n_coarse = -(-n_slots // LARGE_SCALE_STRIDE)
        coarse_times = np.arange(n_coarse) * LARGE_SCALE_STRIDE * slot_ms * 1e-3

        positions = mobility.positions_at(coarse_times)  # (n_coarse, 2)
        site_xy = np.array([(s.position.x, s.position.y) for s in self.sites])
        deltas = positions[:, None, :] - site_xy[None, :, :]
        distances = np.maximum(np.hypot(deltas[..., 0], deltas[..., 1]), 1.0)

        # Large-scale received power per site (dBm), with per-site shadowing.
        steps = np.concatenate([[0.0], np.hypot(*np.diff(positions, axis=0).T)])
        rx_dbm = np.empty_like(distances)
        for j, site in enumerate(self.sites):
            pl = self.pathloss.loss_db(distances[:, j], self.frequency_ghz, los=self.los)
            shadow = self.shadowing.sample_along(steps, rng)
            rx_dbm[:, j] = site.tx_power_dbm + site.antenna_gain_db - pl + shadow
        return rx_dbm, LARGE_SCALE_STRIDE * slot_ms * 1e-3

    def realize(
        self,
        duration_s: float,
        mobility: MobilityModel | None = None,
        mu: Numerology = Numerology.MU_1,
        rng: np.random.Generator | None = None,
    ) -> ChannelRealization:
        """Generate a channel realization on the slot grid."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        rng = rng or np.random.default_rng()
        mobility = mobility or Stationary()
        slot_ms = slot_duration_ms(mu)
        n_slots = max(1, int(round(duration_s * 1000.0 / slot_ms)))
        rx_dbm, _ = self.received_power_matrix(duration_s, mobility, mu, rng)
        n_coarse = rx_dbm.shape[0]

        serving_coarse = np.argmax(rx_dbm, axis=1)
        rows = np.arange(n_coarse)
        serving_dbm = rx_dbm[rows, serving_coarse]
        interference_mw = db_to_linear(rx_dbm).sum(axis=1) - db_to_linear(serving_dbm)
        interference_dbm_total = linear_to_db(np.maximum(interference_mw * self.neighbour_load, 1e-12))

        noise_dbm = noise_power_dbm(self.bandwidth_mhz * 1e6, self.noise_figure_db)
        denom_mw = db_to_linear(interference_dbm_total) + db_to_linear(noise_dbm)
        sinr_coarse = serving_dbm - linear_to_db(denom_mw)

        # Expand to the slot grid, add fast fading and blockage.
        sinr = _repeat_to(sinr_coarse, n_slots, LARGE_SCALE_STRIDE)
        fading = Ar1Fading.for_speed(
            mobility.speed_mps, self.frequency_ghz, slot_ms, sigma_db=self.fading_sigma_db
        )
        sinr += fading.sample(n_slots, rng)
        sinr -= self.blockage.attenuation_db(n_slots, slot_ms, mobility.speed_mps, rng)
        sinr_linear = db_to_linear(sinr)

        rsrp_coarse = serving_dbm - linear_to_db(12.0 * self.n_rb)
        rsrp = _repeat_to(rsrp_coarse, n_slots, LARGE_SCALE_STRIDE)
        # RSRQ during saturating measurements: the serving cell is fully
        # loaded (load = 1), giving the paper's -10.8..-20 dB range.
        rsrq = rsrq_from_sinr_linear(sinr_linear, load=1.0)
        serving = _repeat_to(serving_coarse, n_slots, LARGE_SCALE_STRIDE)
        return ChannelRealization(sinr, rsrp, rsrq, serving, mu=mu, sinr_linear=sinr_linear)


@dataclass(frozen=True)
class SyntheticChannel:
    """Calibration-driven channel: base SINR + fast/slow AR(1) components.

    The two time constants reproduce the paper's observation (§5) that
    variability is high below ~100 ms and stabilizes around 0.2-0.5 s:
    the fast component decorrelates within tens of ms, the slow one over
    hundreds of ms.

    Parameters
    ----------
    mean_sinr_db:
        Long-run average wideband SINR.
    fast_sigma_db, fast_coherence_slots:
        Fast fading component.
    slow_sigma_db, slow_coherence_slots:
        Slow (shadowing-scale) component.
    blockage:
        Optional blockage process (mmWave).
    speed_mps:
        UE speed, used only by the blockage process.
    rsrp_ref_dbm:
        RSRP reported alongside (constant; synthetic runs fix geometry).
    """

    mean_sinr_db: float = 18.0
    fast_sigma_db: float = 2.0
    fast_coherence_slots: float = 30.0
    slow_sigma_db: float = 2.5
    slow_coherence_slots: float = 800.0
    blockage: BlockageProcess = NO_BLOCKAGE
    speed_mps: float = 0.0
    rsrp_ref_dbm: float = -85.0
    rsrq_load: float = 1.0

    def realize(
        self,
        duration_s: float,
        mu: Numerology = Numerology.MU_1,
        rng: np.random.Generator | None = None,
        extra_attenuation_db: np.ndarray | None = None,
    ) -> ChannelRealization:
        """Generate a synthetic realization on the slot grid.

        ``extra_attenuation_db`` lets a caller impose a shared per-slot
        attenuation (e.g. one blockage series applied across every
        component carrier of a CA bundle) *instead of* drawing from this
        spec's own blockage process.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        rng = rng or np.random.default_rng()
        slot_ms = slot_duration_ms(mu)
        n_slots = max(1, int(round(duration_s * 1000.0 / slot_ms)))
        fast = Ar1Fading(self.fast_sigma_db, self.fast_coherence_slots)
        slow = Ar1Fading(self.slow_sigma_db, self.slow_coherence_slots)
        # mean + fast + slow, summed in place into the fast draws (which
        # come first: the draw order fixes the bytes).
        sinr = fast.sample(n_slots, rng)
        sinr += self.mean_sinr_db
        sinr += slow.sample(n_slots, rng)
        if extra_attenuation_db is not None:
            attenuation = np.asarray(extra_attenuation_db, dtype=float)
            if attenuation.size < n_slots:
                raise ValueError("extra_attenuation_db shorter than the slot grid")
            sinr -= attenuation[:n_slots]
        else:
            sinr -= self.blockage.attenuation_db(n_slots, slot_ms, self.speed_mps, rng)
        sinr_linear = db_to_linear(sinr)
        # RSRP and the serving cell are constant over a synthetic run.
        rsrp = np.broadcast_to(np.float64(self.rsrp_ref_dbm), n_slots)
        rsrq = rsrq_from_sinr_linear(sinr_linear, load=self.rsrq_load)
        serving = np.broadcast_to(np.int64(0), n_slots)
        return ChannelRealization(sinr, rsrp, rsrq, serving, mu=mu, sinr_linear=sinr_linear)
