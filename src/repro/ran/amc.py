"""Link adaptation: BLER model, OLLA, and rank adaptation.

The gNB picks MCS and MIMO rank per grant from the UE's CQI/RI feedback
(§3.1, appendix 10.2).  Three cooperating pieces:

- :class:`BlerModel` — probability a transport block fails decoding given
  the gap between the scheduled spectral efficiency and the channel's
  instantaneous capacity (logistic link-abstraction, the standard
  system-simulation shortcut).
- :class:`Olla` — outer-loop link adaptation: a signed MCS offset nudged
  down on NACK and up on ACK so the *realized* initial BLER converges to
  the ~10% target regardless of CQI estimation bias.
- :class:`RankAdapter` — maps SINR to 1..4 MIMO layers via thresholds
  with hysteresis; per-deployment bias reproduces the paper's Fig. 6
  (e.g. O_Sp 100 MHz mostly at 3 layers, the 90 MHz carriers at 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nr.signal import shannon_efficiency, shannon_efficiency_linear

#: Standard initial-BLER operating target.
DEFAULT_BLER_TARGET = 0.10


@dataclass(frozen=True)
class BlerModel:
    """Logistic link abstraction.

    The decode-failure probability of a TB scheduled at spectral
    efficiency ``eff_mcs`` when the channel sustains ``eff_cap`` is::

        p = 1 / (1 + exp(-(eff_mcs - eff_cap - bias) / slope))

    ``slope`` controls how sharp the waterfall is (bits/s/Hz); ``bias``
    shifts the 50% point.  The defaults put the 10%-BLER operating point
    ~0.3 b/s/Hz below the instantaneous capacity — the small margin a
    converged OLLA loop maintains on a commercial link.
    """

    slope: float = 0.10
    bias: float = -0.12
    #: Effective link efficiency.  Deliberately below the CQI-reporting
    #: alpha (see ``SimParams.cqi_alpha``): the realized spectral
    #: efficiency of commercial mid-band links sits well under the
    #: UE-reported channel quality, and OLLA bridges the gap.
    alpha: float = 0.60

    def capacity(self, sinr_db) -> np.ndarray:
        """Instantaneous sustainable efficiency ``eff_cap`` of the channel.

        Exposed separately so the simulator can evaluate it once per
        trace and reuse it across CQI periods (the SINR series is fixed;
        only ``eff_mcs`` changes period to period).
        """
        return shannon_efficiency(sinr_db, self.alpha)

    def capacity_linear(self, sinr_lin) -> np.ndarray:
        """:meth:`capacity` of a linear SINR, such as a channel
        realization's ``sinr_linear`` (same values, no dB conversion)."""
        return shannon_efficiency_linear(sinr_lin, self.alpha)

    def error_probability_given_capacity(self, eff_mcs, eff_cap,
                                         out: np.ndarray | None = None) -> np.ndarray:
        """Decode-failure probability from a precomputed :meth:`capacity`.

        ``eff_mcs`` may be a scalar or an array.  With ``out`` the whole
        evaluation runs in-place in that buffer — same ufunc sequence,
        so bit-identical values, but no temporaries; the simulator calls
        this once per CQI period on a ~20-element slice, where the seven
        allocations would otherwise dominate the arithmetic.
        """
        if out is None:
            x = (eff_mcs - eff_cap - self.bias) / self.slope
            return 1.0 / (1.0 + np.exp(-x))
        np.subtract(eff_mcs, eff_cap, out=out)
        out -= self.bias
        out /= self.slope
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)
        return out

    def error_probability(self, eff_mcs, sinr_db) -> np.ndarray:
        """Vectorized decode-failure probability."""
        return self.error_probability_given_capacity(eff_mcs, self.capacity(sinr_db))

    def draw_errors(self, eff_mcs, sinr_db, rng: np.random.Generator) -> np.ndarray:
        """Bernoulli decode failures for an array of transmissions."""
        p = self.error_probability(eff_mcs, sinr_db)
        return rng.random(np.shape(p)) < p


@dataclass
class Olla:
    """Outer-loop link adaptation on the MCS index.

    Maintains a continuous offset ``delta``; the applied integer MCS
    shift is ``round(delta)``.  Updates follow the classic asymmetric
    rule that equilibrates at the BLER target:

    - NACK: ``delta -= step_down``
    - ACK:  ``delta += step_down * target / (1 - target)``
    """

    target_bler: float = DEFAULT_BLER_TARGET
    step_down: float = 0.5
    delta: float = 0.0
    min_offset: float = -15.0
    max_offset: float = 6.0

    def __post_init__(self) -> None:
        if not 0.0 < self.target_bler < 1.0:
            raise ValueError("target_bler must lie in (0, 1)")
        if self.step_down <= 0:
            raise ValueError("step_down must be positive")

    @property
    def step_up(self) -> float:
        return self.step_down * self.target_bler / (1.0 - self.target_bler)

    @property
    def offset(self) -> int:
        """Integer MCS-index shift currently applied."""
        return int(round(self.delta))

    def update(self, acked: bool) -> None:
        """Apply one ACK/NACK observation."""
        # min/max instead of np.clip: same value, no array round-trip on
        # a path the multi-UE simulator hits once per UE per slot.
        delta = self.delta + (self.step_up if acked else -self.step_down)
        self.delta = min(max(delta, self.min_offset), self.max_offset)

    def update_batch(self, n_ack: int, n_nack: int) -> None:
        """Apply a batch of observations (order-free net update)."""
        if n_ack < 0 or n_nack < 0:
            raise ValueError("counts must be non-negative")
        delta = self.delta + n_ack * self.step_up - n_nack * self.step_down
        self.delta = min(max(delta, self.min_offset), self.max_offset)


@dataclass(frozen=True)
class RankAdapter:
    """SINR-threshold rank selection with hysteresis.

    ``thresholds_db[k]`` is the minimum SINR for rank ``k + 2`` (rank 1
    has no threshold).  ``bias_db`` shifts all thresholds: a *positive*
    bias means the deployment needs more SINR to reach high rank
    (sparser coverage, more interference — the O_Sp 100 MHz situation);
    a negative bias the opposite.
    """

    thresholds_db: tuple[float, ...] = (5.0, 11.0, 17.0)
    bias_db: float = 0.0
    hysteresis_db: float = 1.0
    max_layers: int = 4

    def __post_init__(self) -> None:
        if list(self.thresholds_db) != sorted(self.thresholds_db):
            raise ValueError("thresholds must be non-decreasing")
        if self.max_layers < 1:
            raise ValueError("max_layers must be positive")

    def rank_for_sinr(self, sinr_db: float, previous_rank: int = 1) -> int:
        """Rank decision for one report, with hysteresis on downgrades."""
        rank = 1
        for k, threshold in enumerate(self.thresholds_db):
            candidate = k + 2
            if candidate > self.max_layers:
                break
            effective = threshold + self.bias_db
            if candidate <= previous_rank:
                effective -= self.hysteresis_db  # sticky: easier to keep
            if sinr_db >= effective:
                rank = candidate
        return min(rank, self.max_layers)

    def rank_series(self, sinr_db: np.ndarray) -> np.ndarray:
        """Sequential rank decisions over a series of SINR reports."""
        sinr_db = np.asarray(sinr_db, dtype=float)
        ranks = np.empty(sinr_db.size, dtype=np.int64)
        previous = 1
        for i, value in enumerate(sinr_db):
            previous = self.rank_for_sinr(float(value), previous)
            ranks[i] = previous
        return ranks
