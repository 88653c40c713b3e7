"""Signal-quality relations: SINR, CQI, RSRP, RSRQ.

The measurement campaign used RSRP > -90 dBm and RSRQ > -12 dB as the
"good signal" scouting thresholds (§2 step 1), and Fig. 7 correlates RSRQ
along a walking route with MIMO-layer usage.  This module provides the
standard mappings between these quantities so the simulator can report
the same KPIs XCAL logs.

The SINR→CQI map uses the attenuated Shannon bound
``eff = alpha * log2(1 + SINR)`` (alpha models implementation loss) and
selects the largest CQI whose table efficiency is sustainable — the same
approach used by link-level abstraction in 3GPP system simulators.
"""

from __future__ import annotations

import numpy as np

from repro.nr.cqi import CQI_MAX, CqiTable

#: Implementation-loss factor of the attenuated Shannon bound.
DEFAULT_ALPHA = 0.65

#: Thermal noise density in dBm/Hz at 290 K.
NOISE_DENSITY_DBM_HZ = -174.0


def _unwrap(result: np.ndarray) -> float | np.ndarray:
    """A scalar for a 0-d result (as numpy returns for a scalar input)."""
    return result if result.ndim else result[()]


def db_to_linear(db: float | np.ndarray) -> float | np.ndarray:
    """Convert dB to a linear power ratio (``10 ** (db / 10)``)."""
    db = np.asarray(db, dtype=float)
    linear = np.divide(db, 10.0, out=np.empty(db.shape))
    np.power(10.0, linear, out=linear)
    return _unwrap(linear)


def linear_to_db(linear: float | np.ndarray) -> float | np.ndarray:
    """Convert a linear power ratio to dB."""
    linear = np.asarray(linear, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(linear)


def shannon_efficiency(sinr_db: float | np.ndarray, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Attenuated Shannon spectral efficiency in bits/s/Hz."""
    return shannon_efficiency_linear(db_to_linear(sinr_db), alpha)


def shannon_efficiency_linear(sinr_lin: float | np.ndarray,
                              alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """:func:`shannon_efficiency` of a linear SINR (``db_to_linear`` of it).

    Evaluates ``alpha * log2(1 + sinr_lin)`` in one fresh buffer;
    ``sinr_lin`` is not modified.
    """
    sinr_lin = np.asarray(sinr_lin, dtype=float)
    eff = np.add(1.0, sinr_lin, out=np.empty(sinr_lin.shape))
    np.log2(eff, out=eff)
    np.multiply(alpha, eff, out=eff)
    return _unwrap(eff)


def sinr_to_cqi(
    sinr_db: float | np.ndarray,
    cqi_table: CqiTable,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Map SINR (dB) to CQI in ``[0, 15]`` (0 = out of range).

    Vectorized; scalar input yields a 0-d array (use ``int(...)``).
    """
    eff = shannon_efficiency(sinr_db, alpha)
    cqi = np.searchsorted(cqi_table.efficiencies, eff, side="right")
    return np.clip(cqi, 0, CQI_MAX)


def cqi_to_min_sinr_db(cqi: int, cqi_table: CqiTable, alpha: float = DEFAULT_ALPHA) -> float:
    """Minimum SINR (dB) at which ``cqi`` becomes sustainable (inverse map)."""
    if not 1 <= cqi <= CQI_MAX:
        raise ValueError(f"CQI {cqi} outside [1, {CQI_MAX}]")
    eff = cqi_table.efficiencies[cqi - 1]
    return float(linear_to_db(np.power(2.0, eff / alpha) - 1.0))


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float = 9.0) -> float:
    """Thermal noise power over a bandwidth, including the UE noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return NOISE_DENSITY_DBM_HZ + 10.0 * np.log10(bandwidth_hz) + noise_figure_db


def rsrp_from_pathloss(
    tx_power_dbm: float,
    pathloss_db: float | np.ndarray,
    n_rb: int,
    antenna_gain_db: float = 8.0,
) -> float | np.ndarray:
    """Reference signal received power (per-RE) in dBm.

    The gNB splits its transmit power across ``12 * n_rb`` sub-carriers;
    RSRP is the received power of a single reference-signal RE.
    """
    if n_rb <= 0:
        raise ValueError("n_rb must be positive")
    per_re_tx = tx_power_dbm - 10.0 * np.log10(12.0 * n_rb)
    return per_re_tx + antenna_gain_db - np.asarray(pathloss_db, dtype=float)


def rsrq_from_sinr(
    sinr_db: float | np.ndarray,
    load: float = 1.0,
) -> float | np.ndarray:
    """RSRQ (dB) from SINR under a given neighbour-cell load.

    Using ``RSRQ = N_RB * RSRP / RSSI`` with a fully granular RSSI model:
    each RB carries 12 REs whose power is ``load * S + I + N`` where the
    serving-cell data activity factor is ``load``.  In linear terms::

        rsrq = 1 / (12 * (load + 1 / sinr))

    A fully loaded cell saturates at -10.79 dB for infinite SINR, matching
    the empirical "RSRQ better than -12 dB is good" rule the paper applies.
    """
    return rsrq_from_sinr_linear(db_to_linear(sinr_db), load)


def rsrq_from_sinr_linear(sinr_lin: float | np.ndarray, load: float = 1.0) -> float | np.ndarray:
    """:func:`rsrq_from_sinr` of a linear SINR (``db_to_linear`` of it).

    Evaluates ``10 * log10(1 / (12 * (load + 1 / sinr_lin)))`` in one
    fresh buffer; ``sinr_lin`` is not modified.
    """
    if not 0.0 < load <= 1.0:
        raise ValueError("load must lie in (0, 1]")
    sinr_lin = np.asarray(sinr_lin, dtype=float)
    rsrq = np.divide(1.0, sinr_lin, out=np.empty(sinr_lin.shape))
    rsrq += load
    rsrq *= 12.0
    np.divide(1.0, rsrq, out=rsrq)
    with np.errstate(divide="ignore"):
        np.log10(rsrq, out=rsrq)
    rsrq *= 10.0
    return _unwrap(rsrq)


def sinr_from_rsrq(rsrq_db: float | np.ndarray, load: float = 1.0) -> float | np.ndarray:
    """Invert :func:`rsrq_from_sinr` (for calibration and tests)."""
    if not 0.0 < load <= 1.0:
        raise ValueError("load must lie in (0, 1]")
    rsrq_lin = db_to_linear(np.asarray(rsrq_db, dtype=float))
    denominator = 1.0 / (12.0 * rsrq_lin) - load
    if np.any(denominator <= 0):
        raise ValueError("RSRQ too high for the given load (no finite SINR)")
    return linear_to_db(1.0 / denominator)
