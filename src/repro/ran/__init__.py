"""Slot-level RAN simulator.

Implements the network side of the measurement substrate: cells and
their configuration (:mod:`repro.ran.config`), the BLER model, OLLA and
rank-adaptation policies (:mod:`repro.ran.amc`), RB schedulers
(:mod:`repro.ran.scheduler`), carrier aggregation (:mod:`repro.ran.ca`),
the LTE anchor and NSA dual connectivity used for uplink
(:mod:`repro.ran.lte`, :mod:`repro.ran.nsa`), and the slot-clocked
simulation entry points (:mod:`repro.ran.simulator`).  The simulator's
per-CQI-period loop is the one model of the CSI report, MCS/rank/DCI
choice, HARQ and OLLA exchange; UEs are channel realizations handed to
its entry points.
"""

from repro.ran.config import CellConfig
from repro.ran.amc import BlerModel, Olla, RankAdapter
from repro.ran.scheduler import RoundRobinScheduler, ProportionalFairScheduler
from repro.ran.simulator import simulate_downlink, simulate_downlink_multi, simulate_uplink
from repro.ran.ca import CarrierAggregation, AggregatedResult
from repro.ran.lte import LteCellConfig, simulate_lte_uplink
from repro.ran.nsa import NsaUplink, NsaUplinkResult

__all__ = [
    "CellConfig",
    "BlerModel",
    "Olla",
    "RankAdapter",
    "RoundRobinScheduler",
    "ProportionalFairScheduler",
    "simulate_downlink",
    "simulate_downlink_multi",
    "simulate_uplink",
    "CarrierAggregation",
    "AggregatedResult",
    "LteCellConfig",
    "simulate_lte_uplink",
    "NsaUplink",
    "NsaUplinkResult",
]
