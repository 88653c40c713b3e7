"""3GPP 5G NR substrate.

This package implements, from the 3GPP specifications, everything the
paper's measurement analysis relies on at the physical layer:

- band catalog and ARFCN <-> frequency conversion (:mod:`repro.nr.bands`),
- numerology, slot and symbol timing (:mod:`repro.nr.numerology`),
- maximum transmission bandwidth configuration ``N_RB`` tables
  (:mod:`repro.nr.grid`),
- TDD frame-structure algebra for patterns such as ``DDDSU`` and
  ``DDDDDDDSUU`` (:mod:`repro.nr.tdd`),
- MCS index tables for the 64QAM and 256QAM families and CQI tables
  (:mod:`repro.nr.mcs`, :mod:`repro.nr.cqi`),
- the TS 38.214 transport-block-size determination algorithm
  (:mod:`repro.nr.tbs`),
- RSRP / RSRQ / SINR signal-quality relations (:mod:`repro.nr.signal`),
- MIB/SIB initial access and channel identification per appendix 10.1
  (:mod:`repro.nr.initial_access`).

The CSI -> MCS/rank/DCI -> HARQ -> OLLA loop that uses these tables
(the paper's Fig. 21) runs in one place, the slot simulator
(:mod:`repro.ran.simulator`).
"""

from repro.nr.bands import Band, BAND_CATALOG, arfcn_to_frequency_mhz, frequency_mhz_to_arfcn
from repro.nr.numerology import Numerology, slot_duration_ms, slots_per_second, symbol_duration_s
from repro.nr.grid import max_rb, transmission_bandwidth_mhz, re_per_slot
from repro.nr.tdd import TddPattern, SlotType
from repro.nr.mcs import McsTable, McsEntry, Modulation, MCS_TABLE_64QAM, MCS_TABLE_256QAM
from repro.nr.cqi import CqiTable, CQI_TABLE_1, CQI_TABLE_2, CqiMcsMapper
from repro.nr.tbs import transport_block_size
from repro.nr.signal import sinr_to_cqi, rsrq_from_sinr, rsrp_from_pathloss

__all__ = [
    "Band",
    "BAND_CATALOG",
    "arfcn_to_frequency_mhz",
    "frequency_mhz_to_arfcn",
    "Numerology",
    "slot_duration_ms",
    "slots_per_second",
    "symbol_duration_s",
    "max_rb",
    "transmission_bandwidth_mhz",
    "re_per_slot",
    "TddPattern",
    "SlotType",
    "McsTable",
    "McsEntry",
    "Modulation",
    "MCS_TABLE_64QAM",
    "MCS_TABLE_256QAM",
    "CqiTable",
    "CQI_TABLE_1",
    "CQI_TABLE_2",
    "CqiMcsMapper",
    "transport_block_size",
    "sinr_to_cqi",
    "rsrq_from_sinr",
    "rsrp_from_pathloss",
]
