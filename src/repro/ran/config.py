"""Cell (component carrier) configuration.

A :class:`CellConfig` bundles everything Tables 2 and 3 of the paper
report for a carrier — band, bandwidth, SCS, duplexing, TDD pattern,
maximum modulation order — together with the derived 3GPP objects (N_RB,
MCS/CQI tables, CQI→MCS mapper) the simulator needs.

The module also holds the slot-engine policy: :func:`resolve_engine`
picks the engine a session runs — the native period loop or the
reference engine — from whether the native kernel loads and the one
engine switch, the ``REPRO_ENGINE`` environment variable
(:data:`ENGINE_ENV`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

from repro.nr.bands import BAND_CATALOG, Band, Duplexing
from repro.nr.cqi import CqiMcsMapper, CqiTable, MappingPolicy, cqi_table_for
from repro.nr.grid import max_rb, re_per_slot
from repro.nr.mcs import McsTable, Modulation, table_for_max_modulation
from repro.nr.numerology import Numerology, slot_duration_ms
from repro.nr.tdd import TddPattern
from repro.ran import _native

#: Valid :data:`ENGINE_ENV` values: the Python per-session slot engine,
#: the reference oracle.  Unset, the engine policy of
#: :func:`resolve_engine` applies (the compiled native period loop,
#: falling back to the reference engine without the native kernel).
#: Every engine produces byte-identical traces, so the choice is purely
#: performance.
ENGINES = ("reference",)

#: The one engine switch.  When set (to a value in :data:`ENGINES`) it
#: pins every session, inside a cohort or not, to that engine —
#: inherited by worker processes, never part of a task's store
#: fingerprint (every engine produces the same bytes).  Used by the
#: benchmarks to pin their baselines, by the byte-identity checks to run
#: the reference oracle, and handy for A/B timing in the field.
ENGINE_ENV = "REPRO_ENGINE"


def pinned_engine() -> str | None:
    """The engine :data:`ENGINE_ENV` pins, or ``None`` when it is unset
    or empty.

    Raises :class:`ValueError` when it holds a value outside
    :data:`ENGINES`; the CLI calls this once up front to turn that into
    a one-line error (without loading the native kernel).
    """
    pinned = os.environ.get(ENGINE_ENV)
    if not pinned:
        return None
    if pinned not in ENGINES:
        raise ValueError(f"${ENGINE_ENV} must be unset or "
                         f"{' or '.join(map(repr, ENGINES))}, got {pinned!r}")
    return pinned


def resolve_engine() -> str:
    """The physical slot engine of a session.

    Decision table (both rows byte-identical — this is a pure
    performance policy; see ``docs/architecture.md``):

    =================  ===================================================
    ``REPRO_ENGINE``   engine
    =================  ===================================================
    unset              ``native`` (``reference`` without the native kernel)
    ``reference``      ``reference``
    =================  ===================================================

    ``native`` is the compiled period loop
    (:func:`repro.ran._native.load_kernel`).  An unpinned run loads the
    kernel on its first session, which compiles it once per machine
    (cached by source digest); a pinned run never touches it.  Cohorts
    run the same engine, one session at a time.

    Raises :class:`ValueError` when :data:`ENGINE_ENV` holds a value
    outside :data:`ENGINES` (see :func:`pinned_engine`).
    """
    pinned = pinned_engine()
    if pinned:
        return pinned
    return "reference" if _native.load_kernel() is None else "native"


@dataclass(frozen=True)
class CellConfig:
    """Configuration of one NR component carrier.

    Parameters
    ----------
    name:
        Carrier label, e.g. ``"V_Sp n78 90MHz"``.
    band_name:
        3GPP band designator (must exist in :data:`~repro.nr.bands.BAND_CATALOG`).
    bandwidth_mhz:
        Channel bandwidth in MHz.
    scs_khz:
        Sub-carrier spacing (30 kHz for all the paper's TDD mid-band
        carriers, 15 kHz for T-Mobile's n25 FDD pair, 120 kHz for FR2).
    max_modulation:
        Operator-configured modulation ceiling (QAM64 or QAM256, §3.1).
    tdd:
        TDD pattern; ``None`` for FDD carriers.
    max_layers:
        SU-MIMO layer ceiling (4x4 for every operator studied).
    mapping_policy:
        Vendor CQI→MCS aggressiveness.
    n_rb_override:
        Explicit N_RB (only needed when a deployment deviates from
        Table 5.3.2-1, e.g. reduced-guard configurations).
    control_rb_fraction:
        Fraction of RBs consumed by PDCCH/SSB/other control overhead and
        therefore not grantable to the measured UE.
    cqi_period_slots:
        Slots between CQI reports (the paper: "typically on a per-slot
        basis or (semi-)periodically within 10's ms time scales").
    fr2:
        FR2 (mmWave) carrier — selects the FR2 N_RB table.
    """

    name: str
    band_name: str = "n78"
    bandwidth_mhz: int = 90
    scs_khz: int = 30
    max_modulation: Modulation = Modulation.QAM256
    tdd: TddPattern | None = field(default_factory=lambda: TddPattern.from_string("DDDSU"))
    max_layers: int = 4
    mapping_policy: MappingPolicy = MappingPolicy.MATCHED
    n_rb_override: int | None = None
    control_rb_fraction: float = 0.03
    cqi_period_slots: int = 20
    fr2: bool = False

    def __post_init__(self) -> None:
        if self.band_name not in BAND_CATALOG:
            raise ValueError(f"unknown band {self.band_name!r}")
        if not 1 <= self.max_layers <= 8:
            raise ValueError("max_layers must lie in [1, 8]")
        if not 0.0 <= self.control_rb_fraction < 1.0:
            raise ValueError("control_rb_fraction must lie in [0, 1)")
        if self.cqi_period_slots < 1:
            raise ValueError("cqi_period_slots must be positive")
        band = BAND_CATALOG[self.band_name]
        if band.duplexing is Duplexing.TDD and self.tdd is None:
            raise ValueError(f"band {self.band_name} is TDD; a TddPattern is required")
        if band.duplexing is Duplexing.FDD and self.tdd is not None:
            raise ValueError(f"band {self.band_name} is FDD; tdd must be None")
        # Validate the N_RB lookup eagerly unless overridden.
        if self.n_rb_override is None:
            max_rb(self.bandwidth_mhz, self.scs_khz, fr2=self.fr2)
        elif self.n_rb_override < 1:
            raise ValueError("n_rb_override must be positive")

    # ------------------------------------------------------------------ #
    # Derived 3GPP objects
    # ------------------------------------------------------------------ #
    @property
    def band(self) -> Band:
        return BAND_CATALOG[self.band_name]

    @property
    def is_tdd(self) -> bool:
        return self.band.duplexing is Duplexing.TDD

    @property
    def mu(self) -> Numerology:
        return Numerology.from_scs_khz(self.scs_khz)

    @property
    def slot_ms(self) -> float:
        return slot_duration_ms(self.mu)

    @property
    def n_rb(self) -> int:
        """Maximum transmission bandwidth in RBs."""
        if self.n_rb_override is not None:
            return self.n_rb_override
        return max_rb(self.bandwidth_mhz, self.scs_khz, fr2=self.fr2)

    @property
    def grantable_rb(self) -> int:
        """RBs available to user-plane grants after control overhead."""
        return max(1, int(round(self.n_rb * (1.0 - self.control_rb_fraction))))

    @property
    def mcs_table(self) -> McsTable:
        return table_for_max_modulation(self.max_modulation)

    @property
    def cqi_table(self) -> CqiTable:
        return cqi_table_for(self.max_modulation)

    @cached_property
    def mapper(self) -> CqiMcsMapper:
        return CqiMcsMapper(self.cqi_table, self.mcs_table, self.mapping_policy)

    @property
    def frequency_ghz(self) -> float:
        """Carrier center frequency in GHz (band center as a stand-in)."""
        return self.band.center_mhz / 1000.0

    def re_per_full_slot(self, n_prb: int | None = None) -> int:
        """REs across 14 symbols for an allocation (defaults to full grant)."""
        return re_per_slot(self.grantable_rb if n_prb is None else n_prb)

    def dl_slot_fraction(self) -> float:
        """Fraction of symbols usable for DL (1.0 for FDD)."""
        return self.tdd.dl_symbol_fraction if self.tdd is not None else 1.0

    def ul_slot_fraction(self) -> float:
        """Fraction of symbols usable for UL (1.0 for FDD)."""
        return self.tdd.ul_symbol_fraction if self.tdd is not None else 1.0
