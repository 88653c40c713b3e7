"""TDD frame-structure algebra (TS 38.213 slot-format configuration).

Mid-band NR channels are TDD: downlink and uplink share the frequency and
alternate in time following a repeating slot pattern such as ``DDDSU``
(Vodafone Germany, Deutsche Telekom) or ``DDDDDDDSUU`` (Vodafone Italy,
Orange France) — §4.3 of the paper shows these patterns, not the channel
bandwidth, drive the user-plane latency, and §4.2 shows they create the
DL/UL throughput asymmetry.

A pattern string uses one character per slot:

- ``D``: downlink-only slot (all 14 symbols DL),
- ``U``: uplink-only slot,
- ``S``: special slot, split into DL symbols, a guard period, and UL
  symbols (``SpecialSlotConfig``).

Every alignment wait is a lookup in a per-period wait table
(``TddPattern.wait_table``), built once per ``(direction, full_only)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.nr.numerology import SYMBOLS_PER_SLOT, Numerology, slot_duration_ms


class SlotType(enum.Enum):
    """Link direction of a TDD slot."""

    DL = "D"
    UL = "U"
    SPECIAL = "S"

    @classmethod
    def from_char(cls, char: str) -> "SlotType":
        try:
            return {"D": cls.DL, "U": cls.UL, "S": cls.SPECIAL}[char.upper()]
        except KeyError:
            raise ValueError(f"unknown slot character {char!r}; expected D, U, or S") from None


@dataclass(frozen=True)
class SpecialSlotConfig:
    """Symbol split of a special (``S``) slot.

    The common commercial configuration dedicates most symbols to DL with a
    short guard and a small UL tail; the default 6 DL : 4 guard : 4 UL
    mirrors widely reported mid-band deployments.
    """

    dl_symbols: int = 6
    guard_symbols: int = 4
    ul_symbols: int = 4

    def __post_init__(self) -> None:
        total = self.dl_symbols + self.guard_symbols + self.ul_symbols
        if total != SYMBOLS_PER_SLOT:
            raise ValueError(f"special slot symbols must sum to {SYMBOLS_PER_SLOT}, got {total}")
        if min(self.dl_symbols, self.guard_symbols, self.ul_symbols) < 0:
            raise ValueError("symbol counts must be non-negative")


@dataclass(frozen=True)
class TddPattern:
    """A repeating TDD slot pattern.

    Parameters
    ----------
    pattern:
        Slot string, e.g. ``"DDDSU"``.
    special:
        Symbol split used by every ``S`` slot in the pattern.
    """

    pattern: str
    special: SpecialSlotConfig = field(default_factory=SpecialSlotConfig)

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("pattern must be non-empty")
        object.__setattr__(self, "pattern", self.pattern.upper())
        for char in self.pattern:
            SlotType.from_char(char)  # validates

    @classmethod
    def from_string(cls, pattern: str, special: SpecialSlotConfig | None = None) -> "TddPattern":
        """Build a pattern from its slot string."""
        return cls(pattern, special or SpecialSlotConfig())

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def period_slots(self) -> int:
        """Number of slots in one pattern period."""
        return len(self.pattern)

    def period_ms(self, mu: Numerology | int = Numerology.MU_1) -> float:
        """Pattern period in milliseconds for numerology ``mu``."""
        return self.period_slots * slot_duration_ms(mu)

    def slot_type(self, slot_index: int) -> SlotType:
        """Direction of (absolute) slot ``slot_index``."""
        return self.slot_types[slot_index % self.period_slots]

    @cached_property
    def slot_types(self) -> tuple[SlotType, ...]:
        """Direction of each slot within one period."""
        return tuple(SlotType.from_char(c) for c in self.pattern)

    def type_array(self, n_slots: int) -> np.ndarray:
        """Vector of slot-type codes (0=DL, 1=UL, 2=S) for ``n_slots`` slots.

        Used by the vectorized simulator to mask DL/UL capacity per slot.
        """
        codes = {SlotType.DL: 0, SlotType.UL: 1, SlotType.SPECIAL: 2}
        period = np.array([codes[t] for t in self.slot_types], dtype=np.int8)
        reps = -(-n_slots // self.period_slots)
        return np.tile(period, reps)[:n_slots]

    # ------------------------------------------------------------------ #
    # Symbol accounting
    # ------------------------------------------------------------------ #
    def dl_symbols_in_slot(self, slot_index: int) -> int:
        """DL symbols available in a given slot."""
        kind = self.slot_type(slot_index)
        if kind is SlotType.DL:
            return SYMBOLS_PER_SLOT
        if kind is SlotType.SPECIAL:
            return self.special.dl_symbols
        return 0

    def ul_symbols_in_slot(self, slot_index: int) -> int:
        """UL symbols available in a given slot."""
        kind = self.slot_type(slot_index)
        if kind is SlotType.UL:
            return SYMBOLS_PER_SLOT
        if kind is SlotType.SPECIAL:
            return self.special.ul_symbols
        return 0

    @cached_property
    def dl_symbol_fraction(self) -> float:
        """Fraction of all symbols in a period usable for DL."""
        total = self.period_slots * SYMBOLS_PER_SLOT
        dl = sum(self.dl_symbols_in_slot(i) for i in range(self.period_slots))
        return dl / total

    @cached_property
    def ul_symbol_fraction(self) -> float:
        """Fraction of all symbols in a period usable for UL."""
        total = self.period_slots * SYMBOLS_PER_SLOT
        ul = sum(self.ul_symbols_in_slot(i) for i in range(self.period_slots))
        return ul / total

    @cached_property
    def dl_slot_indices(self) -> tuple[int, ...]:
        """Indices (within a period) of slots carrying any DL symbols."""
        return tuple(i for i in range(self.period_slots) if self.dl_symbols_in_slot(i) > 0)

    @cached_property
    def ul_slot_indices(self) -> tuple[int, ...]:
        """Indices (within a period) of slots carrying any UL symbols."""
        return tuple(i for i in range(self.period_slots) if self.ul_symbols_in_slot(i) > 0)

    # ------------------------------------------------------------------ #
    # Alignment waits (latency building blocks, §4.3)
    # ------------------------------------------------------------------ #
    @cached_property
    def _wait_tables(self) -> dict[tuple[SlotType, bool], np.ndarray]:
        return {}

    def wait_table(self, direction: SlotType, *, full_only: bool = False) -> np.ndarray:
        """Whole slots to wait from each slot ``0..period_slots`` (entry
        ``period_slots`` repeats entry 0) to the first slot at or after it
        carrying ``direction``; with ``full_only`` special slots do not count."""
        if direction is SlotType.SPECIAL:
            raise ValueError("direction must be DL or UL")
        key = (direction, full_only)
        if key not in self._wait_tables:
            hits = ([i for i, kind in enumerate(self.slot_types) if kind is direction] if full_only
                    else self.dl_slot_indices if direction is SlotType.DL else self.ul_slot_indices)
            if not hits:
                raise ValueError(f"pattern {self.pattern!r} has no {direction.value} opportunity")
            table = np.array([min((hit - slot) % self.period_slots for hit in hits)
                              for slot in range(self.period_slots + 1)])
            table.flags.writeable = False
            self._wait_tables[key] = table
        return self._wait_tables[key]

    def wait_slots(self, direction: SlotType, from_slot: int, *, full_only: bool = False) -> int:
        """Slots to wait (0 if ``from_slot`` itself qualifies)."""
        return int(self.wait_table(direction, full_only=full_only)[from_slot % self.period_slots])

    def next_slot_of(self, direction: SlotType, from_slot: int, *, full_only: bool = False) -> int:
        """Absolute index of the first slot at or after ``from_slot``
        carrying the given direction."""
        return from_slot + self.wait_slots(direction, from_slot, full_only=full_only)

    def mean_wait_ms(self, direction: SlotType, mu: Numerology | int = Numerology.MU_1, *,
                     full_only: bool = False) -> float:
        """Expected wait, in ms, from a uniformly random arrival instant to
        the *start* of the next slot carrying ``direction``.

        This is the alignment-delay term of the user-plane latency model:
        a packet arriving mid-slot first waits out the residual slot, then
        any non-matching slots.
        """
        slot_ms = slot_duration_ms(mu)
        total = 0.0
        # Expected half-slot residual, then whole slots from slot + 1 on.
        for wait in self.wait_table(direction, full_only=full_only)[1:].tolist():
            total += 0.5 * slot_ms + wait * slot_ms
        return total / self.period_slots


#: Patterns observed in the paper (§4.3) and reasonable defaults for the rest.
WELL_KNOWN_PATTERNS: dict[str, TddPattern] = {
    "DDDSU": TddPattern.from_string("DDDSU"),
    "DDDSUU": TddPattern.from_string("DDDSUU"),
    "DDSU": TddPattern.from_string("DDSU"),
    "DDDDDDDSUU": TddPattern.from_string("DDDDDDDSUU"),
}
