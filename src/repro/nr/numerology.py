"""NR numerology: sub-carrier spacing, slot and symbol timing (TS 38.211).

5G NR organizes time into 10 ms radio frames of ten 1 ms subframes.  A
subframe contains ``2**mu`` slots, where ``mu`` is the numerology index
derived from the sub-carrier spacing (SCS): ``SCS = 15 kHz * 2**mu``.
Every slot carries 14 OFDM symbols (normal cyclic prefix).

All mid-band channels studied in the paper use 30 kHz SCS (``mu = 1``,
0.5 ms slots) except T-Mobile's n25 FDD carriers; FR2 (mmWave) channels
use 120 kHz SCS (``mu = 3``).
"""

from __future__ import annotations

import enum

SYMBOLS_PER_SLOT = 14
SUBFRAMES_PER_FRAME = 10
SUBFRAME_DURATION_MS = 1.0


class Numerology(enum.IntEnum):
    """Numerology index ``mu`` as defined in TS 38.211 Table 4.2-1."""

    MU_0 = 0  # 15 kHz SCS
    MU_1 = 1  # 30 kHz SCS
    MU_2 = 2  # 60 kHz SCS
    MU_3 = 3  # 120 kHz SCS
    MU_4 = 4  # 240 kHz SCS

    @property
    def scs_khz(self) -> int:
        """Sub-carrier spacing in kHz."""
        return 15 * (2 ** int(self))

    @classmethod
    def from_scs_khz(cls, scs_khz: int) -> "Numerology":
        """Return the numerology for a sub-carrier spacing in kHz."""
        mapping = {15: cls.MU_0, 30: cls.MU_1, 60: cls.MU_2, 120: cls.MU_3, 240: cls.MU_4}
        try:
            return mapping[scs_khz]
        except KeyError:
            raise ValueError(f"unsupported SCS {scs_khz} kHz; expected one of {sorted(mapping)}") from None


def slots_per_subframe(mu: Numerology | int) -> int:
    """Number of slots in a 1 ms subframe for numerology ``mu``."""
    return 2 ** int(mu)


def slots_per_frame(mu: Numerology | int) -> int:
    """Number of slots in a 10 ms radio frame for numerology ``mu``."""
    return SUBFRAMES_PER_FRAME * slots_per_subframe(mu)


def slots_per_second(mu: Numerology | int) -> int:
    """Number of slots per second for numerology ``mu``."""
    return 1000 * slots_per_subframe(mu)


def slot_duration_ms(mu: Numerology | int) -> float:
    """Slot duration in milliseconds (0.5 ms for the paper's 30 kHz SCS)."""
    return SUBFRAME_DURATION_MS / slots_per_subframe(mu)


def symbol_duration_s(mu: Numerology | int) -> float:
    """Average OFDM symbol duration in seconds.

    This is the ``T_s^mu = 1e-3 / (14 * 2**mu)`` term of the 3GPP TS 38.306
    maximum-throughput formula quoted in §3.2 of the paper.
    """
    return 1e-3 / (SYMBOLS_PER_SLOT * (2 ** int(mu)))
