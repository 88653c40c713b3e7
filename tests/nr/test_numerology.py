"""Tests for repro.nr.numerology."""

import pytest

from repro.nr.numerology import (
    Numerology,
    slot_duration_ms,
    slots_per_frame,
    slots_per_second,
    slots_per_subframe,
    symbol_duration_s,
)


class TestNumerology:
    def test_scs_values(self):
        assert Numerology.MU_0.scs_khz == 15
        assert Numerology.MU_1.scs_khz == 30
        assert Numerology.MU_2.scs_khz == 60
        assert Numerology.MU_3.scs_khz == 120

    def test_from_scs(self):
        assert Numerology.from_scs_khz(30) is Numerology.MU_1
        assert Numerology.from_scs_khz(120) is Numerology.MU_3

    def test_from_scs_rejects_unknown(self):
        with pytest.raises(ValueError, match="unsupported SCS"):
            Numerology.from_scs_khz(45)

    def test_roundtrip_all(self):
        for mu in Numerology:
            assert Numerology.from_scs_khz(mu.scs_khz) is mu


class TestSlotTiming:
    def test_midband_slot_is_half_ms(self):
        # The paper's finest granularity: 0.5 ms slots at 30 kHz SCS.
        assert slot_duration_ms(Numerology.MU_1) == 0.5

    def test_fr2_slot_is_eighth_ms(self):
        assert slot_duration_ms(Numerology.MU_3) == 0.125

    def test_slots_per_subframe_doubles(self):
        assert slots_per_subframe(Numerology.MU_0) == 1
        assert slots_per_subframe(Numerology.MU_1) == 2
        assert slots_per_subframe(Numerology.MU_3) == 8

    def test_slots_per_frame(self):
        assert slots_per_frame(Numerology.MU_1) == 20

    def test_slots_per_second(self):
        assert slots_per_second(Numerology.MU_1) == 2000
        assert slots_per_second(Numerology.MU_3) == 8000

    def test_symbol_duration_formula(self):
        # T_s = 1e-3 / (14 * 2^mu), the §3.2 formula term.
        assert symbol_duration_s(Numerology.MU_1) == pytest.approx(1e-3 / 28)
        assert symbol_duration_s(Numerology.MU_0) == pytest.approx(1e-3 / 14)

