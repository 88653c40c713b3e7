"""Tests for repro.nr.tdd — the frame structures driving §4.2/§4.3."""

import numpy as np
import pytest

from repro.core.latency import UserPlaneLatencyModel
from repro.core.runner import SessionTask
from repro.nr.numerology import Numerology
from repro.nr.tdd import SlotType, SpecialSlotConfig, TddPattern, WELL_KNOWN_PATTERNS
from repro.operators.profiles import ALL_PROFILES
from repro.store.keys import task_fingerprint


def _walk_next_slot(pattern, direction, from_slot, full_only):
    """Offset-by-offset search for the next slot carrying ``direction``:
    the oracle every wait-table entry must match."""
    for offset in range(pattern.period_slots + 1):
        idx = from_slot + offset
        kind = SlotType.from_char(pattern.pattern[idx % pattern.period_slots])
        if kind is direction:
            return idx
        if not full_only and kind is SlotType.SPECIAL:
            symbols = pattern.special.dl_symbols if direction is SlotType.DL else pattern.special.ul_symbols
            if symbols > 0:
                return idx
    return None


class TestSpecialSlotConfig:
    def test_default_sums_to_14(self):
        config = SpecialSlotConfig()
        assert config.dl_symbols + config.guard_symbols + config.ul_symbols == 14

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            SpecialSlotConfig(dl_symbols=10, guard_symbols=2, ul_symbols=4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SpecialSlotConfig(dl_symbols=-1, guard_symbols=11, ul_symbols=4)


class TestPatternStructure:
    def test_parse_dddsu(self):
        pattern = TddPattern.from_string("DDDSU")
        assert pattern.period_slots == 5
        assert pattern.slot_type(0) is SlotType.DL
        assert pattern.slot_type(3) is SlotType.SPECIAL
        assert pattern.slot_type(4) is SlotType.UL

    def test_pattern_repeats(self):
        pattern = TddPattern.from_string("DDDSU")
        assert pattern.slot_type(5) is SlotType.DL
        assert pattern.slot_type(9) is SlotType.UL

    def test_lowercase_accepted(self):
        assert TddPattern.from_string("dddsu").period_slots == 5

    def test_case_is_normalized(self):
        lower, upper = TddPattern("dddsu"), TddPattern.from_string("DDDSU")
        assert lower.pattern == "DDDSU"
        assert lower == upper
        assert hash(lower) == hash(upper)
        tasks = [SessionTask(fn=UserPlaneLatencyModel, kwargs={"pattern": p}) for p in (lower, upper)]
        assert task_fingerprint(tasks[0]) == task_fingerprint(tasks[1])

    def test_invalid_character(self):
        with pytest.raises(ValueError, match="unknown slot character"):
            TddPattern.from_string("DDXSU")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TddPattern.from_string("")

    def test_period_ms(self):
        assert TddPattern.from_string("DDDSU").period_ms(Numerology.MU_1) == 2.5
        assert TddPattern.from_string("DDDDDDDSUU").period_ms(Numerology.MU_1) == 5.0

    def test_type_array(self):
        pattern = TddPattern.from_string("DDDSU")
        codes = pattern.type_array(12)
        assert codes.tolist() == [0, 0, 0, 2, 1, 0, 0, 0, 2, 1, 0, 0]
        assert codes.dtype == np.int8


class TestSymbolFractions:
    def test_dddsu_fractions(self):
        # 3 full DL + 6 symbols of S out of 70 symbols.
        pattern = TddPattern.from_string("DDDSU")
        assert pattern.dl_symbol_fraction == pytest.approx((3 * 14 + 6) / 70)
        assert pattern.ul_symbol_fraction == pytest.approx((14 + 4) / 70)

    def test_long_pattern_fractions(self):
        pattern = TddPattern.from_string("DDDDDDDSUU")
        assert pattern.dl_symbol_fraction == pytest.approx((7 * 14 + 6) / 140)
        assert pattern.ul_symbol_fraction == pytest.approx((2 * 14 + 4) / 140)

    def test_dl_ul_asymmetry(self):
        # §4.2: fewer symbols for UL than DL in every deployed pattern,
        # and the commercial patterns named in §4.3 are >2x asymmetric.
        for pattern in WELL_KNOWN_PATTERNS.values():
            assert pattern.dl_symbol_fraction > pattern.ul_symbol_fraction
        for name in ("DDDSU", "DDDDDDDSUU"):
            pattern = WELL_KNOWN_PATTERNS[name]
            assert pattern.dl_symbol_fraction > 2 * pattern.ul_symbol_fraction

    def test_symbols_in_slot(self):
        pattern = TddPattern.from_string("DDDSU")
        assert pattern.dl_symbols_in_slot(0) == 14
        assert pattern.dl_symbols_in_slot(3) == 6
        assert pattern.dl_symbols_in_slot(4) == 0
        assert pattern.ul_symbols_in_slot(3) == 4
        assert pattern.ul_symbols_in_slot(4) == 14

    def test_slot_indices(self):
        pattern = TddPattern.from_string("DDDSU")
        assert pattern.dl_slot_indices == (0, 1, 2, 3)
        assert pattern.ul_slot_indices == (3, 4)


# Every well-known and profile pattern (deduplicated), a DL-only pattern,
# and special slots that carry no UL or no DL symbols.
_TABLE_PATTERNS = list(dict.fromkeys([
    *WELL_KNOWN_PATTERNS.values(),
    *(cell.tdd for profile in ALL_PROFILES.values() for cell in profile.cells if cell.tdd is not None),
    TddPattern.from_string("DDD"),
    TddPattern.from_string("DDSD", SpecialSlotConfig(dl_symbols=10, guard_symbols=4, ul_symbols=0)),
    TddPattern.from_string("SUUS", SpecialSlotConfig(dl_symbols=0, guard_symbols=4, ul_symbols=10)),
]))


class TestWaitTable:
    @pytest.mark.parametrize("full_only", [False, True])
    @pytest.mark.parametrize("pattern", _TABLE_PATTERNS, ids=lambda p: f"{p.pattern}-{p.special.ul_symbols}")
    def test_table_matches_offset_walk(self, pattern, full_only):
        period = pattern.period_slots
        for direction in (SlotType.DL, SlotType.UL):
            walked = [_walk_next_slot(pattern, direction, slot, full_only) for slot in range(-period, 3 * period)]
            if walked[0] is None:
                # The pattern still constructs; only the query raises.
                with pytest.raises(ValueError, match=f"no {direction.value} opportunity"):
                    pattern.wait_table(direction, full_only=full_only)
                with pytest.raises(ValueError, match=f"no {direction.value} opportunity"):
                    pattern.mean_wait_ms(direction, full_only=full_only)
                continue
            table = pattern.wait_table(direction, full_only=full_only)
            assert table.shape == (period + 1,)
            assert table[period] == table[0]
            for slot, idx in zip(range(-period, 3 * period), walked):
                assert pattern.next_slot_of(direction, slot, full_only=full_only) == idx
                assert pattern.wait_slots(direction, slot, full_only=full_only) == idx - slot
                if 0 <= slot <= period:
                    assert table[slot] == idx - slot

    def test_table_is_read_only_and_cached(self):
        pattern = TddPattern.from_string("DDDSU")
        table = pattern.wait_table(SlotType.UL)
        assert pattern.wait_table(SlotType.UL) is table
        assert pattern.wait_table(SlotType.UL, full_only=True) is not table
        with pytest.raises(ValueError):
            table[0] = 7


class TestWaits:
    def test_next_slot_same(self):
        pattern = TddPattern.from_string("DDDSU")
        assert pattern.next_slot_of(SlotType.DL, 0) == 0
        assert pattern.next_slot_of(SlotType.UL, 0) == 3  # S carries UL symbols

    def test_next_slot_full_only(self):
        pattern = TddPattern.from_string("DDDSU")
        assert pattern.next_slot_of(SlotType.UL, 0, full_only=True) == 4

    def test_wait_wraps_period(self):
        pattern = TddPattern.from_string("DDDSU")
        # From the UL slot, the next DL is the start of the next period.
        assert pattern.wait_slots(SlotType.DL, 4) == 1

    def test_no_direction_raises(self):
        pattern = TddPattern.from_string("DDD", SpecialSlotConfig())
        with pytest.raises(ValueError, match="no U opportunity"):
            pattern.next_slot_of(SlotType.UL, 0)

    def test_special_direction_invalid(self):
        pattern = TddPattern.from_string("DDDSU")
        with pytest.raises(ValueError):
            pattern.next_slot_of(SlotType.SPECIAL, 0)

    def test_mean_wait_sparse_ul_larger(self):
        # §4.3's driver: sparse-UL patterns wait much longer for UL.
        dddsu = TddPattern.from_string("DDDSU")
        long_pattern = TddPattern.from_string("DDDDDDDSUU")
        assert long_pattern.mean_wait_ms(SlotType.UL) > 1.5 * dddsu.mean_wait_ms(SlotType.UL)

    def test_mean_wait_dl_small_everywhere(self):
        for pattern in WELL_KNOWN_PATTERNS.values():
            assert pattern.mean_wait_ms(SlotType.DL) < 1.0

    def test_mean_wait_positive(self):
        pattern = TddPattern.from_string("DDDSU")
        assert pattern.mean_wait_ms(SlotType.UL) > 0
        # Residual slot alone is at least a quarter of a slot on average.
        assert pattern.mean_wait_ms(SlotType.DL) >= 0.25
