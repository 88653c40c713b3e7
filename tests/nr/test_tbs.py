"""Tests for repro.nr.tbs — TS 38.214 §5.1.3.2 transport block sizes."""

import numpy as np
import pytest

from repro.nr.grid import _FR1_NRB, _FR2_NRB
from repro.nr.mcs import MCS_TABLE_64QAM, MCS_TABLE_256QAM, McsTable
from repro.nr.tdd import WELL_KNOWN_PATTERNS
from repro.nr.tbs import (
    MAX_RE_PER_PRB,
    TBS_TABLE_5_1_3_2_1,
    cached_tbs_lookup_matrix,
    tbs_lookup_matrix,
    transport_block_size,
    usable_re_per_prb,
)


class TestReAccounting:
    def test_full_slot_capped_at_156(self):
        # 12 * 14 - 12 DMRS = 156, exactly the cap.
        assert usable_re_per_prb(14) == 156
        assert MAX_RE_PER_PRB == 156

    def test_no_dmrs_still_capped(self):
        assert usable_re_per_prb(14, dmrs_re_per_prb=0) == 156

    def test_partial_slot(self):
        assert usable_re_per_prb(6, dmrs_re_per_prb=12) == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            usable_re_per_prb(0)
        with pytest.raises(ValueError):
            usable_re_per_prb(15)
        with pytest.raises(ValueError):
            usable_re_per_prb(1, dmrs_re_per_prb=13)


class TestReferenceTable:
    def test_length(self):
        assert len(TBS_TABLE_5_1_3_2_1) == 93

    def test_bounds(self):
        assert TBS_TABLE_5_1_3_2_1[0] == 24
        assert TBS_TABLE_5_1_3_2_1[-1] == 3824

    def test_sorted_unique(self):
        values = list(TBS_TABLE_5_1_3_2_1)
        assert values == sorted(set(values))


class TestTransportBlockSize:
    def test_zero_prb(self):
        assert transport_block_size(0, MCS_TABLE_256QAM[10], 2) == 0

    def test_small_block_from_table(self):
        # A tiny allocation lands in Table 5.1.3.2-1.
        tbs = transport_block_size(1, MCS_TABLE_64QAM[0], 1)
        assert tbs in TBS_TABLE_5_1_3_2_1

    def test_small_block_covers_n_info(self):
        # The chosen table TBS is >= the quantized information size.
        entry = MCS_TABLE_64QAM[5]
        tbs = transport_block_size(2, entry, 1)
        n_info = 2 * 156 * entry.code_rate * entry.modulation.bits_per_symbol
        assert tbs >= 0.9 * n_info

    def test_large_block_byte_aligned(self):
        tbs = transport_block_size(245, MCS_TABLE_256QAM[27], 4)
        assert (tbs + 24) % 8 == 0
        assert tbs > 1_000_000  # ~1.15 Mb per slot at full blast

    def test_monotone_in_prbs(self):
        entry = MCS_TABLE_256QAM[15]
        sizes = [transport_block_size(n, entry, 2) for n in (10, 50, 100, 200, 273)]
        assert sizes == sorted(sizes)

    def test_monotone_in_mcs(self):
        sizes = [transport_block_size(100, MCS_TABLE_256QAM[i], 2) for i in range(0, 28, 3)]
        assert sizes == sorted(sizes)

    def test_monotone_in_layers(self):
        entry = MCS_TABLE_256QAM[20]
        sizes = [transport_block_size(100, entry, layers) for layers in (1, 2, 3, 4)]
        assert sizes == sorted(sizes)
        # 4 layers carry roughly 4x the single-layer bits.
        assert sizes[3] == pytest.approx(4 * sizes[0], rel=0.05)

    def test_partial_symbols_reduce_tbs(self):
        entry = MCS_TABLE_256QAM[20]
        full = transport_block_size(100, entry, 4, symbols=14)
        special = transport_block_size(100, entry, 4, symbols=6)
        assert special < full

    def test_tbs_close_to_nominal_rate(self):
        # TBS ~ N_RE * R * Qm * v within quantization slack.
        entry = MCS_TABLE_256QAM[27]
        tbs = transport_block_size(245, entry, 4)
        nominal = 245 * 156 * entry.code_rate * 8 * 4
        assert tbs == pytest.approx(nominal, rel=0.02)

    def test_validation(self):
        entry = MCS_TABLE_256QAM[0]
        with pytest.raises(ValueError):
            transport_block_size(-1, entry, 1)
        with pytest.raises(ValueError):
            transport_block_size(10, entry, 0)
        with pytest.raises(ValueError):
            transport_block_size(10, entry, 9)


class TestLookupMatrix:
    def test_shape(self):
        matrix = tbs_lookup_matrix(MCS_TABLE_256QAM, 245, max_layers=4)
        assert matrix.shape == (28, 4)

    def test_matches_direct_computation(self):
        matrix = tbs_lookup_matrix(MCS_TABLE_256QAM, 100, max_layers=4)
        assert matrix[20, 3] == transport_block_size(100, MCS_TABLE_256QAM[20], 4)
        assert matrix[0, 0] == transport_block_size(100, MCS_TABLE_256QAM[0], 1)

    def test_monotone_rows_and_columns(self):
        matrix = tbs_lookup_matrix(MCS_TABLE_64QAM, 150, max_layers=4)
        assert (matrix[1:] >= matrix[:-1]).all()
        assert (matrix[:, 1:] >= matrix[:, :-1]).all()


def _special_slot_symbols() -> set[int]:
    """Every DL and UL symbol count of a special slot the carriers use."""
    from repro.operators.profiles import ALL_PROFILES, mmwave_profile

    patterns = list(WELL_KNOWN_PATTERNS.values())
    patterns += [cell.tdd for profile in (*ALL_PROFILES.values(), mmwave_profile())
                 for cell in profile.cells if cell.tdd is not None]
    return {count for pattern in patterns
            for count in (pattern.special.dl_symbols, pattern.special.ul_symbols) if count > 0}


class TestLookupMatrixEqualsScalar:
    """The vectorized matrix equals the scalar function entry for entry,
    over both MCS tables, every grant up to the widest carrier, layers
    1-4 and the symbol counts of full and special slots."""

    def test_exhaustive(self):
        widest = max(n for table in (_FR1_NRB, _FR2_NRB)
                     for by_bw in table.values() for n in by_bw.values())
        symbol_counts = sorted({14} | _special_slot_symbols())
        assert widest == 273 and len(symbol_counts) >= 3
        for table in (MCS_TABLE_64QAM, MCS_TABLE_256QAM):
            for symbols in symbol_counts:
                for n_prb in range(widest + 1):
                    matrix = tbs_lookup_matrix(table, n_prb, max_layers=4, symbols=symbols)
                    want = [[transport_block_size(n_prb, entry, layers, symbols=symbols)
                             for layers in range(1, 5)] for entry in table]
                    assert matrix.tolist() == want, (table.name, symbols, n_prb)

    def test_empty_and_invalid_shapes(self):
        assert not tbs_lookup_matrix(MCS_TABLE_64QAM, 0, max_layers=4).any()
        assert tbs_lookup_matrix(MCS_TABLE_64QAM, 10, max_layers=0).shape == (len(MCS_TABLE_64QAM), 0)
        with pytest.raises(ValueError):
            tbs_lookup_matrix(MCS_TABLE_64QAM, -1)
        with pytest.raises(ValueError):
            tbs_lookup_matrix(MCS_TABLE_64QAM, 10, max_layers=9)


class TestMatrixCache:
    def test_signature_computed_once_from_content(self):
        copy = McsTable("copy", MCS_TABLE_256QAM.entries, MCS_TABLE_256QAM.max_modulation)
        assert copy.signature == MCS_TABLE_256QAM.signature
        assert copy.signature is not MCS_TABLE_256QAM.signature
        assert MCS_TABLE_256QAM.signature is MCS_TABLE_256QAM.signature
        assert MCS_TABLE_64QAM.signature != MCS_TABLE_256QAM.signature

    def test_tables_with_equal_content_share_a_matrix(self):
        copy = McsTable("copy", MCS_TABLE_64QAM.entries, MCS_TABLE_64QAM.max_modulation)
        first = cached_tbs_lookup_matrix(MCS_TABLE_64QAM, 37, 3, symbols=13)
        assert cached_tbs_lookup_matrix(copy, 37, 3, symbols=13) is first
        assert np.array_equal(first, tbs_lookup_matrix(MCS_TABLE_64QAM, 37, 3, symbols=13))
