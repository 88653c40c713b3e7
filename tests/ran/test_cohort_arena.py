"""CohortArena: layout, row views, byte identity and schema guards.

The arena's whole value rests on one claim: a row view is
indistinguishable — byte for byte, through every serializer — from a
trace that owns its arrays.  These tests pin that claim, the layout
round-trip the shm transport depends on, and the failure modes
(schema mismatch, short buffer, foreign traces) that must stay loud.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nr.numerology import Numerology
from repro.xcal.arena import ARENA_SCHEMA_VERSION, CohortArena, arena_nbytes
from repro.xcal.io import npz_bytes, trace_to_arrays
from repro.xcal.records import COLUMN_DTYPES, TRACE_COLUMNS, SlotTrace, TraceMetadata


def _fill_row(trace: SlotTrace, seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = len(trace)
    trace.sinr_db[:] = rng.normal(12.0, 4.0, n)
    trace.mcs_index[:] = rng.integers(0, 28, n)
    trace.tbs_bits[:] = rng.integers(0, 300_000, n)
    trace.delivered_bits[:] = trace.tbs_bits
    trace.scheduled[:] = rng.random(n) < 0.6
    trace.error[:] = rng.random(n) < 0.1


def _bytes_of(trace: SlotTrace) -> bytes:
    return npz_bytes(trace_to_arrays(trace), {"mu": int(trace.mu)})


class TestLayout:
    def test_nbytes_covers_all_columns(self):
        n_cols, n_slots = 3, 100
        total = arena_nbytes(n_cols, n_slots)
        floor = sum(n_cols * n_slots * COLUMN_DTYPES[name].itemsize
                    for name in TRACE_COLUMNS)
        assert floor <= total < floor + 8 * len(TRACE_COLUMNS)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            arena_nbytes(0, 10)
        with pytest.raises(ValueError):
            arena_nbytes(2, -1)

    def test_all_views_share_one_base(self):
        arena = CohortArena.allocate(4, 50)
        for name in TRACE_COLUMNS:
            assert arena.columns[name].base is arena.base
        trace = arena.trace(2)
        # numpy collapses view chains: a row of a column block reports
        # the shared uint8 base, not the block, as its .base.
        assert trace.sinr_db.base is arena.base

    def test_dtypes_match_owning_trace(self):
        arena = CohortArena.allocate(2, 10)
        owned = SlotTrace.empty(10)
        for name in TRACE_COLUMNS:
            assert arena.columns[name].dtype == owned.column(name).dtype, name

    def test_slot_and_time_prefilled(self):
        arena = CohortArena.allocate(3, 20, mu=Numerology.MU_1)
        owned = SlotTrace.empty(20, mu=Numerology.MU_1)
        for c in range(3):
            np.testing.assert_array_equal(arena.columns["slot"][c], owned.slot)
            np.testing.assert_array_equal(arena.columns["time_ms"][c],
                                          owned.time_ms)


class TestRowViews:
    def test_row_serializes_byte_identical_to_owned(self):
        arena = CohortArena.allocate(3, 64)
        owned = SlotTrace.empty(64)
        _fill_row(owned, seed=5)
        arena.pack_row(1, owned)
        assert _bytes_of(arena.trace(1)) == _bytes_of(owned)

    def test_rows_are_contiguous(self):
        arena = CohortArena.allocate(4, 33)
        trace = arena.trace(3)
        for name in TRACE_COLUMNS:
            assert trace.column(name).flags.c_contiguous, name

    def test_rows_are_independent(self):
        arena = CohortArena.allocate(2, 16)
        arena.trace(0).tbs_bits[:] = 111
        arena.trace(1).tbs_bits[:] = 222
        assert set(arena.trace(0).tbs_bits) == {111}
        assert set(arena.trace(1).tbs_bits) == {222}

    def test_row_index_of(self):
        arena = CohortArena.allocate(5, 40)
        for c in (0, 2, 4):
            assert arena.row_index_of(arena.trace(c)) == c
        assert arena.row_index_of(SlotTrace.empty(40)) is None
        other = CohortArena.allocate(5, 40)
        assert arena.row_index_of(other.trace(1)) is None

    def test_trace_row_out_of_range(self):
        arena = CohortArena.allocate(2, 8)
        with pytest.raises(IndexError):
            arena.trace(2)

    def test_pack_row_length_mismatch(self):
        arena = CohortArena.allocate(2, 8)
        with pytest.raises(ValueError):
            arena.pack_row(0, SlotTrace.empty(9))


class TestLayoutRoundTrip:
    def test_from_layout_rebuilds_identical_views(self):
        writer = CohortArena.allocate(3, 32)
        owned = SlotTrace.empty(32)
        _fill_row(owned, seed=9)
        writer.pack_row(2, owned)
        buffer = bytearray(writer.base.tobytes())
        reader = CohortArena.from_layout(buffer, writer.layout())
        assert _bytes_of(reader.trace(2)) == _bytes_of(owned)

    def test_schema_mismatch_is_loud(self):
        arena = CohortArena.allocate(2, 8)
        layout = arena.layout()
        layout["schema"] = ARENA_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema mismatch"):
            CohortArena.from_layout(bytearray(arena.base.tobytes()), layout)

    def test_size_mismatch_is_loud(self):
        arena = CohortArena.allocate(2, 8)
        layout = arena.layout()
        layout["nbytes"] = layout["nbytes"] + 8
        with pytest.raises(ValueError, match="bytes"):
            CohortArena.from_layout(bytearray(arena.base.tobytes()), layout)

    def test_short_buffer_rejected(self):
        arena = CohortArena.allocate(2, 8)
        short = bytearray(arena.base.tobytes()[:-16])
        with pytest.raises(ValueError, match="holds"):
            CohortArena.from_layout(short, arena.layout())


class TestRelease:
    def test_release_drops_references_but_not_live_traces(self):
        arena = CohortArena.allocate(2, 8)
        trace = arena.trace(0)
        trace.tbs_bits[:] = 77
        arena.release()
        assert arena.base is None and arena.columns == {}
        # The row view holds its own reference chain to the buffer.
        assert set(trace.tbs_bits) == {77}
