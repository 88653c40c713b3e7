"""Tests for the narrow trace schema: one dtype table, no silent wrap."""

import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.reduce import CampaignReduction
from repro.core.runner import SessionTask, derive_seed, run_tasks
from repro.core.timeseries import KpiSeries
from repro.nr.mcs import MCS_TABLE_256QAM, MCS_TABLE_64QAM
from repro.nr.tbs import tbs_lookup_matrix
from repro.store import STORE_SCHEMA_VERSION, TraceStore, codec
from repro.xcal.arena import ARENA_SCHEMA_VERSION, CohortArena
from repro.xcal.io import (_metadata_pairs, arrays_to_trace, npz_bytes, read_csv,
                           read_jsonl, read_npz, trace_to_arrays, write_csv,
                           write_jsonl, write_npz)
from repro.xcal.records import (COLUMN_DTYPES, TRACE_COLUMNS, SlotTrace,
                                TraceMetadata, as_column)

PINNED = {
    "slot": "int32", "time_ms": "float64", "slot_type": "int8",
    "scheduled": "bool", "n_prb": "int16", "n_re": "int32",
    "mcs_index": "int8", "modulation_order": "int8", "layers": "int8",
    "tbs_bits": "int32", "delivered_bits": "int32", "is_retx": "bool",
    "error": "bool", "cqi": "int8", "dci_format": "int8",
    "sinr_db": "float64", "rsrp_dbm": "float64", "rsrq_db": "float64",
}


def _dtypes(trace: SlotTrace) -> dict[str, str]:
    return {name: str(trace.column(name).dtype) for name in TRACE_COLUMNS}


def _filled(n: int = 24) -> SlotTrace:
    trace = SlotTrace.empty(n, metadata=TraceMetadata(operator="schema", seed=5))
    rng = np.random.default_rng(5)
    trace.scheduled[:] = rng.random(n) < 0.7
    trace.n_prb[:] = rng.integers(0, 276, n)
    trace.n_re[:] = trace.n_prb * 12
    trace.mcs_index[:] = rng.integers(0, 28, n)
    trace.layers[:] = rng.integers(1, 5, n)
    trace.tbs_bits[:] = rng.integers(0, 1_300_000, n)
    trace.delivered_bits[:] = trace.tbs_bits
    trace.cqi[:] = rng.integers(0, 16, n)
    trace.sinr_db[:] = rng.normal(15.0, 5.0, n)
    return trace


def _int64_arrays(trace: SlotTrace) -> dict[str, np.ndarray]:
    """The trace's columns with every integer column as int64."""
    return {name: col.astype(np.int64) if col.dtype.kind == "i" else col
            for name, col in trace_to_arrays(trace).items()}


def _widened(trace: SlotTrace) -> SlotTrace:
    """The same trace with every integer column as int64 (the layout
    before the narrow schema), built around the dtype check."""
    wide = copy.copy(trace)
    for name, dtype in COLUMN_DTYPES.items():
        if dtype.kind == "i":
            setattr(wide, name, trace.column(name).astype(np.int64))
    return wide


class TestDtypeTable:
    def test_table_pins_every_column(self):
        assert tuple(COLUMN_DTYPES) == TRACE_COLUMNS
        assert {name: str(dtype) for name, dtype in COLUMN_DTYPES.items()} == PINNED

    def test_59_bytes_per_slot(self):
        assert sum(dtype.itemsize for dtype in COLUMN_DTYPES.values()) == 59

    def test_empty_pins_dtypes(self):
        assert _dtypes(SlotTrace.empty(7)) == PINNED

    def test_derived_traces_keep_dtypes(self):
        trace = _filled()
        assert _dtypes(trace.concat(trace)) == PINNED
        assert _dtypes(trace.scheduled_view()) == PINNED

    def test_arena_rows_pin_dtypes(self):
        arena = CohortArena.allocate(3, 16)
        assert {name: str(col.dtype) for name, col in arena.columns.items()} == PINNED
        assert _dtypes(arena.trace(1)) == PINNED

    @pytest.mark.parametrize("writer,reader", [(write_npz, read_npz),
                                               (write_csv, read_csv),
                                               (write_jsonl, read_jsonl)])
    def test_round_trip_pins_dtypes(self, writer, reader, tmp_path):
        trace = _filled()
        back = reader(writer(trace, tmp_path / "trace"))
        assert _dtypes(back) == PINNED
        for name in TRACE_COLUMNS:
            assert np.array_equal(back.column(name), trace.column(name)), name

    def test_wrong_dtype_rejected(self):
        trace = SlotTrace.empty(4)
        columns = {name: trace.column(name) for name in TRACE_COLUMNS}
        columns["layers"] = columns["layers"].astype(np.int64)
        with pytest.raises(TypeError, match="'layers'"):
            SlotTrace(**columns)


class TestNoSilentWrap:
    def test_as_column_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="'n_prb'.*40000"):
            as_column("n_prb", np.array([1, 40000]))
        with pytest.raises(ValueError, match="'cqi'.*-200"):
            as_column("cqi", [3, -200])
        assert as_column("tbs_bits", [2**31 - 1]).dtype == np.int32

    @pytest.mark.parametrize("values", [[1, 10**20], [1.0, 1e20], [float("nan")],
                                        [float("inf")]])
    def test_as_column_rejects_values_past_int64(self, values):
        with pytest.raises(ValueError, match="'n_prb'"):
            as_column("n_prb", values)

    @pytest.mark.parametrize("cell", ["40000", "1e20"])
    def test_read_csv_rejects_out_of_range(self, tmp_path, cell):
        path = write_csv(_filled(4), tmp_path / "t.csv")
        lines = path.read_text().splitlines()
        header = [i for i, line in enumerate(lines) if not line.startswith("#")][0]
        col = lines[header].split(",").index("n_prb")
        cells = lines[header + 2].split(",")
        cells[col] = cell
        lines[header + 2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="'n_prb'"):
            read_csv(path)

    @pytest.mark.parametrize("value", [300, 10**20])
    def test_read_jsonl_rejects_out_of_range(self, tmp_path, value):
        path = write_jsonl(_filled(4), tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["mcs_index"] = value
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="'mcs_index'"):
            read_jsonl(path)

    def test_arrays_to_trace_rejects_out_of_range(self):
        trace = _filled(4)
        arrays = _int64_arrays(trace)
        arrays["n_prb"][1] = 40000
        with pytest.raises(ValueError, match="'n_prb'"):
            arrays_to_trace(arrays, _metadata_pairs(trace))

    def test_arrays_to_trace_narrows_int64_in_range(self):
        trace = _filled()
        back = arrays_to_trace(_int64_arrays(trace), _metadata_pairs(trace))
        assert _dtypes(back) == PINNED
        assert np.array_equal(back.tbs_bits, trace.tbs_bits)


def _max_value_trace(n_slots: int = 4000) -> SlotTrace:
    """Every slot scheduled at the largest grant, rank and TBS the TBS
    tables give, and every slot delivered."""
    largest = max(int(tbs_lookup_matrix(table, 275, max_layers=4,
                                        dmrs_re_per_prb=0).max())
                  for table in (MCS_TABLE_64QAM, MCS_TABLE_256QAM))
    assert largest < 2**31
    trace = SlotTrace.empty(n_slots)
    trace.fill(slice(None), scheduled=True, n_prb=275, n_re=275 * 12,
               mcs_index=27, modulation_order=8, layers=4, cqi=15,
               dci_format=1, tbs_bits=largest, delivered_bits=largest)
    return trace


class TestMaxValueTrace:
    """Analysis over the narrow columns equals the int64 layout: sums of
    int32 bits (4,000 slots carry more than 2**31 bits) must widen."""

    def test_totals_and_series(self):
        narrow = _max_value_trace()
        wide = _widened(narrow)
        assert narrow.total_bits == wide.total_bits > 2**31
        assert narrow.mean_throughput_mbps == wide.mean_throughput_mbps
        for bin_ms in (0.5, 50.0, 1000.0):
            assert np.array_equal(narrow.throughput_mbps(bin_ms),
                                  wide.throughput_mbps(bin_ms))
        for column in ("mcs_index", "layers", "n_prb", "n_re", "tbs_bits",
                       "delivered_bits", "cqi"):
            for bin_ms in (None, 10.0):
                a = KpiSeries.from_trace_column(narrow, column, bin_ms=bin_ms).values
                b = KpiSeries.from_trace_column(wide, column, bin_ms=bin_ms).values
                assert np.array_equal(a, b), column

    def test_reduce_fold(self):
        narrow = _max_value_trace()
        reduction = CampaignReduction(group_mode="label",
                                      variability_kpis=("throughput", "mcs", "mimo"))
        task = SimpleNamespace(label="max")
        a_arrays, a_meta = reduction.fold(task, narrow).to_arrays()
        b_arrays, b_meta = reduction.fold(task, _widened(narrow)).to_arrays()
        assert a_meta == b_meta
        assert a_arrays.keys() == b_arrays.keys()
        for name in a_arrays:
            assert np.array_equal(a_arrays[name], b_arrays[name]), name


def _session(n_slots: int, seed: int) -> SlotTrace:
    trace = SlotTrace.empty(n_slots, metadata=TraceMetadata(operator="salt", seed=seed))
    trace.delivered_bits[:] = np.random.default_rng(seed).integers(0, 9000, n_slots)
    return trace


def _old_layout(value) -> bytes:
    """A trace encoded as the int64-column store payload."""
    return npz_bytes(_int64_arrays(value),
                     {"kind": "trace", "trace": _metadata_pairs(value)})


class TestSchemaVersions:
    def test_old_store_salt_misses(self, tmp_path, monkeypatch):
        manifest = [SessionTask(fn=_session, kwargs={"n_slots": 20 + i},
                                seed=derive_seed(3, "salt", i), label=f"salt/{i}")
                    for i in range(3)]
        old = TraceStore(tmp_path / "cache")
        old.salt = (STORE_SCHEMA_VERSION - 1) * 1000 + codec.CODEC_VERSION
        with monkeypatch.context() as patch:
            patch.setattr(codec, "encode", _old_layout)
            run_tasks(manifest, store=old)
        assert old.stats().entries == 3

        new = TraceStore(tmp_path / "cache")
        results = run_tasks(manifest, store=new)
        assert new.hits == 0 and new.misses == 3
        assert new.stats().entries == 6 and new.stats().quarantined == 0
        assert all(_dtypes(trace) == PINNED for trace in results)

    def test_old_layout_payload_decodes_narrow(self):
        trace = _filled()
        back = codec.decode(_old_layout(trace))
        assert _dtypes(back) == PINNED
        assert np.array_equal(back.n_prb, trace.n_prb)

    def test_old_arena_schema_rejected(self):
        arena = CohortArena.allocate(2, 8)
        layout = arena.layout()
        layout["schema"] = ARENA_SCHEMA_VERSION - 1
        with pytest.raises(ValueError, match="schema mismatch"):
            CohortArena.from_layout(bytearray(arena.base.tobytes()), layout)
