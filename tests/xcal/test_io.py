"""Tests for repro.xcal.io — CSV / JSONL / npz round-trips."""

import numpy as np
import pytest

from repro.nr.numerology import Numerology
from repro.xcal.io import (
    npz_arrays,
    npz_bytes,
    read_csv,
    read_jsonl,
    read_npz,
    trace_npz_bytes,
    write_csv,
    write_jsonl,
    write_npz,
)
from repro.xcal.records import (
    TRACE_COLUMNS,
    SlotTrace,
    TraceMetadata,
    metadata_field_types,
)


@pytest.fixture
def sample_trace(short_dl_trace):
    return short_dl_trace


def _assert_traces_equal(a: SlotTrace, b: SlotTrace):
    assert len(a) == len(b)
    assert a.mu == b.mu
    for name in TRACE_COLUMNS:
        left, right = a.column(name), b.column(name)
        if left.dtype.kind == "f":
            assert np.allclose(left, right, atol=1e-9), name
        else:
            assert np.array_equal(left, right), name


class TestCsv:
    def test_roundtrip(self, sample_trace, tmp_path):
        path = write_csv(sample_trace, tmp_path / "trace.csv")
        recovered = read_csv(path)
        _assert_traces_equal(sample_trace, recovered)

    def test_metadata_preserved(self, cell_90mhz, good_channel, rng, tmp_path):
        from repro.ran.simulator import simulate_downlink

        metadata = TraceMetadata(operator="Vodafone", country="Spain",
                                 carrier_name="n78-90", direction="DL",
                                 bandwidth_mhz=90.0, scs_khz=30, seed=7)
        trace = simulate_downlink(cell_90mhz, good_channel, rng=rng, metadata=metadata)
        recovered = read_csv(write_csv(trace, tmp_path / "meta.csv"))
        assert recovered.metadata.operator == "Vodafone"
        assert recovered.metadata.bandwidth_mhz == 90.0
        assert recovered.metadata.seed == 7

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# mu=1\nslot,time_ms\n0,0.0\n")
        with pytest.raises(ValueError, match="missing trace column"):
            read_csv(path)

    def test_empty_trace_roundtrip(self, tmp_path):
        trace = SlotTrace.empty(0)
        recovered = read_csv(write_csv(trace, tmp_path / "empty.csv"))
        assert len(recovered) == 0


class TestJsonl:
    def test_roundtrip(self, sample_trace, tmp_path):
        path = write_jsonl(sample_trace, tmp_path / "trace.jsonl")
        recovered = read_jsonl(path)
        _assert_traces_equal(sample_trace, recovered)

    def test_mu_preserved(self, tmp_path):
        trace = SlotTrace.empty(10, mu=Numerology.MU_3)
        recovered = read_jsonl(write_jsonl(trace, tmp_path / "mu3.jsonl"))
        assert recovered.mu is Numerology.MU_3

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_headerless_records_accepted(self, sample_trace, tmp_path):
        # A file with records but no metadata object still loads.
        path = write_jsonl(sample_trace, tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        stripped = tmp_path / "noheader.jsonl"
        stripped.write_text("\n".join(lines[1:]) + "\n")
        recovered = read_jsonl(stripped)
        assert len(recovered) == len(sample_trace)


class TestNpz:
    def test_roundtrip(self, sample_trace, tmp_path):
        path = write_npz(sample_trace, tmp_path / "trace.npz")
        recovered = read_npz(path)
        _assert_traces_equal(sample_trace, recovered)
        assert recovered.metadata == sample_trace.metadata

    def test_empty_trace_roundtrip(self, tmp_path):
        trace = SlotTrace.empty(0)
        recovered = read_npz(write_npz(trace, tmp_path / "empty.npz"))
        assert len(recovered) == 0

    def test_mu_preserved(self, tmp_path):
        trace = SlotTrace.empty(10, mu=Numerology.MU_3)
        recovered = read_npz(write_npz(trace, tmp_path / "mu3.npz"))
        assert recovered.mu is Numerology.MU_3

    def test_dtypes_exact(self, sample_trace, tmp_path):
        recovered = read_npz(write_npz(sample_trace, tmp_path / "t.npz"))
        for name in TRACE_COLUMNS:
            assert recovered.column(name).dtype == sample_trace.column(name).dtype, name
            # npz is binary-exact; no allclose tolerance needed.
            assert np.array_equal(recovered.column(name), sample_trace.column(name)), name

    def test_bytes_deterministic(self, sample_trace):
        assert trace_npz_bytes(sample_trace) == trace_npz_bytes(sample_trace)

    def test_npz_bytes_roundtrip_meta(self):
        arrays = {"x": np.arange(4), "y": np.linspace(0.0, 1.0, 4)}
        meta = {"operator": "a=b", "note": "", "seed": None}
        out_arrays, out_meta = npz_arrays(npz_bytes(arrays, meta))
        assert out_meta == meta
        assert np.array_equal(out_arrays["x"], arrays["x"])
        assert np.array_equal(out_arrays["y"], arrays["y"])


class TestAwkwardMetadata:
    """Round-trips with values that stress the key=value / JSON headers."""

    def _trace_with(self, **overrides) -> SlotTrace:
        metadata = TraceMetadata(**overrides)
        return SlotTrace.empty(3, metadata=metadata)

    @pytest.mark.parametrize("writer,reader", [
        (write_csv, read_csv),
        (write_jsonl, read_jsonl),
        (write_npz, read_npz),
    ])
    def test_equals_sign_in_value(self, writer, reader, tmp_path):
        trace = self._trace_with(operator="O2=Telefonica", carrier_name="n78=C1")
        recovered = reader(writer(trace, tmp_path / "eq.dat"))
        assert recovered.metadata.operator == "O2=Telefonica"
        assert recovered.metadata.carrier_name == "n78=C1"

    @pytest.mark.parametrize("writer,reader", [
        (write_csv, read_csv),
        (write_jsonl, read_jsonl),
        (write_npz, read_npz),
    ])
    def test_empty_string_and_none_seed(self, writer, reader, tmp_path):
        trace = self._trace_with(operator="", country="", seed=None)
        recovered = reader(writer(trace, tmp_path / "none.dat"))
        assert recovered.metadata.operator == ""
        assert recovered.metadata.country == ""
        assert recovered.metadata.seed is None

    def test_csv_headerless_file_loads(self, sample_trace, tmp_path):
        # A CSV without the '#' metadata preamble is a valid extract.
        path = write_csv(sample_trace, tmp_path / "full.csv")
        lines = path.read_text().splitlines()
        body = [line for line in lines if not line.startswith("#")]
        bare = tmp_path / "bare.csv"
        bare.write_text("\n".join(body) + "\n")
        recovered = read_csv(bare)
        _assert_traces_equal(sample_trace, recovered)
        assert recovered.metadata == TraceMetadata()

    def test_csv_partial_metadata_loads(self, sample_trace, tmp_path):
        # Only some metadata keys present: the rest take defaults.
        path = write_csv(sample_trace, tmp_path / "full.csv")
        lines = path.read_text().splitlines()
        kept = [line for line in lines
                if not line.startswith("#") or "operator=" in line]
        partial = tmp_path / "partial.csv"
        partial.write_text("\n".join(kept) + "\n")
        recovered = read_csv(partial)
        assert recovered.metadata.operator == sample_trace.metadata.operator
        assert recovered.metadata.seed is None

    def test_unknown_metadata_keys_ignored(self, sample_trace, tmp_path):
        path = write_csv(sample_trace, tmp_path / "extra.csv")
        body = path.read_text()
        path.write_text("# extractor_version=9.1\n# gps_fix=yes\n" + body)
        recovered = read_csv(path)
        _assert_traces_equal(sample_trace, recovered)


class TestMetadataFieldTypes:
    def test_casts_derived_from_annotations(self):
        types = metadata_field_types()
        assert types["scs_khz"] == (int, False)
        assert types["bandwidth_mhz"] == (float, False)
        assert types["seed"] == (int, True)
        assert types["operator"] == (str, False)

    def test_every_dataclass_field_covered(self):
        import dataclasses

        names = {f.name for f in dataclasses.fields(TraceMetadata)}
        assert set(metadata_field_types()) == names

    def test_constructor_coerces_strings(self):
        meta = TraceMetadata(bandwidth_mhz="90", scs_khz="30.0", seed="None")
        assert meta.bandwidth_mhz == 90.0 and isinstance(meta.bandwidth_mhz, float)
        assert meta.scs_khz == 30 and isinstance(meta.scs_khz, int)
        assert meta.seed is None


def _np_load(data: bytes) -> tuple[list[tuple[str, np.ndarray]], dict]:
    """What ``np.load`` reads from an npz blob: ordered members, meta."""
    import io
    import json

    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        members = [(name, archive[name]) for name in archive.files if name != "_meta"]
        meta = (json.loads(str(archive["_meta"].reshape(-1)[0]))
                if "_meta" in archive.files else {})
    return members, meta


def _filled_trace(n: int, seed: int) -> SlotTrace:
    trace = SlotTrace.empty(n, metadata=TraceMetadata(operator="npz", seed=seed))
    rng = np.random.default_rng(seed)
    trace.scheduled[:] = rng.random(n) < 0.7
    trace.n_prb[:] = rng.integers(0, 276, n)
    trace.tbs_bits[:] = rng.integers(0, 1_300_000, n)
    trace.sinr_db[:] = rng.normal(15.0, 5.0, n)
    return trace


def _payload(kind: str) -> bytes:
    """One npz blob of each layout the store and the exporters write."""
    import io
    from types import SimpleNamespace

    from repro.core.reduce import CampaignReduction
    from repro.ran.ca import AggregatedResult
    from repro.store import codec
    from repro.xcal.io import _metadata_pairs, trace_to_arrays

    trace = _filled_trace(40, 3)
    if kind == "trace":
        return codec.encode(trace)
    if kind == "ca":
        return codec.encode(AggregatedResult(per_carrier=[trace, _filled_trace(40, 4)]))
    if kind == "sketch":
        reduction = CampaignReduction(group_mode="label")
        return codec.encode(reduction.fold(SimpleNamespace(label="s"), trace))
    if kind == "old_layout":  # int64 integer columns, as before the narrow schema
        wide = {name: col.astype(np.int64) if col.dtype.kind == "i" else col
                for name, col in trace_to_arrays(trace).items()}
        return npz_bytes(wide, {"kind": "trace", "trace": _metadata_pairs(trace)})
    if kind == "empty":
        return trace_npz_bytes(SlotTrace.empty(0))
    buffer = io.BytesIO()
    save = np.savez_compressed if kind == "savez_compressed" else np.savez
    save(buffer, x=np.arange(300, dtype=">i4"), grid=np.eye(3), flags=np.ones(5, bool),
         label=np.array("héllo"), none=np.zeros((0, 4)))
    return buffer.getvalue()


class TestNpzDecoder:
    """``npz_arrays`` decodes the zip container itself; it must read
    exactly what ``np.load`` reads, and refuse what is malformed."""

    @pytest.mark.parametrize("kind", ["trace", "ca", "sketch", "old_layout", "empty",
                                      "savez", "savez_compressed"])
    def test_equals_np_load(self, kind):
        data = _payload(kind)
        expected, expected_meta = _np_load(data)
        arrays, meta = npz_arrays(data)
        assert meta == expected_meta
        assert list(arrays) == [name for name, _ in expected]
        for name, want in expected:
            got = arrays[name]
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name

    def test_columns_writable_aligned_owning(self):
        arrays, _ = npz_arrays(_payload("ca"))
        for name, array in arrays.items():
            assert array.flags.writeable and array.flags.aligned, name
            assert array.flags.owndata and array.flags.c_contiguous, name

    def test_read_npz_matches_np_load(self, sample_trace, tmp_path):
        path = write_npz(sample_trace, tmp_path / "t.npz")
        expected, _ = _np_load(path.read_bytes())
        recovered = read_npz(path)
        for name, want in expected:
            assert np.array_equal(recovered.column(name), want), name

    @staticmethod
    def _body_offset(data: bytes) -> int:
        """Offset of the first data byte of the first member's array."""
        import struct

        name_len, extra_len = struct.unpack_from("<HH", data, 26)
        body = 30 + name_len + extra_len
        header_len = struct.unpack_from("<H", data, body + 8)[0]
        return body + 10 + header_len

    def test_flipped_body_byte_fails_crc(self):
        data = bytearray(_payload("trace"))
        data[self._body_offset(bytes(data))] ^= 0x01
        with pytest.raises(ValueError, match="CRC"):
            npz_arrays(bytes(data))

    @pytest.mark.parametrize("keep", [0.25, 0.5, 0.9, 0.999])
    def test_truncated_blob(self, keep):
        data = _payload("trace")
        with pytest.raises(ValueError):
            npz_arrays(data[:int(len(data) * keep)])

    def test_bad_local_signature(self):
        data = bytearray(_payload("trace"))
        assert data[:4] == b"PK\x03\x04"
        data[:4] = b"PK\x00\x00"
        with pytest.raises(ValueError, match="signature"):
            npz_arrays(bytes(data))

    def test_object_dtype_rejected(self):
        import io
        import zipfile

        member = io.BytesIO()
        np.lib.format.write_array(member, np.array([1, "a"], dtype=object),
                                  allow_pickle=True)
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            archive.writestr("x.npy", member.getvalue())
        with pytest.raises(ValueError, match="object"):
            npz_arrays(buffer.getvalue())
