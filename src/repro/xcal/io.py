"""Trace serialization: CSV, JSONL and columnar npz.

The released artifact repository ships per-section CSV extracts; these
readers/writers round-trip our :class:`~repro.xcal.records.SlotTrace`
through the same flat format so externally produced KPI extracts with
matching columns load through the identical code path.

CSV layout: a ``#`` metadata header (key=value lines), then a column
header row, then one row per slot.  JSONL layout: first line is a
metadata object, each following line one slot record.  npz layout: one
``.npy`` zip member per trace column plus a ``_meta`` member holding
the metadata object as JSON — columnar, binary-exact, and written
deterministically (fixed zip timestamps, sorted members) so identical
traces always serialize to identical bytes.
"""

from __future__ import annotations

import ast
import csv
import io as _io
import json
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.nr.numerology import Numerology
from repro.xcal.records import (
    COLUMN_DTYPES,
    TRACE_COLUMNS,
    SlotTrace,
    TraceMetadata,
    as_column,
    metadata_field_types,
)


def _metadata_pairs(trace: SlotTrace) -> dict:
    pairs = {"mu": int(trace.mu)}
    pairs.update(trace.metadata.as_dict())
    return pairs


def _parse_metadata(pairs: dict) -> tuple[Numerology, TraceMetadata]:
    """Metadata pairs (string-valued or JSON-typed) back to objects.

    Casts come from the :class:`TraceMetadata` field annotations (via
    :func:`repro.xcal.records.metadata_field_types` and the coercing
    constructor), never from a hardcoded per-field list; unknown keys
    are ignored so extended extracts still load.
    """
    mu = Numerology(int(pairs.pop("mu", 1)))
    known = metadata_field_types()
    kwargs = {key: value for key, value in pairs.items() if key in known}
    return mu, TraceMetadata(**kwargs)


def _columns_to_trace(columns: dict[str, list], mu: Numerology, metadata: TraceMetadata) -> SlotTrace:
    """Text-parsed column values to a trace at the schema dtypes."""
    arrays = {}
    for name, dtype in COLUMN_DTYPES.items():
        raw = columns.get(name, [])
        if dtype.kind == "b":
            values = [str(v) in ("1", "True", "true") for v in raw]
        else:
            values = [float(v) for v in raw]
        arrays[name] = as_column(name, values)
    return SlotTrace(mu=mu, metadata=metadata, **arrays)


# ---------------------------------------------------------------------- #
# CSV
# ---------------------------------------------------------------------- #
def write_csv(trace: SlotTrace, path: str | Path) -> Path:
    """Write a trace to CSV; returns the path."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        for key, value in _metadata_pairs(trace).items():
            handle.write(f"# {key}={value}\n")
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        matrix = [trace.column(name) for name in TRACE_COLUMNS]
        for row in zip(*matrix):
            writer.writerow([int(v) if isinstance(v, (bool, np.bool_)) else v for v in row])
    return path


def read_csv(path: str | Path) -> SlotTrace:
    """Read a trace written by :func:`write_csv` (or a compatible extract)."""
    path = Path(path)
    pairs: dict = {}
    with path.open() as handle:
        position = handle.tell()
        line = handle.readline()
        while line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                pairs[key.strip()] = value.strip()
            position = handle.tell()
            line = handle.readline()
        handle.seek(position)
        reader = csv.DictReader(handle)
        columns: dict[str, list] = {name: [] for name in TRACE_COLUMNS}
        for row in reader:
            for name in TRACE_COLUMNS:
                if name not in row or row[name] is None:
                    raise ValueError(f"CSV {path} is missing trace column {name!r}")
                columns[name].append(row[name])
    mu, metadata = _parse_metadata(pairs)
    return _columns_to_trace(columns, mu, metadata)


# ---------------------------------------------------------------------- #
# JSONL
# ---------------------------------------------------------------------- #
def write_jsonl(trace: SlotTrace, path: str | Path) -> Path:
    """Write a trace to JSONL; first line holds the metadata object."""
    path = Path(path)
    with path.open("w") as handle:
        handle.write(json.dumps({"_meta": _metadata_pairs(trace)}) + "\n")
        matrix = {name: trace.column(name) for name in TRACE_COLUMNS}
        for i in range(len(trace)):
            record = {}
            for name in TRACE_COLUMNS:
                value = matrix[name][i]
                if isinstance(value, (np.bool_,)):
                    record[name] = bool(value)
                elif isinstance(value, (np.integer,)):
                    record[name] = int(value)
                elif isinstance(value, (np.floating,)):
                    record[name] = float(value)
                else:
                    record[name] = value
            handle.write(json.dumps(record) + "\n")
    return path


def read_jsonl(path: str | Path) -> SlotTrace:
    """Read a trace written by :func:`write_jsonl`."""
    path = Path(path)
    columns: dict[str, list] = {name: [] for name in TRACE_COLUMNS}
    pairs: dict = {}
    with path.open() as handle:
        first = handle.readline()
        if not first:
            raise ValueError(f"{path} is empty")
        head = json.loads(first)
        if "_meta" in head:
            pairs = head["_meta"]
        else:  # headerless file: first line is a record
            for name in TRACE_COLUMNS:
                columns[name].append(head[name])
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name in TRACE_COLUMNS:
                columns[name].append(record[name])
    mu, metadata = _parse_metadata(dict(pairs))
    return _columns_to_trace(columns, mu, metadata)


# ---------------------------------------------------------------------- #
# npz (columnar)
# ---------------------------------------------------------------------- #
#: Fixed zip member timestamp so npz bytes depend only on trace content.
_NPZ_EPOCH = (1980, 1, 1, 0, 0, 0)


def npz_bytes(arrays: dict[str, np.ndarray], meta: dict) -> bytes:
    """Serialize named arrays plus a JSON metadata object to npz bytes.

    Unlike ``numpy.savez`` the result is deterministic: members are
    written in sorted order with a fixed timestamp and no compression,
    so identical inputs always produce identical bytes (the store hashes
    and byte-compares these blobs).  The output loads with ``np.load``.
    """
    payload = dict(arrays)
    payload["_meta"] = np.array(json.dumps(meta, sort_keys=True))
    buffer = _io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name in sorted(payload):
            member = _io.BytesIO()
            np.lib.format.write_array(member, np.ascontiguousarray(payload[name]),
                                      allow_pickle=False)
            archive.writestr(zipfile.ZipInfo(name + ".npy", date_time=_NPZ_EPOCH),
                             member.getvalue())
    return buffer.getvalue()


#: Zip records :func:`npz_arrays` reads: the end-of-central-directory
#: record, a central directory entry and a local file header.
_ZIP_END = struct.Struct("<4s4H2LH")
_ZIP_CENTRAL = struct.Struct("<4s6H3L5H2L")
_ZIP_LOCAL = struct.Struct("<4s5H3L2H")
_ZIP64_MARK = 0xFFFFFFFF

#: Parsed npy headers by format version and header bytes.  Columns of
#: one length share a header, and so do payloads of one session length,
#: so a decode parses each distinct header once.
_NPY_HEADERS: dict[tuple[int, bytes], tuple[np.dtype, tuple[int, ...]]] = {}
_NPY_KEYS = {"descr", "fortran_order", "shape"}
_NPY_HEADERS_MAX = 256


def _zip_members(data: bytes) -> list[tuple[str, bytes | memoryview]]:
    """``(name, body)`` of every member of a zip archive, each body
    checked against its CRC-32; deflated bodies are inflated.

    Stored bodies are zero-copy views of ``data``.  Anything malformed
    (bad signature, a size past the end, a CRC mismatch, an unsupported
    method or zip64 layout) raises ``ValueError``.
    """
    view = memoryview(data)
    at = data.rfind(b"PK\x05\x06", max(0, len(data) - _ZIP_END.size - 0xFFFF))
    if at < 0 or at + _ZIP_END.size > len(data):
        raise ValueError("npz payload has no zip end record")
    _, _, _, _, count, cd_size, cd_at, _ = _ZIP_END.unpack_from(data, at)
    if count == 0xFFFF or _ZIP64_MARK in (cd_size, cd_at):
        raise ValueError("zip64 npz payloads are not supported")
    if cd_at + cd_size > at:
        raise ValueError("npz central directory runs past its end record")
    members = []
    pos = cd_at
    for _ in range(count):
        if pos + _ZIP_CENTRAL.size > at:
            raise ValueError("npz central directory is truncated")
        (sig, _, _, flags, method, _, _, crc, csize, usize, name_len, extra_len,
         comment_len, _, _, _, local_at) = _ZIP_CENTRAL.unpack_from(data, pos)
        if sig != b"PK\x01\x02":
            raise ValueError("bad npz central directory signature")
        name = data[pos + _ZIP_CENTRAL.size:pos + _ZIP_CENTRAL.size + name_len].decode(
            "utf-8" if flags & 0x800 else "cp437")
        pos += _ZIP_CENTRAL.size + name_len + extra_len + comment_len
        if flags & 0x1 or _ZIP64_MARK in (csize, usize, local_at):
            raise ValueError(f"npz member {name!r} is encrypted or zip64")
        if local_at + _ZIP_LOCAL.size > len(data):
            raise ValueError(f"npz member {name!r} starts past the end")
        sig, *_, local_name_len, local_extra_len = _ZIP_LOCAL.unpack_from(data, local_at)
        if sig != b"PK\x03\x04":
            raise ValueError(f"bad local header signature for npz member {name!r}")
        body_at = local_at + _ZIP_LOCAL.size + local_name_len + local_extra_len
        if body_at + csize > len(data):
            raise ValueError(f"npz member {name!r} runs past the end")
        body = view[body_at:body_at + csize]
        if method == zipfile.ZIP_DEFLATED:
            try:
                body = zlib.decompress(body, -15, usize)
            except zlib.error as exc:
                raise ValueError(f"npz member {name!r} does not inflate: {exc}") from None
        elif method != zipfile.ZIP_STORED:
            raise ValueError(f"npz member {name!r} uses zip method {method}")
        if len(body) != usize or zlib.crc32(body) != crc:
            raise ValueError(f"npz member {name!r} fails its CRC-32 check")
        members.append((name, body))
    return members


def _npy_header(major: int, header: bytes) -> tuple[np.dtype, tuple[int, ...]]:
    """``(dtype, shape)`` of an npy header dict, memoized by its bytes."""
    parsed = _NPY_HEADERS.get((major, header))
    if parsed is not None:
        return parsed
    try:
        fields = ast.literal_eval(header.decode("utf8" if major == 3 else "latin1"))
        if not isinstance(fields, dict) or fields.keys() != _NPY_KEYS:
            raise ValueError(f"header keys are not {sorted(_NPY_KEYS)}")
        descr, fortran, shape = fields["descr"], fields["fortran_order"], fields["shape"]
        dtype = np.lib.format.descr_to_dtype(descr)
    except (SyntaxError, ValueError, TypeError, MemoryError, RecursionError) as exc:
        raise ValueError(f"bad npy header {header[:80]!r}: {exc}") from None
    if dtype.hasobject:
        raise ValueError("npy member holds an object dtype")
    if fortran is not False:
        raise ValueError("npy member is not C-ordered")
    if not (isinstance(shape, tuple)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"bad npy shape {shape!r}")
    if len(_NPY_HEADERS) >= _NPY_HEADERS_MAX:
        _NPY_HEADERS.clear()
    _NPY_HEADERS[major, header] = parsed = (dtype, shape)
    return parsed


def _npy_array(name: str, body: bytes | memoryview) -> np.ndarray:
    """One npy member's array, copied out of ``body``: aligned,
    writable and owning its data, as ``np.load`` returns it."""
    if bytes(body[:6]) != b"\x93NUMPY" or len(body) < 10:
        raise ValueError(f"npz member {name!r} is not an npy array")
    major = body[6]
    if major == 1:
        header_at, header_len = 10, int.from_bytes(body[8:10], "little")
    elif major in (2, 3):
        header_at, header_len = 12, int.from_bytes(body[8:12], "little")
    else:
        raise ValueError(f"npz member {name!r} has npy version {major}")
    data_at = header_at + header_len
    dtype, shape = _npy_header(major, bytes(body[header_at:data_at]))
    count = 1
    for n in shape:
        count *= n
    if len(body) - data_at != count * dtype.itemsize:
        raise ValueError(f"npz member {name!r} holds {len(body) - data_at} data "
                         f"bytes, its header says {count * dtype.itemsize}")
    if count * dtype.itemsize == 0:
        return np.empty(shape, dtype=dtype)
    return np.frombuffer(body, dtype=dtype, count=count, offset=data_at).reshape(shape).copy()


def npz_arrays(data: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`npz_bytes`: ``(arrays, meta)`` from npz bytes.

    Decodes the zip container directly (see :func:`_zip_members`), so a
    read costs one CRC pass and one copy per column; it also reads any
    ``np.savez`` or ``np.savez_compressed`` file.  Returns what
    ``np.load`` would; raises ``ValueError`` on any malformed payload.
    """
    arrays = {}
    for member, body in _zip_members(data):
        name = member[:-4] if member.endswith(".npy") else member
        if name in arrays:
            raise ValueError(f"npz payload repeats member {member!r}")
        arrays[name] = _npy_array(member, body)
    meta = arrays.pop("_meta", None)
    return arrays, {} if meta is None else json.loads(str(meta.reshape(-1)[0]))


def trace_to_arrays(trace: SlotTrace, prefix: str = "") -> dict[str, np.ndarray]:
    """Columnar arrays of a trace, optionally under a ``prefix``."""
    return {prefix + name: trace.column(name) for name in TRACE_COLUMNS}


def arrays_to_trace(arrays: dict[str, np.ndarray], pairs: dict,
                    prefix: str = "") -> SlotTrace:
    """Rebuild a trace from columnar arrays plus a metadata-pairs dict."""
    mu, metadata = _parse_metadata(dict(pairs))
    columns = {}
    for name in TRACE_COLUMNS:
        raw = arrays.get(prefix + name)
        if raw is None:
            raise ValueError(f"npz payload is missing trace column {prefix + name!r}")
        columns[name] = as_column(name, raw)
    return SlotTrace(mu=mu, metadata=metadata, **columns)


def trace_npz_bytes(trace: SlotTrace) -> bytes:
    """A single trace as deterministic npz bytes."""
    return npz_bytes(trace_to_arrays(trace), _metadata_pairs(trace))


def write_npz(trace: SlotTrace, path: str | Path) -> Path:
    """Write a trace as a columnar npz blob; returns the path."""
    path = Path(path)
    path.write_bytes(trace_npz_bytes(trace))
    return path


def read_npz(path: str | Path) -> SlotTrace:
    """Read a trace written by :func:`write_npz`."""
    arrays, meta = npz_arrays(Path(path).read_bytes())
    return arrays_to_trace(arrays, meta)
