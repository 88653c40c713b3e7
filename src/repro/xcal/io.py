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

import csv
import io as _io
import json
import zipfile
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


def npz_arrays(data: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`npz_bytes`: ``(arrays, meta)`` from npz bytes."""
    with np.load(_io.BytesIO(data), allow_pickle=False) as archive:
        names = [name for name in archive.files if name != "_meta"]
        arrays = {name: archive[name] for name in names}
        if "_meta" in archive.files:
            meta = json.loads(str(np.asarray(archive["_meta"]).reshape(-1)[0]))
        else:
            meta = {}
    return arrays, meta


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
