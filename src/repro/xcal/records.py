"""Slot-level KPI records — the XCAL-equivalent trace schema.

One :class:`SlotTrace` holds the per-slot KPIs for a single carrier of a
single run, as a struct of numpy arrays (fast to slice, trivially
convertible to CSV rows).  Fields mirror what the paper extracts from
XCAL captures: grant size (RBs/REs), MCS index and modulation order,
MIMO layers, CQI, SINR/RSRP/RSRQ, BLER events, and delivered bits.
"""

from __future__ import annotations

import types
import typing
from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from repro.nr.numerology import Numerology, slot_duration_ms

#: The columns of a slot trace, in serialization order, each with its
#: one dtype: the narrowest type that holds the column's range (MCS <= 31,
#: CQI <= 15, layers <= 4, ``n_prb`` <= 275, ``n_re`` = 12 x ``n_prb``,
#: TBS < 2**31), 59 bytes per slot.  Every allocator, reader and the
#: native loop's input check read it here.
COLUMN_DTYPES: dict[str, np.dtype] = {name: np.dtype(t) for name, t in (
    ("slot", np.int32),
    ("time_ms", np.float64),
    ("slot_type", np.int8),         # 0=DL, 1=UL, 2=special
    ("scheduled", np.bool_),        # UE received a grant this slot
    ("n_prb", np.int16),
    ("n_re", np.int32),
    ("mcs_index", np.int8),
    ("modulation_order", np.int8),
    ("layers", np.int8),
    ("tbs_bits", np.int32),
    ("delivered_bits", np.int32),   # 0 when the TB failed decoding this slot
    ("is_retx", np.bool_),
    ("error", np.bool_),            # decode failure this slot
    ("cqi", np.int8),
    ("dci_format", np.int8),        # 0 -> 1_0, 1 -> 1_1
    ("sinr_db", np.float64),
    ("rsrp_dbm", np.float64),
    ("rsrq_db", np.float64),
)}

TRACE_COLUMNS = tuple(COLUMN_DTYPES)


def as_column(name: str, values) -> np.ndarray:
    """``values`` as trace column ``name`` at its :data:`COLUMN_DTYPES`
    dtype, never wrapped: an integer value outside the dtype's range
    raises ``ValueError`` naming the column."""
    dtype = COLUMN_DTYPES[name]
    if dtype.kind != "i":
        return np.asarray(values, dtype=dtype)
    wide = np.asarray(values)
    if wide.dtype == dtype:
        return wide
    if wide.size:
        # The range check runs on the values as given — a float, or an
        # object array of Python ints past int64 — never on a cast.
        info = np.iinfo(dtype)
        try:
            lo, hi = int(wide.min()), int(wide.max())
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"trace column {name!r} holds a value that is "
                             f"not a finite integer") from None
        if lo < info.min or hi > info.max:
            bad = lo if lo < info.min else hi
            raise ValueError(f"trace column {name!r} value {bad} is outside "
                             f"{dtype} [{info.min}, {info.max}]")
    return wide.astype(dtype)


_METADATA_FIELD_TYPES: dict[str, tuple[type, bool]] | None = None


def metadata_field_types() -> dict[str, tuple[type, bool]]:
    """``field name -> (base type, is_optional)`` for :class:`TraceMetadata`.

    Derived from the dataclass annotations themselves, so adding a new
    int/float metadata field automatically round-trips through every
    serializer with its declared type instead of degrading to ``str``.
    """
    global _METADATA_FIELD_TYPES
    if _METADATA_FIELD_TYPES is None:
        hints = typing.get_type_hints(TraceMetadata)
        resolved: dict[str, tuple[type, bool]] = {}
        for f in dataclass_fields(TraceMetadata):
            hint = hints[f.name]
            optional = False
            if typing.get_origin(hint) in (typing.Union, types.UnionType):
                args = typing.get_args(hint)
                bases = [a for a in args if a is not type(None)]
                optional = len(bases) < len(args)
                hint = bases[0] if bases else str
            resolved[f.name] = (hint, optional)
        _METADATA_FIELD_TYPES = resolved
    return _METADATA_FIELD_TYPES


def coerce_metadata_value(value, base: type, optional: bool):
    """Cast one metadata value to its declared field type.

    Accepts both already-typed values (JSON/npz) and strings (CSV
    ``key=value`` headers); ``None``/empty/"None" map to ``None`` for
    optional fields.
    """
    if optional and (value is None or value in ("", "None")):
        return None
    if base is bool:  # before int: bool is an int subclass
        return value if isinstance(value, bool) else str(value) in ("1", "True", "true")
    if base is int:
        return int(float(value)) if isinstance(value, str) else int(value)
    if base is float:
        return float(value)
    if base is str:
        return str(value)
    return value


@dataclass(frozen=True)
class TraceMetadata:
    """Run-level metadata attached to a trace.

    Field values are coerced to their declared types at construction
    (an ``int`` bandwidth becomes ``float``, a stringly seed becomes
    ``int``), so a metadata object carries identical values whether it
    came from the simulator or from a deserialized trace — serialized
    bytes are stable across cache round-trips.
    """

    operator: str = "unknown"
    country: str = "unknown"
    carrier_name: str = "cc0"
    direction: str = "DL"
    bandwidth_mhz: float = 0.0
    scs_khz: int = 30
    mobility: str = "stationary"
    seed: int | None = None

    def __post_init__(self) -> None:
        for name, (base, optional) in metadata_field_types().items():
            value = getattr(self, name)
            coerced = coerce_metadata_value(value, base, optional)
            if coerced is not value:
                object.__setattr__(self, name, coerced)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


@dataclass
class SlotTrace:
    """Struct-of-arrays slot-level KPI trace.

    All arrays share the same length (one entry per slot, including slots
    in which the UE was not scheduled — those carry zero grants, matching
    how XCAL logs idle slots).
    """

    slot: np.ndarray
    time_ms: np.ndarray
    slot_type: np.ndarray
    scheduled: np.ndarray
    n_prb: np.ndarray
    n_re: np.ndarray
    mcs_index: np.ndarray
    modulation_order: np.ndarray
    layers: np.ndarray
    tbs_bits: np.ndarray
    delivered_bits: np.ndarray
    is_retx: np.ndarray
    error: np.ndarray
    cqi: np.ndarray
    dci_format: np.ndarray
    sinr_db: np.ndarray
    rsrp_dbm: np.ndarray
    rsrq_db: np.ndarray
    mu: Numerology = Numerology.MU_1
    metadata: TraceMetadata = field(default_factory=TraceMetadata)

    def __post_init__(self) -> None:
        n = self.slot.size
        for name, dtype in COLUMN_DTYPES.items():
            column = getattr(self, name)
            if column.size != n:
                raise ValueError(f"column {name!r} has length {column.size}, expected {n}")
            if column.dtype != dtype:
                raise TypeError(f"column {name!r} has dtype {column.dtype}, "
                                f"the trace schema says {dtype}")

    # ------------------------------------------------------------------ #
    # Basics
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.slot.size)

    @property
    def slot_duration_ms(self) -> float:
        return slot_duration_ms(self.mu)

    @property
    def duration_s(self) -> float:
        """Trace duration in seconds."""
        return len(self) * self.slot_duration_ms * 1e-3

    def column(self, name: str) -> np.ndarray:
        if name not in TRACE_COLUMNS:
            raise KeyError(f"unknown trace column {name!r}")
        return getattr(self, name)

    def fill(self, where, **values) -> None:
        """Bulk column write: ``column[where] = value`` for each keyword.

        ``where`` is any numpy index (slice, integer array, boolean
        mask); each value may be a scalar or an array broadcastable to
        the selection.  One call replaces a stack of per-column
        element-wise writes in the simulator's hot loop.
        """
        for name, value in values.items():
            self.column(name)[where] = value

    # ------------------------------------------------------------------ #
    # Derived KPIs
    # ------------------------------------------------------------------ #
    @property
    def total_bits(self) -> int:
        """Total bits delivered to the MAC."""
        return int(self.delivered_bits.sum())

    @property
    def mean_throughput_mbps(self) -> float:
        """Average PHY throughput over the trace in Mbps."""
        if len(self) == 0:
            return 0.0
        return self.total_bits / self.duration_s / 1e6

    def throughput_mbps(self, bin_ms: float) -> np.ndarray:
        """Throughput series at time-bin granularity ``bin_ms``.

        Bins delivered bits into windows of ``bin_ms``; the trailing
        partial bin is dropped so every point covers a full window.
        """
        if bin_ms <= 0:
            raise ValueError("bin_ms must be positive")
        per_bin = max(1, int(round(bin_ms / self.slot_duration_ms)))
        n_bins = len(self) // per_bin
        if n_bins == 0:
            return np.array([])
        bits = self.delivered_bits[: n_bins * per_bin].reshape(n_bins, per_bin).sum(axis=1)
        return bits / (per_bin * self.slot_duration_ms * 1e-3) / 1e6

    @property
    def bler(self) -> float:
        """Initial-transmission block error rate."""
        initial = self.scheduled & ~self.is_retx
        n_initial = int(initial.sum())
        if n_initial == 0:
            return 0.0
        return float((initial & self.error).sum() / n_initial)

    def scheduled_view(self) -> "SlotTrace":
        """Sub-trace restricted to scheduled slots (grant dissection)."""
        return self.mask(self.scheduled.astype(bool))

    def mask(self, keep: np.ndarray) -> "SlotTrace":
        """Sub-trace of slots where ``keep`` is True (lengths preserved
        per column; metadata and numerology carried over)."""
        keep = np.asarray(keep, dtype=bool)
        if keep.size != len(self):
            raise ValueError("mask length mismatch")
        columns = {name: self.column(name)[keep] for name in TRACE_COLUMNS}
        return SlotTrace(mu=self.mu, metadata=self.metadata, **columns)

    def filter_cqi(self, minimum: int | None = None, maximum: int | None = None) -> "SlotTrace":
        """Sub-trace conditioned on CQI (e.g. the paper's CQI >= 12 cut)."""
        keep = np.ones(len(self), dtype=bool)
        if minimum is not None:
            keep &= self.cqi >= minimum
        if maximum is not None:
            keep &= self.cqi <= maximum
        return self.mask(keep)

    def modulation_shares(self) -> dict[int, float]:
        """Fraction of scheduled slots per modulation order (Fig. 5)."""
        sched = self.scheduled.astype(bool)
        total = int(sched.sum())
        if total == 0:
            return {}
        orders = self.modulation_order[sched]
        values, counts = np.unique(orders, return_counts=True)
        return {int(v): float(c) / total for v, c in zip(values, counts)}

    def layer_shares(self) -> dict[int, float]:
        """Fraction of scheduled slots per MIMO layer count (Fig. 6)."""
        sched = self.scheduled.astype(bool)
        total = int(sched.sum())
        if total == 0:
            return {}
        values, counts = np.unique(self.layers[sched], return_counts=True)
        return {int(v): float(c) / total for v, c in zip(values, counts)}

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, n_slots: int, mu: Numerology = Numerology.MU_1,
              metadata: TraceMetadata | None = None) -> "SlotTrace":
        """An all-zero trace of ``n_slots`` slots (simulator scratchpad)."""
        if n_slots < 0:
            raise ValueError("n_slots must be non-negative")
        columns = {name: np.zeros(n_slots, dtype=dtype)
                   for name, dtype in COLUMN_DTYPES.items()}
        columns["slot"] = np.arange(n_slots, dtype=COLUMN_DTYPES["slot"])
        columns["time_ms"] = columns["slot"] * slot_duration_ms(mu)
        return cls(mu=mu, metadata=metadata or TraceMetadata(), **columns)

    def concat(self, other: "SlotTrace") -> "SlotTrace":
        """Concatenate two traces (slot indices are re-based)."""
        if other.mu != self.mu:
            raise ValueError("cannot concatenate traces with different numerologies")
        columns = {
            name: np.concatenate([self.column(name), other.column(name)])
            for name in TRACE_COLUMNS
        }
        columns["slot"] = np.arange(len(self) + len(other), dtype=COLUMN_DTYPES["slot"])
        columns["time_ms"] = columns["slot"] * self.slot_duration_ms
        return SlotTrace(mu=self.mu, metadata=self.metadata, **columns)
