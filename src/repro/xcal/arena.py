"""Cohort trace arena: one contiguous buffer backing a whole cohort.

The cohort entry points (:mod:`repro.ran.tensor`) produce one
:class:`~repro.xcal.records.SlotTrace` per session of a same-shape
cohort.  A :class:`CohortArena` gives the cohort one home for them:

- Every trace column of every session lives in **one contiguous
  buffer**, laid out as an ``(n_cols, n_slots)`` 2-D block per column
  in :data:`~repro.xcal.records.TRACE_COLUMNS` order, with the
  schema dtypes of :data:`~repro.xcal.records.COLUMN_DTYPES` (int8 to
  int32, bool, float64) so a row serializes byte-identically to a
  standalone trace.
- Each finished trace is packed into its row (:meth:`pack_row`);
  per-session traces are then just row views (:meth:`trace`).
- The buffer can live in ``multiprocessing.shared_memory``: a worker
  fills the arena, ships only ``(segment name, layout)`` over the
  pipe, and the parent rebuilds zero-copy views with
  :meth:`from_layout` (the shared-memory transport of
  :mod:`repro.core.runner`).

The layout is **schema-versioned** (:data:`ARENA_SCHEMA_VERSION`,
folded into every layout dict): a parent refuses to interpret a
segment written by a worker with a different column schema instead of
silently mis-slicing it.

All column views derive from one base ``uint8`` array over the
buffer, so any live row view keeps the base (and therefore a backing
shared-memory mapping) alive — the runner hangs the segment's
deferred close off the base array's lifetime.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.nr.numerology import Numerology, slot_duration_ms
from repro.xcal.records import COLUMN_DTYPES, SlotTrace, TraceMetadata

__all__ = [
    "ARENA_SCHEMA_VERSION",
    "CohortArena",
    "arena_nbytes",
]

#: Bump when the column set, order, dtypes or packing rule changes.
#: Folded into every layout dict; :meth:`CohortArena.from_layout`
#: rejects mismatches.  v2: the narrow column dtypes of
#: :data:`~repro.xcal.records.COLUMN_DTYPES`.
ARENA_SCHEMA_VERSION = 2

#: Per-column block alignment inside the buffer.  Blocks start on
#: 8-byte boundaries so int64/float64 views are always aligned (the
#: base mapping is page-aligned for both shm and heap buffers).
_ALIGN = 8


def _offsets(n_cols: int, n_slots: int) -> tuple[dict[str, int], int]:
    """``column name -> byte offset`` plus the total buffer size."""
    offsets: dict[str, int] = {}
    cursor = 0
    cells = n_cols * n_slots
    for name, dtype in COLUMN_DTYPES.items():
        offsets[name] = cursor
        nbytes = cells * dtype.itemsize
        cursor += -(-nbytes // _ALIGN) * _ALIGN
    return offsets, cursor


def arena_nbytes(n_cols: int, n_slots: int) -> int:
    """Buffer size in bytes for an ``(n_cols, n_slots)`` arena."""
    if n_cols < 1 or n_slots < 0:
        raise ValueError("arena needs n_cols >= 1 and n_slots >= 0")
    return _offsets(n_cols, n_slots)[1]


class CohortArena:
    """A cohort's trace columns as 2-D views over one buffer.

    Construct with :meth:`allocate` (private heap buffer, engine side),
    :meth:`over_buffer` (caller-supplied buffer, e.g. a fresh
    shared-memory segment) or :meth:`from_layout` (attach side of the
    shm transport).  ``columns[name]`` is the ``(n_cols, n_slots)``
    view of one trace column; :meth:`trace` materializes session ``c``
    as a :class:`SlotTrace` of zero-copy row views.
    """

    def __init__(self, base: np.ndarray, n_cols: int, n_slots: int,
                 mu: Numerology, fill_base: bool) -> None:
        if base.dtype != np.uint8 or base.ndim != 1:
            raise ValueError("arena base must be a 1-D uint8 array")
        offsets, total = _offsets(n_cols, n_slots)
        if base.size < total:
            raise ValueError(
                f"arena buffer holds {base.size} bytes, layout needs {total}")
        self.n_cols = n_cols
        self.n_slots = n_slots
        self.mu = Numerology(mu)
        self.base: np.ndarray | None = base
        self.columns: dict[str, np.ndarray] = {}
        cells = n_cols * n_slots
        for name, dtype in COLUMN_DTYPES.items():
            lo = offsets[name]
            block = base[lo:lo + cells * dtype.itemsize]
            self.columns[name] = block.view(dtype).reshape(n_cols, n_slots)
        if fill_base:
            slots = np.arange(n_slots, dtype=np.int64)
            self.columns["slot"][:] = slots
            self.columns["time_ms"][:] = slots * slot_duration_ms(self.mu)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def allocate(cls, n_cols: int, n_slots: int,
                 mu: Numerology = Numerology.MU_1) -> "CohortArena":
        """A zero-initialized arena over a private heap buffer."""
        base = np.zeros(arena_nbytes(n_cols, n_slots), dtype=np.uint8)
        return cls(base, n_cols, n_slots, mu, fill_base=True)

    @classmethod
    def over_buffer(cls, buffer, n_cols: int, n_slots: int,
                    mu: Numerology = Numerology.MU_1, *,
                    zeroed: bool = False, fill_base: bool = True) -> "CohortArena":
        """An arena over a caller-supplied writable buffer.

        ``zeroed=True`` skips the explicit zero fill (fresh POSIX shm
        segments are kernel-zeroed); ``fill_base=False`` skips the
        slot/time_ms invariants too (the attach side of the shm
        transport, where the writer already filled everything).
        """
        base = np.frombuffer(buffer, dtype=np.uint8)
        if not base.flags.writeable:
            raise ValueError("arena buffer must be writable")
        if fill_base and not zeroed:
            base[:arena_nbytes(n_cols, n_slots)] = 0
        return cls(base, n_cols, n_slots, mu, fill_base=fill_base)

    @classmethod
    def from_layout(cls, buffer, layout: Mapping) -> "CohortArena":
        """Attach to an already-written arena described by ``layout``.

        Validates the schema version and size before building any view,
        so a segment written under a different column schema fails
        loudly instead of mis-slicing.
        """
        schema = layout.get("schema")
        if schema != ARENA_SCHEMA_VERSION:
            raise ValueError(
                f"arena schema mismatch: segment has {schema!r}, "
                f"this process expects {ARENA_SCHEMA_VERSION}")
        n_cols = int(layout["n_cols"])
        n_slots = int(layout["n_slots"])
        mu = Numerology(int(layout["mu"]))
        expected = arena_nbytes(n_cols, n_slots)
        if int(layout["nbytes"]) != expected:
            raise ValueError(
                f"arena layout declares {layout['nbytes']} bytes, "
                f"schema computes {expected}")
        return cls.over_buffer(buffer, n_cols, n_slots, mu,
                               zeroed=True, fill_base=False)

    def layout(self) -> dict:
        """The picklable descriptor :meth:`from_layout` consumes."""
        return {
            "schema": ARENA_SCHEMA_VERSION,
            "n_cols": self.n_cols,
            "n_slots": self.n_slots,
            "mu": int(self.mu),
            "nbytes": arena_nbytes(self.n_cols, self.n_slots),
        }

    # ------------------------------------------------------------------ #
    # Traces
    # ------------------------------------------------------------------ #
    def trace(self, c: int, metadata: TraceMetadata | None = None) -> SlotTrace:
        """Session ``c`` as a :class:`SlotTrace` of zero-copy row views.

        Rows of a C-contiguous 2-D block are themselves contiguous, so
        the views serialize (npz/CSV/store codec) byte-identically to a
        standalone trace.
        """
        if not 0 <= c < self.n_cols:
            raise IndexError(f"arena row {c} out of range [0, {self.n_cols})")
        return SlotTrace(mu=self.mu, metadata=metadata or TraceMetadata(),
                         **{name: col[c] for name, col in self.columns.items()})

    def pack_row(self, c: int, trace: SlotTrace) -> None:
        """Copy an existing trace into row ``c`` (one copy per
        column)."""
        if len(trace) != self.n_slots:
            raise ValueError(
                f"trace has {len(trace)} slots, arena rows hold {self.n_slots}")
        for name, col in self.columns.items():
            col[c] = trace.column(name)

    def row_index_of(self, trace: SlotTrace) -> int | None:
        """The arena row a trace views, or ``None`` if it is not a row
        view of this arena.

        Numpy collapses view chains — a row of a 2-D view of ``base``
        reports ``base`` itself as its ``.base`` — so the identity
        check is against the shared uint8 base array, and the row
        index falls out of the pointer offset from the ``slot``
        block's start.
        """
        if self.base is None or self.n_slots == 0:
            return None
        block = self.columns["slot"]
        if (trace.slot.base is not self.base
                or trace.slot.size != self.n_slots
                or trace.slot.dtype != block.dtype):
            return None
        span = trace.slot.__array_interface__["data"][0] \
            - block.__array_interface__["data"][0]
        row, rem = divmod(span, block.strides[0])
        if rem or not 0 <= row < self.n_cols:
            return None
        return int(row)

    def release(self) -> None:
        """Drop every numpy view into the buffer.

        The shm writer calls this before closing its segment handle —
        ``SharedMemory.close`` refuses while buffer exports are alive.
        Existing :meth:`trace` results keep the base alive on their
        own; ``release`` only severs the arena object's references.
        """
        self.columns = {}
        self.base = None
