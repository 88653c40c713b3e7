"""Cross-session cohort tensor engine.

Campaign manifests expand into thousands of sessions that differ only
in their derived seed: same operator profile, same duration, same
engine-relevant configuration.  The per-session engines in
:mod:`repro.ran.simulator` pay the full Python/numpy dispatch cost of
the link-adaptation loop once per session; at campaign scale that
dispatch — not the arithmetic — dominates.

This module runs a whole *cohort* of same-shape sessions as one
``(sessions x slots)`` tensor pass:

- **Per-column randomness** is pre-drawn from each session's own
  generator in exactly the order the per-session path draws it, so
  every column consumes its RNG identically by construction.
- **Link adaptation is vectorized across the sessions axis**: the rank
  EWMA/hysteresis chain, the OLLA offset update, the CQI->MCS mapping
  and the TBS resolution run through dense family-padded lookup tables
  — one fancy gather per quantity per period — with elementwise
  float64/integer ops whose IEEE semantics match the per-session
  scalar chain op for op.
- **Decode outcomes evaluate as one 2-D BLER pass per CQI period** —
  the same in-place ufunc sequence the per-session path runs on a 1-D
  slice, which numpy evaluates bit-identically on 2-D views.
- **Execution is two-tiered per (column, period) cell.**  *Clean*
  cells — no failed transmission and no retransmission due inside the
  period — collapse to bookkeeping: the ACK count is a prefix-sum
  difference and the trace slots are bulk-filled from per-period
  constants at flush time.  *Dirty* cells run through the compiled
  retx kernel (``_retx_kernel.c``, driven by :class:`_CohortRetxLanes`):
  per-column HARQ state lives in struct-of-arrays lanes (due-slot /
  pending-TBS / attempt-count / p-hint rows instead of per-column heaps
  — valid because due slots are strictly monotone in push order, see
  the class docstring), and one kernel call per period walks every
  dirty column through its served retransmissions, special-slot
  deferrals and committed clean sub-segments.  The kernel transliterates
  the retransmission-window semantics of
  :func:`~repro.ran.simulator.retx_fits_slot` /
  :func:`~repro.ran.simulator.retx_error_probability`, and the
  equivalence-matrix tests pin it byte-for-byte to the
  reference-engine oracle.  Without a kernel the engine policy
  (:func:`~repro.ran.config.resolve_engine`) never selects this module.

Traces are flushed one column at a time (``simulate_*_cohort`` return
lazy generators), so a reducing consumer folds each session's sketch
straight out of the tensor state with a single column trace live at a
time instead of materializing the whole cohort.

Materializing consumers instead pass ``arena_factory``: the engine
then allocates one :class:`~repro.xcal.arena.CohortArena` for the
cohort and the flush becomes a handful of cohort-wide 2-D masked
writes straight into the arena — per-session traces are zero-copy row
views, and the per-column trace-construction walk (the old ~45% flush
share) disappears.  With a factory that allocates the arena in shared
memory, the same writes land directly in a segment the parent process
can map (the shared-memory transport of :mod:`repro.core.runner`).
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

import numpy as np

from repro.channel.model import ChannelRealization
from repro.ran import _native
from repro.nr.cqi import CQI_MAX
from repro.nr.mcs import Modulation
from repro.nr.signal import sinr_to_cqi
from repro.nr.tdd import SlotType
from repro.ran.amc import Olla
from repro.ran.config import CellConfig
from repro.ran.simulator import (_OFF_LO, BACKGROUND_TRIM_MAX, SLOT_DL,
                                 SLOT_SPECIAL, SLOT_UL, SimParams, _la_luts,
                                 _RB_QUANTUM, _rank_steps, _slot_types,
                                 _TbsCache, _tbs_luts, _usable_symbols,
                                 _forward_fill_cqi, replace)
from repro.xcal.arena import CohortArena
from repro.xcal.records import SlotTrace, TraceMetadata

__all__ = [
    "cohort_stats",
    "reset_cohort_stats",
    "simulate_downlink_cohort",
    "simulate_uplink_cohort",
]


# ---------------------------------------------------------------------- #
# Cohort-path counters (surfaced by ``repro bench --workload tensor``)
# ---------------------------------------------------------------------- #
_COUNTERS = {
    "cohorts": 0,            # tensor passes run in this process
    "columns": 0,            # sessions executed through a tensor pass
    "cells": 0,              # (column, period) cells examined
    "dirty_periods": 0,      # cells with HARQ retx work
    "batched_periods": 0,    # dirty cells handled by the retx lanes
    "native_periods": 0,     # dirty cells that ran the compiled kernel
    "slots": 0,              # column-slots processed by tensor passes
    "seconds": 0.0,          # wall time inside tensor passes
    "predraw_s": 0.0,        # per-column RNG pre-draw + measurement chain
    "pass_s": 0.0,           # vectorized period loop (LA/BLER/bookkeeping);
    #                          with an arena this includes committing the
    #                          loop's results in place (the clean fill)
    "batched_s": 0.0,        # retx kernel calls (dirty cells, cohort-wide);
    #                          with an arena, includes the lanes' event scatter
    "flush_s": 0.0,          # trace materialization: without an arena, the
    #                          whole per-column re-expansion walk; with one,
    #                          what remains — view creation, CQI forward-fill
}


def cohort_stats() -> dict:
    """Counters of the cohort tensor path in this process.

    ``dirty_periods`` counts (column, period) cells with retransmission
    work, all of which run through the compiled kernel
    (``batched_periods`` and ``native_periods`` both equal it; they are
    kept for readers that derive the native share from them).  The
    ``*_s`` keys decompose ``seconds`` into the pass phases surfaced
    by ``repro bench --workload tensor``.
    """
    return dict(_COUNTERS)


def reset_cohort_stats() -> None:
    for key, value in _COUNTERS.items():
        _COUNTERS[key] = 0.0 if isinstance(value, float) else 0


# ---------------------------------------------------------------------- #
# Retx lanes: the dirty-cell pass through the compiled kernel
# ---------------------------------------------------------------------- #

#: Due-slot sentinel for empty lane entries — far beyond any slot index,
#: so ``due[:, 0] < stop`` doubles as the "head pending and due inside
#: this period" predicate without a separate emptiness mask.
_FAR = np.int64(1) << 60

#: CQI periods per block of the loop's per-slot inputs.  The pass draws
#: the decode uniforms and evaluates the sustainable efficiency one
#: block at a time, so it holds (n_cols, block) buffers instead of
#: (n_cols, n_slots) ones.
_BLOCK_PERIODS = 16


def _fork(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator that continues ``rng``'s stream from
    its current position."""
    bit_generator = type(rng.bit_generator)(0)
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator)


def _require_kernel():
    """The compiled retx kernel — the cohort engine's only path for
    dirty cells.  Raises when it cannot be loaded; the engine policy
    routes such hosts to the per-session reference engine instead."""
    kernel = _native.load_kernel()
    if kernel is None:
        reason = _native.kernel_status()["error"] or "not loaded"
        raise RuntimeError(
            f"the cohort tensor engine needs the compiled retx kernel "
            f"({reason}); run these sessions with REPRO_ENGINE=reference")
    return kernel


class _CohortRetxLanes:
    """Struct-of-arrays HARQ retransmission state for a whole cohort.

    One lane (row) per column.  ``due[c, :n[c]]`` holds the due slots
    of the column's pending retransmission blocks in **strictly
    increasing order**, with ``tbs``/``att``/``p`` the matching TBS,
    attempt count and error-probability hint.  A flat sorted lane is
    exactly equivalent to the per-session engines' due-slot min-heap
    because every push is ``slot + harq_rtt_slots`` with at most one
    push per slot (a slot serves a retransmission *or* transmits new
    data, never both): due slots are unique and monotone in push
    order, so FIFO order == heap order and the ``_RetxQueue`` sequence
    tie-break can never fire.

    :meth:`run_period` advances the dirty columns of one CQI period
    with a single call of the compiled kernel (``_retx_kernel.c``):
    each column's cursor serves due retransmissions at eligible slots
    (the :func:`~repro.ran.simulator.retx_fits_slot` rule), transmits
    new data in a special slot that cannot carry an oversized due
    block (the deferral rule), and commits maximal clean sub-segments
    bounded by the head's due slot and the first fresh NACK's re-arm
    point.  Committed sub-segments and served/deferred events are
    buffered per call; :meth:`committed_mask` / :meth:`events_by_column`
    re-shape them for the flush, which writes the identical bytes the
    per-session engines produce.
    """

    def __init__(self, kernel, n_slots: int, usable: np.ndarray,
                 special_mask: np.ndarray, cum4: np.ndarray,
                 rtt: int, scale: float, max_attempts: int,
                 retx2: np.ndarray, decoded2: np.ndarray,
                 p_err2: np.ndarray):
        n_cols, period = p_err2.shape
        self.kernel = kernel
        self.n_cols = n_cols
        self.n_slots = n_slots
        cap = 8
        self.due = np.full((n_cols, cap), _FAR, dtype=np.int64)
        self.tbs = np.zeros((n_cols, cap), dtype=np.int64)
        self.att = np.zeros((n_cols, cap), dtype=np.int64)
        self.p = np.zeros((n_cols, cap))
        self.n = np.zeros(n_cols, dtype=np.int64)
        # Kernel output scratch, sized for the worst period: a column
        # emits at most one segment or event per slot.  Segments are
        # (col, lo, hi) rows, events (col, slot, tbs) plus (ok, is_retx).
        rows = n_cols * period
        self._acks = np.empty(n_cols, dtype=np.int64)
        self._nacks = np.empty(n_cols, dtype=np.int64)
        self._seg = np.empty((3, rows), dtype=np.int64)
        self._ev = np.empty((3, rows), dtype=np.int64)
        self._ev_flags = np.empty((2, rows), dtype=bool)
        self._counts = np.empty(2, dtype=np.int64)
        # Flush buffers: one copy of the scratch per kernel call.
        self._segs: list[np.ndarray] = []
        self._evs: list[np.ndarray] = []
        self._ev_flag_list: list[np.ndarray] = []
        # The kernel's argument list, resolved once per cohort:
        # ``ndarray.ctypes.data`` costs ~1us per access, which at ~35
        # arguments per call would rival the kernel itself, so only the
        # per-call slots are rewritten in :meth:`run_period` (and the
        # lane pointers when :meth:`_ensure_cap` reallocates).  ``_keep``
        # holds every cohort array the list points into, so none can be
        # freed while the kernel may still read it.
        usable_u8 = np.ascontiguousarray(usable).view(np.uint8)
        special_u8 = np.ascontiguousarray(special_mask).view(np.uint8)
        self._keep = (retx2, decoded2, p_err2, cum4, usable_u8, special_u8)
        self._args = [
            0, 0, 0, 0,                                   # nb, bidx, start, stop
            0, 0, 0, 0, 0,                                # cap, due, tbs, att, ph
            self.n.ctypes.data, int(_FAR),
            0, 0, 0, 0,                                   # failm, case, tbsf, tbss
            n_slots, retx2.ctypes.data, decoded2.ctypes.data,
            p_err2.ctypes.data, period,
            cum4.ctypes.data, usable_u8.ctypes.data, special_u8.ctypes.data,
            rtt, scale, max_attempts,
            self._acks.ctypes.data, self._nacks.ctypes.data,
            *(row.ctypes.data for row in self._seg),
            *(row.ctypes.data for row in self._ev),
            *(row.ctypes.data for row in self._ev_flags),
            self._counts.ctypes.data,
        ]
        self._bind_lanes()

    def _bind_lanes(self) -> None:
        a = self._args
        a[4] = self.due.shape[1]
        a[5] = self.due.ctypes.data
        a[6] = self.tbs.ctypes.data
        a[7] = self.att.ctypes.data
        a[8] = self.p.ctypes.data

    def _ensure_cap(self, need: int) -> None:
        cap = self.due.shape[1]
        if need <= cap:
            return
        new = max(need, 2 * cap)

        def widen(a: np.ndarray, fill) -> np.ndarray:
            b = np.full((self.n_cols, new), fill, dtype=a.dtype)
            b[:, :cap] = a
            return b

        self.due = widen(self.due, _FAR)
        self.tbs = widen(self.tbs, 0)
        self.att = widen(self.att, 0)
        self.p = widen(self.p, 0.0)
        self._bind_lanes()

    def run_period(self, bidx: np.ndarray, start: int, stop: int,
                   failm_b: np.ndarray, case_b: np.ndarray,
                   tbsf_b: np.ndarray, tbss_b: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the dirty columns ``bidx`` through one period; returns
        their per-column (acks, nacks) over new transmissions, exactly as
        the scalar oracle counts them.

        The kernel works on the lane arrays in place, so their capacity
        is pre-grown to the worst case: each slot queues at most one
        block, so the pending count can rise by at most the period
        length.  The returned arrays are views of reusable scratch.
        """
        nb = bidx.size
        self._ensure_cap(int(self.n[bidx].max()) + stop - start)
        args = self._args
        args[0] = nb
        args[1] = bidx.ctypes.data
        args[2] = start
        args[3] = stop
        args[11] = failm_b.ctypes.data
        args[12] = case_b.ctypes.data
        args[13] = tbsf_b.ctypes.data
        args[14] = tbss_b.ctypes.data
        rc = self.kernel(*args)
        if rc != 0:  # pragma: no cover - the kernel cannot fail today
            raise RuntimeError(f"native retx kernel returned {rc}")
        ns, ne = self._counts.tolist()
        if ns:
            self._segs.append(self._seg[:, :ns].copy())
        if ne:
            self._evs.append(self._ev[:, :ne].copy())
            self._ev_flag_list.append(self._ev_flags[:, :ne].copy())
        return self._acks[:nb], self._nacks[:nb]

    # ------------------------------------------------------------------ #
    # Flush shaping
    # ------------------------------------------------------------------ #
    def release(self) -> None:
        """Drop the lane state and every reference to the cohort arrays
        the kernel reads (the retx draws among them), so the flush can
        free them before it allocates; no period can run afterwards."""
        self._keep = self._args = None
        self.due = self.tbs = self.att = self.p = None

    def committed_mask(self) -> np.ndarray | None:
        """(n_cols, n_slots) bool of committed sub-segment ranges
        (pre-AND with the transmit pattern), or ``None``."""
        if not self._segs:
            return None
        c, lo, hi = np.concatenate(self._segs, axis=1)
        # A column's committed sub-segments are disjoint, so the running
        # count is 0 or 1 and fits one byte.
        delta = np.zeros((self.n_cols, self.n_slots + 1), dtype=np.int8)
        np.add.at(delta, (c, lo), 1)
        np.add.at(delta, (c, hi), -1)
        np.cumsum(delta, axis=1, out=delta)
        return delta[:, :-1] > 0

    def events_by_column(self):
        """Served/deferred events grouped by column for the flush:
        ``(bounds, slots, tbs, ok, is_retx)`` with column ``c``'s rows
        at ``[bounds[c]:bounds[c + 1]]``, or ``None``."""
        if not self._evs:
            return None
        c, slot, tbs = np.concatenate(self._evs, axis=1)
        ok, is_retx = np.concatenate(self._ev_flag_list, axis=1)
        order = np.argsort(c, kind="stable")
        bounds = np.searchsorted(c[order], np.arange(self.n_cols + 1))
        return bounds, slot[order], tbs[order], ok[order], is_retx[order]


# ---------------------------------------------------------------------- #
# The tensor pass
# ---------------------------------------------------------------------- #
def _simulate_direction_cohort(
    cell: CellConfig,
    channels: Sequence[ChannelRealization],
    direction: SlotType,
    rngs: Sequence[np.random.Generator],
    params: SimParams,
    kernel,
    max_layers: int,
    n_prb: int,
    metadatas: Sequence[TraceMetadata],
    arena_factory=None,
) -> Iterator[SlotTrace]:
    """Cohort counterpart of ``_simulate_direction`` (lazy, one trace
    yielded per column in cohort order); ``kernel`` is the loaded
    retx kernel (:func:`_require_kernel`).

    ``arena_factory(n_cols, n_slots, mu)`` — when given — supplies a
    :class:`~repro.xcal.arena.CohortArena` the whole flush writes into
    as cohort-wide 2-D passes; yielded traces are then zero-copy row
    views of the arena.  A factory returning ``None`` (e.g. a failed
    shared-memory allocation) falls back to the lazy per-column flush.
    """
    t0 = time.perf_counter()
    n_cols = len(channels)
    n_slots = channels[0].n_slots
    mu = channels[0].mu
    if any(ch.n_slots != n_slots for ch in channels):
        raise ValueError("cohort channels must share one slot count")
    arena: CohortArena | None = None
    if arena_factory is not None:
        arena = arena_factory(n_cols, n_slots, mu)
        if arena is not None and (arena.n_cols != n_cols
                                  or arena.n_slots != n_slots):
            raise ValueError(
                f"arena shape ({arena.n_cols}, {arena.n_slots}) does not "
                f"match cohort ({n_cols}, {n_slots})")

    slot_types = _slot_types(cell, n_slots, direction)
    own_code = SLOT_DL if direction is SlotType.DL else SLOT_UL
    usable = (slot_types == own_code) | (slot_types == SLOT_SPECIAL)
    full_sym, special_sym = _usable_symbols(cell, direction)
    if special_sym == 0:
        usable &= slot_types != SLOT_SPECIAL
    special_mask = slot_types == SLOT_SPECIAL

    tbs_cache = _TbsCache(cell, max_layers, direction)
    rank_adapter = params.rank_adapter
    period = cell.cqi_period_slots
    n_periods_total = -(-n_slots // period) + 1
    n_periods = -(-n_slots // period)
    starts = np.arange(n_periods) * period

    # --- per-column pre-draws, in the exact per-session order ----------
    # Each column's generator is consumed identically to a lone
    # ``run_session`` call: uniforms, retx uniforms, CQI noise,
    # background series.  The decode uniforms are drawn in the loop,
    # block by block, from a fork taken where they start; the generator
    # itself draws and discards them, so every later draw and its final
    # state are unchanged.
    #
    # The SINR is stacked once — into the arena's block when there is
    # one, where the RSRP/RSRQ rows go too — and the channel realizations
    # are dropped; the lazy flush keeps only each column's RSRP/RSRQ
    # rows.  The measurement chain (measured SINR, CQI, sustainable
    # efficiency) is elementwise, so it evaluates on the stacked SINR —
    # the efficiency block by block in the loop — to the values the
    # per-session path computes from each 1-D series.
    bler = params.bler
    uniform_rngs = []
    discard = np.empty(n_slots)
    retx2 = np.empty((n_cols, n_slots))
    noise2 = np.empty((n_cols, n_periods_total))
    bg_raw2 = np.empty((n_cols, n_periods_total))
    sinr2 = (arena.columns["sinr_db"] if arena is not None
             else np.empty((n_cols, n_slots)))
    kpi_rows = []
    for c, rng in enumerate(rngs):
        uniform_rngs.append(_fork(rng))
        rng.random(out=discard)
        retx2[c] = rng.random(n_slots)
        noise2[c] = rng.standard_normal(n_periods_total)
        bg_raw2[c] = rng.standard_normal(n_periods_total)
        channel = channels[c]
        sinr2[c] = channel.sinr_db
        if arena is not None:
            arena.columns["rsrp_dbm"][c] = channel.rsrp_dbm
            arena.columns["rsrq_db"][c] = channel.rsrq_db
        else:
            kpi_rows.append((channel.rsrp_dbm, channel.rsrq_db))
    del channels, channel, discard
    meas2 = sinr2[:, np.maximum(starts - params.cqi_delay_slots, 0)]
    meas2 += params.cqi_noise_db * noise2[:, :n_periods]
    cqi2 = np.minimum(
        sinr_to_cqi(meas2, cell.cqi_table, alpha=params.cqi_alpha), CQI_MAX)
    background2 = np.clip(
        params.background_rb_mean
        + params.background_rb_sigma * bg_raw2[:, :n_periods],
        0.0, BACKGROUND_TRIM_MAX,
    )
    prb_scaled = np.rint(n_prb * (1.0 - background2)).astype(np.int64)
    prb_quant = np.maximum(
        _RB_QUANTUM,
        (_RB_QUANTUM * np.rint(prb_scaled / _RB_QUANTUM)).astype(np.int64),
    )
    prb2 = np.minimum(prb_quant, n_prb)

    # --- link-adaptation lookup structures ------------------------------
    is_qam256 = cell.max_modulation is Modulation.QAM256
    mcs_lut, eff_lut, mod_lut, n_max_mcs = _la_luts(cell)
    # Per period the (tbs_full, tbs_special) pair is one fancy gather
    # over (family, grant, mcs, layers) instead of per-column dict probes.
    distinct_prb = np.unique(prb2)
    tb_full, tb_special = _tbs_luts(tbs_cache, distinct_prb, n_max_mcs, max_layers)
    prb_idx2 = np.searchsorted(distinct_prb, prb2)

    # --- shared per-slot structures --------------------------------------
    # Transmit patterns for the four (tbs_full, tbs_special) sign cases
    # (0=both, 1=full-only, 2=special-only, 3=none) with prefix sums.
    tx4 = np.zeros((4, n_slots), dtype=bool)
    tx4[0] = usable
    tx4[1] = usable & ~special_mask
    tx4[2] = usable & special_mask
    cum4 = np.zeros((4, n_slots + 1), dtype=np.int64)
    np.cumsum(tx4, axis=1, out=cum4[:, 1:])

    # --- cross-column state ---------------------------------------------
    olla = Olla()
    olla_up, olla_down = olla.step_up, olla.step_down
    olla_lo, olla_hi = olla.min_offset, olla.max_offset
    olla_enabled = params.olla_enabled
    beta = params.rank_ewma_beta
    dci_fallback_cqi = params.dci_fallback_cqi
    adapter_max = rank_adapter.max_layers
    rtt = params.harq_rtt_slots
    scale = params.retx_error_scale
    max_attempts = params.max_attempts

    delta = np.zeros(n_cols)
    rank = np.ones(n_cols, dtype=np.int64)
    ewma = np.empty(n_cols)

    decoded2 = np.empty((n_cols, n_slots), dtype=bool)
    p_err2 = np.empty((n_cols, period))
    lanes = _CohortRetxLanes(kernel, n_slots, usable, special_mask, cum4,
                             rtt, scale, max_attempts,
                             retx2, decoded2, p_err2)
    notdec = np.empty((n_cols, period), dtype=bool)
    failm2 = np.empty((n_cols, period), dtype=bool)
    zero_off = np.zeros(n_cols, dtype=np.int64)

    # Period-major (contiguous per-period row) working layouts for the
    # loop; transposed to column-major once before flush.
    meas2t = np.ascontiguousarray(meas2.T)
    cqi2t = np.ascontiguousarray(cqi2.T)
    pidx2t = np.ascontiguousarray(prb_idx2.T)
    if is_qam256:
        fb2t = (cqi2t <= dci_fallback_cqi).view(np.int8).astype(np.int64)
        dci2t = 1 - fb2t
    else:
        fb2t = np.zeros((n_periods, n_cols), dtype=np.int64)
        dci2t = fb2t
    starts_l = starts.tolist()
    stops_l = np.minimum(starts + period, n_slots).tolist()
    # Per-case transmission counts of every period (prefix-sum diffs).
    percnt4 = cum4[:, stops_l] - cum4[:, starts_l]

    clean2t = np.zeros((n_periods, n_cols), dtype=bool)
    case2t = np.empty((n_periods, n_cols), dtype=np.int64)
    mcs2t = np.empty((n_periods, n_cols), dtype=np.int64)
    mod2t = np.empty((n_periods, n_cols), dtype=np.int64)
    lay2t = np.empty((n_periods, n_cols), dtype=np.int64)
    tbsf2t = np.empty((n_periods, n_cols), dtype=np.int64)
    tbss2t = np.empty((n_periods, n_cols), dtype=np.int64)

    one_minus_beta = 1.0 - beta
    rank_steps = _rank_steps(rank_adapter)
    layers_capped = adapter_max > max_layers

    block_slots = _BLOCK_PERIODS * period
    uniforms = np.empty((n_cols, min(block_slots, n_slots)))
    block_lo = 0

    dirty_cells = 0
    t_batched = 0.0
    t_loop = time.perf_counter()
    for p in range(n_periods):
        start = starts_l[p]
        stop = stops_l[p]
        m = stop - start
        sl = slice(start, stop)
        if p % _BLOCK_PERIODS == 0:
            block_lo = start
            block_hi = min(n_slots, start + block_slots)
            for c, uniform_rng in enumerate(uniform_rngs):
                uniform_rng.random(out=uniforms[c, :block_hi - block_lo])
            eff_cap = bler.capacity(sinr2[:, block_lo:block_hi])
        at = slice(start - block_lo, stop - block_lo)

        # --- measurement report (vectorized across columns) -------------
        # Same IEEE op sequence per element as the scalar chain:
        # (1-beta)*ewma, beta*measured, add; threshold comparisons with
        # the precomputed scalars.
        measured = meas2t[p]
        if p == 0:
            ewma[:] = measured
        else:
            np.multiply(ewma, one_minus_beta, out=ewma)
            np.add(ewma, beta * measured, out=ewma)
        prev = rank
        cand_rank = np.ones(n_cols, dtype=np.int64)
        for candidate, eff_up, eff_keep in rank_steps:
            eff = np.where(prev >= candidate, eff_keep, eff_up)
            cand_rank = np.where(ewma >= eff, candidate, cand_rank)
        rank = np.minimum(cand_rank, adapter_max)
        layers = np.minimum(rank, max_layers) if layers_capped else rank

        cqi = cqi2t[p]
        fb = fb2t[p]
        offset = np.rint(delta).astype(np.int64) if olla_enabled else zero_off
        mcs = mcs_lut[fb, cqi, offset - _OFF_LO]
        eff_mcs = eff_lut[fb, mcs]
        mod = mod_lut[fb, mcs]
        lidx = layers - 1
        tbs_full = tb_full[fb, pidx2t[p], mcs, lidx]
        tbs_special = tb_special[fb, pidx2t[p], mcs, lidx]

        case = (tbs_full <= 0) * 2 + (tbs_special <= 0)
        case2t[p] = case
        mcs2t[p] = mcs
        mod2t[p] = mod
        lay2t[p] = layers
        tbsf2t[p] = tbs_full
        tbss2t[p] = tbs_special

        # --- decode outcomes: one 2-D BLER pass --------------------------
        p_err = bler.error_probability_given_capacity(
            eff_mcs[:, None], eff_cap[:, at], out=p_err2[:, :m])
        decoded = np.greater_equal(uniforms[:, at], p_err, out=decoded2[:, sl])

        # --- clean/dirty split -------------------------------------------
        failm = np.logical_and(tx4[:, sl][case],
                               np.logical_not(decoded, out=notdec[:, :m]),
                               out=failm2[:, :m])
        cnt = percnt4[:, p][case]
        # Narrowed dirty predicate: a pending queue only dirties a
        # period its head can actually come due in — a backlog due
        # beyond ``stop`` leaves the whole period on the clean path.
        dirty = failm.any(axis=1) | (lanes.due[:, 0] < stop)
        clean = ~dirty
        clean2t[p] = clean
        acks = np.where(clean, cnt, 0)
        nacks = np.zeros(n_cols, dtype=np.int64)

        bidx = np.flatnonzero(dirty)
        if bidx.size:
            tb = time.perf_counter()
            acks[bidx], nacks[bidx] = lanes.run_period(
                bidx, start, stop, failm[bidx], case[bidx],
                tbs_full[bidx], tbs_special[bidx])
            dirty_cells += bidx.size
            t_batched += time.perf_counter() - tb

        if olla_enabled:
            np.add(delta, acks * olla_up, out=delta)
            np.subtract(delta, nacks * olla_down, out=delta)
            np.maximum(delta, olla_lo, out=delta)
            np.minimum(delta, olla_hi, out=delta)

    t_end = time.perf_counter()
    # The flush reads none of the loop's per-slot inputs: free them
    # before it allocates.
    del uniforms, uniform_rngs, eff_cap
    _COUNTERS["cohorts"] += 1
    _COUNTERS["columns"] += n_cols
    _COUNTERS["cells"] += n_cols * n_periods
    _COUNTERS["dirty_periods"] += dirty_cells
    _COUNTERS["batched_periods"] += dirty_cells
    _COUNTERS["native_periods"] += dirty_cells
    _COUNTERS["slots"] += n_cols * n_slots
    _COUNTERS["seconds"] += t_end - t0
    _COUNTERS["predraw_s"] += t_loop - t0
    _COUNTERS["batched_s"] += t_batched
    _COUNTERS["pass_s"] += (t_end - t_loop) - t_batched

    # --- flush: one column trace at a time ------------------------------
    # Back to column-major so each column's per-period constants are a
    # contiguous row for the gathers below.
    case2 = np.ascontiguousarray(case2t.T)
    clean2 = np.ascontiguousarray(clean2t.T)
    mcs2 = np.ascontiguousarray(mcs2t.T)
    mod2 = np.ascontiguousarray(mod2t.T)
    lay2 = np.ascontiguousarray(lay2t.T)
    dci2 = np.ascontiguousarray(dci2t.T)
    tbsf2 = np.ascontiguousarray(tbsf2t.T)
    tbss2 = np.ascontiguousarray(tbss2t.T)
    col_slots = np.arange(n_slots)
    period_of_slot = col_slots // period
    t_lanes = time.perf_counter()
    # The flush reads no lane state or retx draws either: free them
    # before the lane outputs are shaped.
    lanes.release()
    del retx2
    inseg2 = lanes.committed_mask()
    events = lanes.events_by_column()
    del lanes
    tf = time.perf_counter()
    _COUNTERS["batched_s"] += tf - t_lanes
    if arena is not None:
        # --- arena output stage: one cohort-wide scatter -----------------
        # The same values the per-column loop below scatters one trace
        # at a time, written once across the whole (n_cols, n_slots)
        # block: the filled (clean-period + committed-segment) cells are
        # flattened into a single index vector and every column lands
        # with one fancy-index write over exactly those cells — the
        # buffer's untouched majority stays on its zero pages.  These
        # writes commit the period loop's results to their *final*
        # location (there is no later re-expansion), so they are charged
        # to ``pass_s`` — exactly like the pre-draw, which writes
        # sinr/rsrp/rsrq straight into the arena and is charged to
        # ``predraw_s``.  ``flush_s`` is left measuring what flushing
        # still costs with an arena: trace-view creation and the CQI
        # forward-fill.
        acols = arena.columns
        acols["slot_type"][:] = slot_types
        pos2 = period_of_slot
        case_slot2 = case2[:, pos2]
        tx_slot2 = tx4[case_slot2, col_slots]
        fill2 = clean2[:, pos2]
        if inseg2 is not None:
            fill2 |= inseg2
        tx_slot2 &= fill2
        flat_fill = np.flatnonzero(tx_slot2.reshape(-1))
        rows_f, slots_f = np.divmod(flat_fill, n_slots)
        pos_f = period_of_slot[slots_f]
        prb_f = prb2[rows_f, pos_f]
        tbs_f = np.where(special_mask[slots_f],
                         tbss2[rows_f, pos_f], tbsf2[rows_f, pos_f])
        ok_f = decoded2.reshape(-1)[flat_fill]
        for name, vals in (
            ("scheduled", True),
            ("n_prb", prb_f),
            ("n_re", prb_f * 12),
            ("mcs_index", mcs2[rows_f, pos_f]),
            ("modulation_order", mod2[rows_f, pos_f]),
            ("layers", lay2[rows_f, pos_f]),
            ("cqi", cqi2[rows_f, pos_f]),
            ("dci_format", dci2[rows_f, pos_f]),
            ("tbs_bits", tbs_f),
        ):
            acols[name].reshape(-1)[flat_fill] = vals
        # delivered_bits and error start on zero pages, so only the cells
        # that differ from zero need a write: delivered at decoded cells,
        # error at the (few) undecoded ones.
        acols["delivered_bits"].reshape(-1)[flat_fill[ok_f]] = tbs_f[ok_f]
        acols["error"].reshape(-1)[flat_fill[~ok_f]] = True
        t_fill = time.perf_counter()
        _COUNTERS["pass_s"] += t_fill - tf
        if events is not None:
            # Batched serve/deferral events as one flat scatter: event
            # slots are unique per column and disjoint from the masked
            # fill above, so write order does not matter.  These are the
            # retx lanes' outputs landing in place — charged to
            # ``batched_s`` with the rest of the lane work.
            ev_bounds, ev_slot, ev_tbs, ev_ok, ev_retx = events
            ev_col = np.repeat(np.arange(n_cols), np.diff(ev_bounds))
            flat = ev_col * n_slots + ev_slot
            posv = pos2[ev_slot]
            prb_e = prb2[ev_col, posv]
            for name, vals in (
                ("scheduled", True),
                ("n_prb", prb_e),
                ("n_re", prb_e * 12),
                ("mcs_index", mcs2[ev_col, posv]),
                ("modulation_order", mod2[ev_col, posv]),
                ("layers", lay2[ev_col, posv]),
                ("cqi", cqi2[ev_col, posv]),
                ("dci_format", dci2[ev_col, posv]),
                ("is_retx", ev_retx),
                ("tbs_bits", ev_tbs),
                ("delivered_bits", np.where(ev_ok, ev_tbs, 0)),
                ("error", ~ev_ok),
            ):
                acols[name].reshape(-1)[flat] = vals
        t_events = time.perf_counter()
        _COUNTERS["batched_s"] += t_events - t_fill
        traces = [arena.trace(c, metadata=metadatas[c]) for c in range(n_cols)]
        # Forward-fill CQI across the whole cohort — the exact per-row
        # equivalent of _forward_fill_cqi (integer ops, so vectorizing
        # across rows cannot perturb a single value).
        cqi_col = acols["cqi"]
        cmask = cqi_col > 0
        any_rows = cmask.any(axis=1)
        if any_rows.any():
            idx2 = np.multiply(cmask, col_slots, dtype=np.int64)
            np.maximum.accumulate(idx2, axis=1, out=idx2)
            filled2 = np.take_along_axis(cqi_col, idx2, axis=1)
            first = cmask.argmax(axis=1)
            firstval = cqi_col[np.arange(n_cols), first]
            np.copyto(filled2, firstval[:, None],
                      where=col_slots[None, :] < first[:, None])
            np.copyto(cqi_col, filled2, where=any_rows[:, None])
        t_end = time.perf_counter()
        _COUNTERS["seconds"] += t_end - tf
        _COUNTERS["flush_s"] += t_end - t_events
        yield from traces
        return
    _COUNTERS["flush_s"] += time.perf_counter() - tf
    for c in range(n_cols):
        t1 = time.perf_counter()
        trace = SlotTrace.empty(n_slots, mu=mu, metadata=metadatas[c])
        trace.sinr_db[:] = sinr2[c]
        rsrp, rsrq = kpi_rows[c]
        trace.rsrp_dbm[:] = rsrp
        trace.rsrq_db[:] = rsrq
        trace.slot_type[:] = slot_types
        # Clean-period and committed-segment slots, bulk-filled from the
        # per-period constant tensors (disjoint from event slots; every
        # value equals what the per-session flush writes there — clean
        # slots all decoded, so the general delivered/error formula
        # degenerates to the clean fill).
        case_slot = case2[c][period_of_slot]
        tx_slot = tx4[case_slot, col_slots]
        fill_mask = clean2[c][period_of_slot]
        if inseg2 is not None:
            fill_mask = fill_mask | inseg2[c]
        idx = np.flatnonzero(tx_slot & fill_mask)
        if idx.size:
            pos = period_of_slot[idx]
            prb = prb2[c][pos]
            trace.fill(
                idx, scheduled=True, n_prb=prb, n_re=prb * 12,
                mcs_index=mcs2[c][pos], modulation_order=mod2[c][pos],
                layers=lay2[c][pos], cqi=cqi2[c][pos], dci_format=dci2[c][pos],
            )
            tbs_vec = np.where(special_mask[idx], tbss2[c][pos], tbsf2[c][pos])
            ok = decoded2[c][idx]
            trace.tbs_bits[idx] = tbs_vec
            trace.delivered_bits[idx] = np.where(ok, tbs_vec, 0)
            trace.error[idx] = ~ok
        if events is not None:
            # Serve/deferral events, with the period constants gathered
            # via period-of-slot.
            ev_bounds, ev_slot, ev_tbs, ev_ok, ev_retx = events
            lo, hi = ev_bounds[c], ev_bounds[c + 1]
            if hi > lo:
                ridx = ev_slot[lo:hi]
                pos = period_of_slot[ridx]
                prb = prb2[c][pos]
                trace.fill(
                    ridx, scheduled=True, n_prb=prb, n_re=prb * 12,
                    mcs_index=mcs2[c][pos], modulation_order=mod2[c][pos],
                    layers=lay2[c][pos], cqi=cqi2[c][pos],
                    dci_format=dci2[c][pos],
                )
                rtbs = ev_tbs[lo:hi]
                rok = ev_ok[lo:hi]
                trace.is_retx[ridx] = ev_retx[lo:hi]
                trace.tbs_bits[ridx] = rtbs
                trace.delivered_bits[ridx] = np.where(rok, rtbs, 0)
                trace.error[ridx] = ~rok
        _forward_fill_cqi(trace)
        dt = time.perf_counter() - t1
        _COUNTERS["seconds"] += dt
        _COUNTERS["flush_s"] += dt
        yield trace


def simulate_downlink_cohort(
    cell: CellConfig,
    channels: Sequence[ChannelRealization],
    rngs: Sequence[np.random.Generator],
    params: SimParams | None = None,
    metadatas: Sequence[TraceMetadata] | None = None,
    arena_factory=None,
) -> Iterator[SlotTrace]:
    """Cohort counterpart of :func:`~repro.ran.simulator.simulate_downlink`.

    ``channels``/``rngs``/``metadatas`` are per-column (one session per
    entry, cohort order = manifest order); each ``rngs[c]`` must be
    positioned exactly where the per-session path would hand it to
    ``simulate_downlink``.  Returns a lazy generator of one byte-identical
    trace per column.  ``arena_factory`` (see
    :func:`_simulate_direction_cohort`) switches the flush to cohort-wide
    2-D writes into a :class:`~repro.xcal.arena.CohortArena`.  Raises
    :class:`RuntimeError` when the compiled retx kernel cannot be loaded.
    """
    params = params or SimParams()
    if metadatas is None:
        metadatas = [TraceMetadata(
            carrier_name=cell.name, direction="DL",
            bandwidth_mhz=cell.bandwidth_mhz, scs_khz=cell.scs_khz,
        ) for _ in channels]
    if not (len(channels) == len(rngs) == len(metadatas)) or not channels:
        raise ValueError("cohort needs matching, non-empty channels/rngs/metadatas")
    return _simulate_direction_cohort(
        cell, channels, SlotType.DL, rngs, params, _require_kernel(),
        max_layers=cell.max_layers, n_prb=cell.grantable_rb, metadatas=metadatas,
        arena_factory=arena_factory,
    )


def simulate_uplink_cohort(
    cell: CellConfig,
    channels: Sequence[ChannelRealization],
    rngs: Sequence[np.random.Generator],
    params: SimParams | None = None,
    max_layers: int = 2,
    metadatas: Sequence[TraceMetadata] | None = None,
    arena_factory=None,
) -> Iterator[SlotTrace]:
    """Cohort counterpart of :func:`~repro.ran.simulator.simulate_uplink`."""
    params = params or SimParams()
    if metadatas is None:
        metadatas = [TraceMetadata(
            carrier_name=cell.name, direction="UL",
            bandwidth_mhz=cell.bandwidth_mhz, scs_khz=cell.scs_khz,
        ) for _ in channels]
    if not (len(channels) == len(rngs) == len(metadatas)) or not channels:
        raise ValueError("cohort needs matching, non-empty channels/rngs/metadatas")
    ul_cell = replace(cell, max_modulation=Modulation.QAM64) \
        if cell.max_modulation is not Modulation.QAM64 else cell
    return _simulate_direction_cohort(
        ul_cell, channels, SlotType.UL, rngs, params, _require_kernel(),
        max_layers=min(max_layers, cell.max_layers), n_prb=cell.grantable_rb,
        metadatas=metadatas, arena_factory=arena_factory,
    )
