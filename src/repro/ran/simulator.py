"""Slot-clocked link simulation.

Entry points:

- :func:`simulate_downlink` — one backlogged UE on one carrier (the
  paper's iPerf DL scenario).  Link adaptation runs per CQI period;
  per-slot decode outcomes, HARQ retransmissions and OLLA feedback run
  on the slot clock.
- :func:`simulate_uplink` — same machinery in the UL direction (fewer
  usable slots per the TDD pattern, fewer layers, lower UE tx power).
- :func:`simulate_downlink_multi` — several backlogged UEs sharing the
  carrier through an RB scheduler (Fig. 14's simultaneous-UE study).

All functions return :class:`~repro.xcal.records.SlotTrace` objects, the
XCAL-equivalent artifact the analysis layer consumes.

Three slot engines produce byte-identical traces:

- ``"vectorized"`` — segment-batched numpy fast path: within each CQI
  period the slot range is split into maximal contiguous segments with
  no due HARQ retransmission, and every trace column of a segment is
  filled with one bulk write; the scalar path runs only inside
  retransmission windows.
- ``"tensor"`` — the cross-session cohort pass in
  :mod:`repro.ran.tensor`: same-shape sessions differing only in seed
  run as one ``(sessions x slots)`` tensor, with retransmission windows
  walked per column by a compiled transliteration of this module's
  segment-batched machinery (``_retx_kernel.c``).
- ``"reference"`` — the original per-slot scalar loop, retained as the
  oracle for the equivalence test matrix.

A lone session runs vectorized and a same-shape cohort runs on the
tensor pass, unless the ``REPRO_ENGINE`` environment variable pins one
of the two per-session engines; see
:func:`repro.ran.config.resolve_engine`.  All slot-clock randomness is
pre-drawn before the period loop, so every engine consumes the
generator identically by construction.  The multi-UE loop of
:func:`simulate_downlink_multi` has one engine, the per-slot scalar
loop, whatever the switch says.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

import numpy as np

from repro.channel.model import ChannelRealization
from repro.nr.cqi import CQI_MAX, CqiMcsMapper
from repro.nr.mcs import MCS_TABLE_64QAM, Modulation
from repro.nr.signal import sinr_to_cqi
from repro.nr.tbs import cached_tbs_lookup_matrix, transport_block_size
from repro.nr.tdd import SlotType
from repro.ran.amc import BlerModel, Olla, RankAdapter
from repro.ran.config import CellConfig, resolve_engine
from repro.ran.scheduler import Scheduler, SchedulingRequest
from repro.xcal.records import SlotTrace, TraceMetadata

#: Slot-type codes used in traces (match ``TddPattern.type_array``).
SLOT_DL, SLOT_UL, SLOT_SPECIAL = 0, 1, 2


@dataclass(frozen=True)
class SimParams:
    """Tunable behaviour of the link simulation.

    Parameters
    ----------
    harq_rtt_slots:
        Slots between a NACK and the retransmission grant.
    max_attempts:
        HARQ attempts before the TB is dropped.
    retx_error_scale:
        Multiplier on the decode-failure probability of retransmissions
        (chase combining gain).
    olla_enabled:
        Run outer-loop link adaptation (ablation switch).
    bler:
        Link-abstraction error model.
    rank_adapter:
        SINR→layers policy (per-deployment bias lives here).
    cqi_delay_slots:
        Age of the channel state behind each CQI report.
    cqi_noise_db:
        Gaussian error of the SINR estimate underlying CQI.
    cqi_alpha:
        Efficiency factor of the UE's CQI reporting.  UEs report
        optimistically relative to what the link actually decodes
        (outer-loop link adaptation exists precisely to correct this);
        keeping ``cqi_alpha`` above the BLER model's ``alpha`` makes the
        paper's CQI >= 12 conditioning match commercial reporting rates
        while OLLA pulls the served MCS back to the true capacity.
    rank_ewma_beta:
        Smoothing of the SINR series feeding rank adaptation — RI
        reports average over a much longer horizon than CQI, which is
        why Fig. 12 shows MIMO-layer variability an order of magnitude
        below MCS variability.
    dci_fallback_cqi:
        At or below this CQI a 256QAM cell falls back to DCI 1_0 /
        the 64QAM table (§3.1).
    background_rb_mean, background_rb_sigma:
        Fraction of grantable RBs consumed by background traffic
        (other bearers, SIBs, occasional other users), redrawn each CQI
        period.  Keeps allocations "close to the maximum" (Fig. 4)
        while producing the RE-allocation spread of Fig. 3.
    """

    harq_rtt_slots: int = 8
    max_attempts: int = 4
    retx_error_scale: float = 0.15
    olla_enabled: bool = True
    bler: BlerModel = field(default_factory=BlerModel)
    rank_adapter: RankAdapter = field(default_factory=RankAdapter)
    cqi_delay_slots: int = 8
    cqi_noise_db: float = 0.3
    cqi_alpha: float = 0.9
    rank_ewma_beta: float = 0.15
    dci_fallback_cqi: int = 4
    background_rb_mean: float = 0.025
    background_rb_sigma: float = 0.035

    def __post_init__(self) -> None:
        if self.harq_rtt_slots < 1:
            raise ValueError("harq_rtt_slots must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if not 0.0 <= self.retx_error_scale <= 1.0:
            raise ValueError("retx_error_scale must lie in [0, 1]")


# ---------------------------------------------------------------------- #
# Shared retransmission-window semantics
# ---------------------------------------------------------------------- #
# Every engine — the scalar reference oracle, the segment-batched
# vectorized engine, and the cohort tensor engine's compiled retx kernel
# (which transliterates them in C) — answers the same two questions per
# pending HARQ block: *can this slot serve it* and *with what error
# probability*.  Both rules live here, so the Python engines cannot
# re-derive (and silently drift from) the oracle's semantics.

def retx_fits_slot(is_special, tbs_bits, tbs_special) -> bool:
    """Serve-eligibility of a due retransmission in one slot.

    A special slot only qualifies if its (shorter) TBS can carry the
    pending block; otherwise the retransmission waits for the next full
    slot and the special slot carries new data (the *deferral* rule).
    Full slots always qualify.
    """
    return not (is_special and tbs_bits > tbs_special)


def retx_error_probability(p_hint, retx_error_scale):
    """Error probability of serving a retransmission.

    ``min(1, p_hint * retx_error_scale)`` — chase combining recovers
    most of the loss, so the retransmission reuses the original
    transmission's error probability scaled down.
    """
    p_retx = p_hint * retx_error_scale
    return p_retx if p_retx < 1.0 else 1.0


class _RetxQueue:
    """Min-heap of pending HARQ retransmissions, ordered by due slot.

    Replaces the previous sorted-list queue (``append`` + full
    ``sort()`` on every NACK) with ``heapq`` push/pop.  A monotonically
    increasing sequence number breaks due-slot ties in insertion order,
    so heap order matches the stable sort it replaced exactly.

    Items are ``(due_slot, seq, tbs_bits, attempts, p_hint)``.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int, int, float]] = []
        self._seq = 0

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def head(self) -> tuple[int, int, int, int, float]:
        return self._heap[0]

    def push(self, due_slot: int, tbs_bits: int, attempts: int, p_hint: float) -> None:
        heapq.heappush(self._heap, (due_slot, self._seq, tbs_bits, attempts, p_hint))
        self._seq += 1

    def pop(self) -> tuple[int, int, int, int, float]:
        return heapq.heappop(self._heap)


def _slot_types(cell: CellConfig, n_slots: int, direction: SlotType) -> np.ndarray:
    """Per-slot type codes; FDD carriers are all-DL or all-UL."""
    if cell.tdd is not None:
        return cell.tdd.type_array(n_slots)
    code = SLOT_DL if direction is SlotType.DL else SLOT_UL
    return np.full(n_slots, code, dtype=np.int8)


def _usable_symbols(cell: CellConfig, direction: SlotType) -> tuple[int, int]:
    """(symbols in a full slot, symbols in a special slot) for a direction."""
    if cell.tdd is None:
        return 14, 0
    if direction is SlotType.DL:
        return 14, cell.tdd.special.dl_symbols
    return 14, cell.tdd.special.ul_symbols


def _mappers(cell: CellConfig) -> tuple[CqiMcsMapper, CqiMcsMapper]:
    """(primary mapper, DCI 1_0 fallback mapper onto the 64QAM table)."""
    primary = cell.mapper
    if cell.max_modulation is Modulation.QAM256:
        fallback = CqiMcsMapper(cell.cqi_table, MCS_TABLE_64QAM, cell.mapping_policy)
    else:
        fallback = primary
    return primary, fallback


#: RB quantum for the TBS matrix cache (bounds distinct grant sizes).
_RB_QUANTUM = 4

#: Hard ceiling on the per-period background-traffic trim: grants never
#: drop below ``(1 - BACKGROUND_TRIM_MAX) * grantable_rb``, whatever the
#: background mean/sigma.  ``prewarm_tbs_matrices`` with
#: ``min_grant_fraction = 1 - BACKGROUND_TRIM_MAX`` therefore covers
#: every grant size any engine (per-session or cohort tensor) can
#: resolve.
BACKGROUND_TRIM_MAX = 0.35


class _TbsCache:
    """TBS lookup matrices keyed by (table, n_prb).

    Backed by the process-wide matrix cache in :mod:`repro.nr.tbs`, so
    repeated sessions in a campaign reuse each other's matrices instead
    of recomputing them.
    """

    def __init__(self, cell: CellConfig, max_layers: int, direction: SlotType):
        self._cell = cell
        self._max_layers = max_layers
        self._full_sym, self._special_sym = _usable_symbols(cell, direction)
        if cell.max_modulation is Modulation.QAM256:
            self._tables = {"primary": cell.mcs_table, "fallback": MCS_TABLE_64QAM}
        else:
            self._tables = {"primary": cell.mcs_table, "fallback": cell.mcs_table}
        self._cache: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}

    def quantize(self, n_prb: int) -> int:
        """Snap a grant size to the cache quantum (at least one quantum)."""
        return max(_RB_QUANTUM, _RB_QUANTUM * round(n_prb / _RB_QUANTUM))

    def get(self, which: str, n_prb: int) -> tuple[np.ndarray, np.ndarray]:
        """(full-slot, special-slot) TBS matrices for a grant size."""
        key = (which, n_prb)
        if key not in self._cache:
            table = self._tables[which]
            full = cached_tbs_lookup_matrix(table, n_prb, self._max_layers,
                                            symbols=self._full_sym)
            if self._special_sym > 0:
                special = cached_tbs_lookup_matrix(table, n_prb, self._max_layers,
                                                   symbols=self._special_sym)
            else:
                special = np.zeros_like(full)
            self._cache[key] = (full, special)
        return self._cache[key]


def prewarm_tbs_matrices(cell: CellConfig, direction: SlotType = SlotType.DL,
                         max_layers: int | None = None,
                         min_grant_fraction: float = 1.0) -> None:
    """Populate the process-wide TBS matrix cache for a carrier.

    Builds the full-grant (and special-slot) matrices for the primary
    and fallback MCS tables — the matrices every full-buffer session on
    this carrier resolves first.  Campaign worker pools call this from
    their initializer so the first session of each worker starts warm.

    ``min_grant_fraction`` extends the warm set down the grant-size axis:
    every quantized grant in ``[min_grant_fraction * grantable_rb,
    grantable_rb]`` is built too.  The cohort tensor engine resolves the
    TBS matrices of *all* of a cohort's background-trimmed grant sizes
    up front (one stacked gather per period instead of per-period dict
    lookups), so a cold tensor run would otherwise pay every first-touch
    build inside the timed region; the default SimParams background
    model trims at most ~10% of the grant in practice, which
    ``prewarm_worker_caches`` covers with ``min_grant_fraction=0.88``.
    Deeper trims still build lazily; ``min_grant_fraction = 1 -
    BACKGROUND_TRIM_MAX`` is the guaranteed-complete (but larger) warm
    set.
    """
    if not 0.0 < min_grant_fraction <= 1.0:
        raise ValueError("min_grant_fraction must lie in (0, 1]")
    if direction is SlotType.UL and cell.max_modulation is not Modulation.QAM64:
        cell = replace(cell, max_modulation=Modulation.QAM64)
    layers = cell.max_layers if max_layers is None else min(max_layers, cell.max_layers)
    cache = _TbsCache(cell, layers, direction)
    full_grant = cache.quantize(cell.grantable_rb)
    low_grant = cache.quantize(int(round(cell.grantable_rb * min_grant_fraction)))
    for grant in range(min(low_grant, full_grant), full_grant + 1, _RB_QUANTUM):
        cache.get("primary", grant)
        cache.get("fallback", grant)
    # Grant sizes are min(quantized, grantable_rb): when the quantum
    # rounds the full grant *up*, the capped (non-quantum) full grant is
    # the size sessions actually resolve — warm it too.
    if full_grant > cell.grantable_rb:
        cache.get("primary", cell.grantable_rb)
        cache.get("fallback", cell.grantable_rb)


class _Period:
    """Per-CQI-period context shared by the slot engines.

    Everything the per-slot logic needs, resolved once per period: the
    link-adaptation decision (MCS, layers, CQI, DCI format, grant size,
    TBS values) plus the pre-drawn randomness views for the period.
    """

    __slots__ = (
        "start", "stop", "usable", "special", "decoded_new", "p_err",
        "retx_uniforms", "params", "prb", "mcs", "mod", "layers", "cqi",
        "dci", "tbs_full", "tbs_special",
    )


def _scalar_slot(trace: SlotTrace, queue: _RetxQueue, pd: _Period, i: int) -> tuple[int, int]:
    """Process one slot exactly as the reference engine defines it.

    Returns ``(acks, nacks)`` counted over *new* transmissions only
    (retransmissions do not feed OLLA).  Both engines route through
    this function — the reference engine for every slot, the vectorized
    engine inside retransmission windows — so their per-slot semantics
    cannot drift apart.
    """
    if not pd.usable[i]:
        return 0, 0
    is_special = bool(pd.special[i])
    # Serve a due retransmission first — it displaces new data.
    # A special slot only qualifies if its (shorter) TBS can carry
    # the pending block; otherwise the retransmission waits for
    # the next full slot and the special slot carries new data.
    if queue and queue.head[0] <= i and \
            retx_fits_slot(is_special, queue.head[2], pd.tbs_special):
        _due, _seq, tbs, attempts, p_hint = queue.pop()
        params = pd.params
        p_retx = retx_error_probability(p_hint, params.retx_error_scale)
        ok = pd.retx_uniforms[i] >= p_retx
        trace.scheduled[i] = True
        trace.is_retx[i] = True
        trace.n_prb[i] = pd.prb
        trace.n_re[i] = pd.prb * 12
        trace.mcs_index[i] = pd.mcs
        trace.modulation_order[i] = pd.mod
        trace.layers[i] = pd.layers
        trace.tbs_bits[i] = tbs
        trace.cqi[i] = pd.cqi
        trace.dci_format[i] = pd.dci
        if ok:
            trace.delivered_bits[i] = tbs
        else:
            trace.error[i] = True
            if attempts + 1 < params.max_attempts:
                queue.push(i + params.harq_rtt_slots, tbs, attempts + 1, p_hint)
        return 0, 0
    # New transmission.
    tbs = pd.tbs_special if is_special else pd.tbs_full
    if tbs <= 0:
        return 0, 0
    ok = bool(pd.decoded_new[i - pd.start])
    trace.scheduled[i] = True
    trace.n_prb[i] = pd.prb
    trace.n_re[i] = pd.prb * 12
    trace.mcs_index[i] = pd.mcs
    trace.modulation_order[i] = pd.mod
    trace.layers[i] = pd.layers
    trace.tbs_bits[i] = tbs
    trace.cqi[i] = pd.cqi
    trace.dci_format[i] = pd.dci
    if ok:
        trace.delivered_bits[i] = tbs
        return 1, 0
    trace.error[i] = True
    queue.push(i + pd.params.harq_rtt_slots, tbs, 1, float(pd.p_err[i - pd.start]))
    return 0, 1


class _ReferenceEngine:
    """Scalar oracle: every slot through :func:`_scalar_slot`, written
    to the trace immediately."""

    def __init__(self, n_slots: int, usable: np.ndarray, special: np.ndarray):
        pass

    def run_period(self, trace: SlotTrace, queue: _RetxQueue, pd: _Period) -> tuple[int, int]:
        acks = 0
        nacks = 0
        for i in range(pd.start, pd.stop):
            a, n = _scalar_slot(trace, queue, pd, i)
            acks += a
            nacks += n
        return acks, nacks

    def flush(self, trace: SlotTrace) -> None:
        pass


class _VectorizedEngine:
    """Segment-batched fast path.

    Each CQI period is split into maximal contiguous segments with no
    due HARQ retransmission.  Inside a segment every usable slot carries
    a new transmission whose outcome is already known (``decoded_new``
    is pre-drawn), so the per-slot work collapses to bookkeeping: the
    segment's transmit pattern is copied into a trace-length mask and
    its per-period constants (MCS, grant, CQI, ...) are appended to
    chunk lists.  Two events bound a segment: the head of the
    retransmission queue coming due, and a fresh NACK whose
    retransmission becomes due ``harq_rtt_slots`` later.  Slots inside
    retransmission windows fall back to :func:`_scalar_slot`, which
    writes the trace directly.

    NACKs are pushed onto the queue in slot order as each segment is
    scanned (the queue drives the segmentation), but trace columns are
    materialized once per trace in :meth:`flush`: chunk constants expand
    through ``np.repeat`` and land with one bulk write per column.
    Scalar slots own disjoint indices, so flush order is immaterial.
    """

    def __init__(self, n_slots: int, usable: np.ndarray, special: np.ndarray):
        self._special = special
        # Transmit patterns for the three live (tbs_full, tbs_special)
        # sign cases, precomputed over the whole trace, each with a
        # prefix-sum so a segment's transmission count is two lookups.
        self._tx_both = usable
        self._tx_full_only = usable & ~special
        self._tx_special_only = usable & special
        self._cum_both = self._prefix_counts(self._tx_both)
        self._cum_full_only = self._prefix_counts(self._tx_full_only)
        self._cum_special_only = self._prefix_counts(self._tx_special_only)
        # ``decoded`` is read only where ``txmask`` was set, and every
        # such slot is written first.
        self._decoded = np.empty(n_slots, dtype=bool)
        self._txmask = np.zeros(n_slots, dtype=bool)
        self._scratch: np.ndarray | None = None
        # Per-chunk constants (one chunk per committed segment).
        self._counts: list[int] = []
        self._prb: list[int] = []
        self._mcs: list[int] = []
        self._mod: list[int] = []
        self._layers: list[int] = []
        self._cqi: list[int] = []
        self._dci: list[int] = []
        self._tbsf: list[int] = []
        self._tbss: list[int] = []
        # Per-event buffer for fallback slots (retransmissions and
        # deferral-displaced new transmissions) — flushed in bulk too.
        # One tuple per event: (slot, tbs, ok, is_retx, prb, mcs, mod,
        # layers, cqi, dci).
        self._events: list[tuple] = []

    @staticmethod
    def _prefix_counts(tx: np.ndarray) -> np.ndarray:
        counts = np.zeros(tx.size + 1, dtype=np.int64)
        np.cumsum(tx, out=counts[1:])
        return counts

    def _fallback_slot(self, queue: _RetxQueue, pd: "_Period", i: int) -> tuple[int, int]:
        """Per-slot fallback with the exact :func:`_scalar_slot` semantics,
        buffering its trace writes instead of landing them immediately."""
        if not pd.usable[i]:
            return 0, 0
        is_special = bool(pd.special[i])
        heap = queue._heap
        if heap and heap[0][0] <= i and \
                retx_fits_slot(is_special, heap[0][2], pd.tbs_special):
            _due, _seq, tbs, attempts, p_hint = queue.pop()
            params = pd.params
            p_retx = retx_error_probability(p_hint, params.retx_error_scale)
            ok = bool(pd.retx_uniforms[i] >= p_retx)
            self._events.append((i, tbs, ok, True, pd.prb, pd.mcs, pd.mod,
                                 pd.layers, pd.cqi, pd.dci))
            if not ok and attempts + 1 < params.max_attempts:
                queue.push(i + params.harq_rtt_slots, tbs, attempts + 1, p_hint)
            return 0, 0
        tbs = pd.tbs_special if is_special else pd.tbs_full
        if tbs <= 0:
            return 0, 0
        j = i - pd.start
        ok = bool(pd.decoded_new[j])
        self._events.append((i, tbs, ok, False, pd.prb, pd.mcs, pd.mod,
                             pd.layers, pd.cqi, pd.dci))
        if ok:
            return 1, 0
        queue.push(i + pd.params.harq_rtt_slots, tbs, 1, float(pd.p_err[j]))
        return 0, 1

    def run_period(self, trace: SlotTrace, queue: _RetxQueue, pd: _Period) -> tuple[int, int]:
        start, stop = pd.start, pd.stop
        tbs_full, tbs_special = pd.tbs_full, pd.tbs_special
        acks = 0
        nacks = 0
        if tbs_full > 0 and tbs_special > 0:
            tx = self._tx_both
            cum = self._cum_both
        elif tbs_full > 0:
            tx = self._tx_full_only
            cum = self._cum_full_only
        elif tbs_special > 0:
            tx = self._tx_special_only
            cum = self._cum_special_only
        else:
            # Nothing transmittable this period; only due retransmissions
            # can occupy slots, and the fallback skips the rest.
            for i in range(start, stop):
                a, n = self._fallback_slot(queue, pd, i)
                acks += a
                nacks += n
            return acks, nacks

        self._decoded[start:stop] = pd.decoded_new
        # Fresh-NACK candidate positions (period-relative), with their
        # retransmission hints, extracted once per period (scratch buffer
        # reused across periods — the mask is consumed immediately).
        scratch = self._scratch
        if scratch is None or scratch.size < stop - start:
            self._scratch = scratch = np.empty(stop - start, dtype=bool)
        failed = np.logical_not(pd.decoded_new, out=scratch[:stop - start])
        failed &= tx[start:stop]
        err_pos = failed.nonzero()[0].tolist()
        n_err = len(err_pos)
        uniform_tbs = tbs_special == tbs_full
        e = 0
        rtt = pd.params.harq_rtt_slots
        txmask = self._txmask
        heap = queue._heap
        special = self._special
        p_err = pd.p_err

        i = start
        while i < stop:
            if heap and heap[0][0] <= i:
                # Retransmission window: per-slot fallback until the due
                # block is served (or deferred past a special slot that
                # cannot carry it).
                a, n = self._fallback_slot(queue, pd, i)
                acks += a
                nacks += n
                i += 1
                # The fallback owned that position — drop any fresh-NACK
                # candidate there (a served retx displaced the new data; a
                # fallback new transmission already queued its own NACK).
                while e < n_err and err_pos[e] < i - start:
                    e += 1
                continue
            seg_end = stop if not heap else min(stop, heap[0][0])
            # The first fresh NACK inside the segment re-arms the queue
            # rtt slots later; the segment cannot extend past that.
            if e < n_err:
                first = start + err_pos[e]
                if first < seg_end and first + rtt < seg_end:
                    seg_end = first + rtt
            j1 = seg_end - start
            # Queue every fresh NACK in the committed range, slot order:
            # their due slots all lie at or beyond seg_end.
            seg_nacks = 0
            while e < n_err and (pos := err_pos[e]) < j1:
                if uniform_tbs or not special[start + pos]:
                    tbs = tbs_full
                else:
                    tbs = tbs_special
                queue.push(start + pos + rtt, tbs, 1, float(p_err[pos]))
                e += 1
                seg_nacks += 1
            nacks += seg_nacks
            txmask[i:seg_end] = tx[i:seg_end]
            cnt = int(cum[seg_end] - cum[i])
            acks += cnt - seg_nacks
            if cnt:
                self._counts.append(cnt)
                self._prb.append(pd.prb)
                self._mcs.append(pd.mcs)
                self._mod.append(pd.mod)
                self._layers.append(pd.layers)
                self._cqi.append(pd.cqi)
                self._dci.append(pd.dci)
                self._tbsf.append(tbs_full)
                self._tbss.append(tbs_special)
            i = seg_end
        return acks, nacks

    def flush(self, trace: SlotTrace) -> None:
        """Materialize the accumulated fast-path slots into the trace."""
        idx = np.flatnonzero(self._txmask)
        if idx.size:
            counts = np.asarray(self._counts)

            def rep(values: list[int]) -> np.ndarray:
                return np.repeat(np.asarray(values, dtype=np.int64), counts)

            prb = rep(self._prb)
            trace.fill(
                idx, scheduled=True, n_prb=prb, n_re=prb * 12,
                mcs_index=rep(self._mcs), modulation_order=rep(self._mod),
                layers=rep(self._layers), cqi=rep(self._cqi),
                dci_format=rep(self._dci),
            )
            tbs_vec = np.where(self._special[idx], rep(self._tbss), rep(self._tbsf))
            ok = self._decoded[idx]
            trace.tbs_bits[idx] = tbs_vec
            trace.delivered_bits[idx] = np.where(ok, tbs_vec, 0)
            trace.error[idx] = ~ok
        if self._events:
            (r_idx, r_tbs, r_ok, r_retx, r_prb, r_mcs, r_mod, r_layers,
             r_cqi, r_dci) = zip(*self._events)
            ridx = np.asarray(r_idx, dtype=np.intp)
            rtbs = np.asarray(r_tbs, dtype=np.int64)
            rok = np.asarray(r_ok, dtype=bool)
            rprb = np.asarray(r_prb, dtype=np.int64)
            trace.fill(
                ridx, scheduled=True, n_prb=rprb, n_re=rprb * 12,
                mcs_index=np.asarray(r_mcs, dtype=np.int64),
                modulation_order=np.asarray(r_mod, dtype=np.int64),
                layers=np.asarray(r_layers, dtype=np.int64),
                cqi=np.asarray(r_cqi, dtype=np.int64),
                dci_format=np.asarray(r_dci, dtype=np.int64),
            )
            trace.is_retx[ridx] = np.asarray(r_retx, dtype=bool)
            trace.tbs_bits[ridx] = rtbs
            trace.delivered_bits[ridx] = np.where(rok, rtbs, 0)
            trace.error[ridx] = ~rok


_SLOT_ENGINES = {
    "reference": _ReferenceEngine,
    "vectorized": _VectorizedEngine,
}


def _simulate_direction(
    cell: CellConfig,
    channel: ChannelRealization,
    direction: SlotType,
    rng: np.random.Generator,
    params: SimParams,
    max_layers: int,
    n_prb: int,
    metadata: TraceMetadata,
) -> SlotTrace:
    """Shared single-UE full-buffer simulation for one direction."""
    n_slots = channel.n_slots
    trace = SlotTrace.empty(n_slots, mu=channel.mu, metadata=metadata)
    trace.sinr_db[:] = channel.sinr_db
    trace.rsrp_dbm[:] = channel.rsrp_dbm
    trace.rsrq_db[:] = channel.rsrq_db

    slot_types = _slot_types(cell, n_slots, direction)
    trace.slot_type[:] = slot_types
    own_code = SLOT_DL if direction is SlotType.DL else SLOT_UL
    usable = (slot_types == own_code) | (slot_types == SLOT_SPECIAL)
    full_sym, special_sym = _usable_symbols(cell, direction)
    if special_sym == 0:
        usable &= slot_types != SLOT_SPECIAL

    primary_mapper, fallback_mapper = _mappers(cell)
    tbs_cache = _TbsCache(cell, max_layers, direction)

    olla = Olla()
    rank_adapter = params.rank_adapter
    current_rank = 1
    rank_sinr_ewma: float | None = None
    period = cell.cqi_period_slots

    # Pre-draw all randomness used on the slot clock.
    n_periods_total = -(-n_slots // period) + 1
    uniforms = rng.random(n_slots)
    retx_uniforms = rng.random(n_slots)
    noise = params.cqi_noise_db * rng.standard_normal(n_periods_total)
    background = np.clip(
        params.background_rb_mean + params.background_rb_sigma * rng.standard_normal(n_periods_total),
        0.0, BACKGROUND_TRIM_MAX,
    )

    sinr = channel.sinr_db
    queue = _RetxQueue()
    special_mask = slot_types == SLOT_SPECIAL
    # A lone session has no cohort: the policy resolves to the
    # segment-batched vectorized engine (byte-identical by contract).
    engine = _SLOT_ENGINES[resolve_engine()](n_slots, usable, special_mask)

    pd = _Period()
    pd.params = params
    pd.retx_uniforms = retx_uniforms
    # Full-trace masks, indexed absolutely by the scalar paths; only
    # decoded_new/p_err are period-relative views.
    pd.usable = usable
    pd.special = special_mask

    # Hoist the per-period measurement chain out of the loop: measured
    # SINR and CQI depend only on the channel and the pre-drawn noise,
    # and the channel's sustainable efficiency depends only on the SINR
    # series — none feed back from slot outcomes.  Both engines share
    # these arrays, so they cannot diverge here.
    n_periods = -(-n_slots // period)
    starts = np.arange(n_periods) * period
    measured_all = sinr[np.maximum(starts - params.cqi_delay_slots, 0)] + noise[:n_periods]
    cqi_all = np.minimum(
        sinr_to_cqi(measured_all, cell.cqi_table, alpha=params.cqi_alpha), CQI_MAX
    )
    eff_cap = params.bler.capacity(sinr)
    is_qam256 = cell.max_modulation is Modulation.QAM256
    # Grant sizes depend only on the pre-drawn background series; the
    # whole quantization chain runs once (np.rint ties-to-even matches
    # the scalar round() it replaces).
    prb_scaled = np.rint(n_prb * (1.0 - background[:n_periods])).astype(np.int64)
    prb_quant = np.maximum(
        _RB_QUANTUM,
        (_RB_QUANTUM * np.rint(prb_scaled / _RB_QUANTUM)).astype(np.int64),
    )
    period_prb_all = np.minimum(prb_quant, n_prb).tolist()
    measured_list = measured_all.tolist()
    cqi_list = cqi_all.tolist()
    # The loop resolves the same handful of link-adaptation keys every
    # few periods — memoize the CQI→MCS mapping, the MCS-entry constants
    # and the TBS pair lookups.
    mcs_memo: dict[tuple[bool, int, int], int] = {}
    entry_memo: dict[tuple[bool, int], tuple[float, int]] = {}
    tbs_memo: dict[tuple[bool, int, int, int], tuple[int, int]] = {}
    beta = params.rank_ewma_beta
    olla_enabled = params.olla_enabled
    dci_fallback_cqi = params.dci_fallback_cqi
    bler = params.bler
    # Per-period scratch buffers: ``p_err``/``decoded_new`` are consumed
    # within the period (NACK hints are copied out as floats), so one
    # pair of buffers serves every period without allocations.
    p_err_buf = np.empty(period)
    decoded_buf = np.empty(period, dtype=bool)
    # Olla.update_batch inlined below (one float op per period beats a
    # method call + validation); the constants cannot change mid-trace.
    olla_up, olla_down = olla.step_up, olla.step_down
    olla_lo, olla_hi = olla.min_offset, olla.max_offset

    for p in range(n_periods):
        start = p * period
        stop = min(n_slots, start + period)

        # --- measurement report ------------------------------------------------
        measured = measured_list[p]
        cqi = cqi_list[p]
        if rank_sinr_ewma is None:
            rank_sinr_ewma = measured
        else:
            rank_sinr_ewma = (1.0 - beta) * rank_sinr_ewma + beta * measured
        current_rank = rank_adapter.rank_for_sinr(rank_sinr_ewma, current_rank)
        layers = min(current_rank, max_layers)
        use_fallback = cqi <= dci_fallback_cqi and is_qam256
        offset = olla.offset if olla_enabled else 0
        key = (use_fallback, cqi, offset)
        mcs = mcs_memo.get(key)
        if mcs is None:
            mapper = fallback_mapper if use_fallback else primary_mapper
            mcs = mapper.mcs_for_cqi(cqi, olla_offset=offset)
            mcs_memo[key] = mcs
        ekey = (use_fallback, mcs)
        em = entry_memo.get(ekey)
        if em is None:
            table = (fallback_mapper if use_fallback else primary_mapper).mcs_table
            entry = table[mcs]
            em = (entry.spectral_efficiency, entry.modulation.bits_per_symbol)
            entry_memo[ekey] = em
        eff_mcs, mod_bits = em
        period_prb = period_prb_all[p]
        tkey = (use_fallback, period_prb, mcs, layers)
        tp = tbs_memo.get(tkey)
        if tp is None:
            tbs_full_m, tbs_special_m = tbs_cache.get(
                "fallback" if use_fallback else "primary", period_prb)
            tp = (int(tbs_full_m[mcs, layers - 1]), int(tbs_special_m[mcs, layers - 1]))
            tbs_memo[tkey] = tp
        dci_code = 0 if (use_fallback or not is_qam256) else 1

        # --- vectorized per-slot outcome for the period ------------------------
        sl = slice(start, stop)
        m = stop - start
        p_err = bler.error_probability_given_capacity(eff_mcs, eff_cap[sl],
                                                      out=p_err_buf[:m])
        decoded_new = np.greater_equal(uniforms[sl], p_err, out=decoded_buf[:m])

        pd.start = start
        pd.stop = stop
        pd.decoded_new = decoded_new
        pd.p_err = p_err
        pd.prb = period_prb
        pd.mcs = mcs
        pd.mod = mod_bits
        pd.layers = layers
        pd.cqi = cqi
        pd.dci = dci_code
        pd.tbs_full, pd.tbs_special = tp

        acks, nacks = engine.run_period(trace, queue, pd)
        if olla_enabled:
            delta = olla.delta + acks * olla_up - nacks * olla_down
            olla.delta = olla_lo if delta < olla_lo else olla_hi if delta > olla_hi else delta

    engine.flush(trace)
    # Unscheduled slots still carry the CQI context for analysis: forward-fill.
    _forward_fill_cqi(trace)
    return trace


def _forward_fill_cqi(trace: SlotTrace) -> None:
    """Propagate the last reported CQI into unscheduled slots."""
    cqi = trace.cqi
    mask = cqi > 0
    if not mask.any():
        return
    if mask.all():
        return  # every slot already carries a CQI — nothing to fill
    # arange * mask == where(mask, arange, 0), computed in place so the
    # fill costs one temporary instead of three on long traces.
    idx = np.arange(cqi.size)
    idx *= mask
    np.maximum.accumulate(idx, out=idx)
    filled = cqi[idx]
    first = int(np.argmax(mask))
    filled[:first] = cqi[first]
    trace.cqi[:] = filled


def simulate_downlink(
    cell: CellConfig,
    channel: ChannelRealization,
    rng: np.random.Generator | None = None,
    params: SimParams | None = None,
    metadata: TraceMetadata | None = None,
) -> SlotTrace:
    """Single backlogged UE, downlink (iPerf DL equivalent)."""
    rng = rng or np.random.default_rng()
    params = params or SimParams()
    metadata = metadata or TraceMetadata(
        carrier_name=cell.name, direction="DL",
        bandwidth_mhz=cell.bandwidth_mhz, scs_khz=cell.scs_khz,
    )
    return _simulate_direction(
        cell, channel, SlotType.DL, rng, params,
        max_layers=cell.max_layers, n_prb=cell.grantable_rb, metadata=metadata,
    )


def simulate_uplink(
    cell: CellConfig,
    channel: ChannelRealization,
    rng: np.random.Generator | None = None,
    params: SimParams | None = None,
    max_layers: int = 2,
    metadata: TraceMetadata | None = None,
) -> SlotTrace:
    """Single backlogged UE, uplink.

    UL grants use at most ``max_layers`` (commercial mid-band UL runs 1-2
    layers) and the UL symbols of the TDD pattern; the caller supplies a
    channel realization reflecting the UL budget (UE tx power), typically
    the DL realization shifted down by the operator's UL SINR offset.
    """
    rng = rng or np.random.default_rng()
    params = params or SimParams()
    metadata = metadata or TraceMetadata(
        carrier_name=cell.name, direction="UL",
        bandwidth_mhz=cell.bandwidth_mhz, scs_khz=cell.scs_khz,
    )
    # UL uses the 64QAM family in the studied deployments.
    ul_cell = replace(cell, max_modulation=Modulation.QAM64) \
        if cell.max_modulation is not Modulation.QAM64 else cell
    return _simulate_direction(
        ul_cell, channel, SlotType.UL, rng, params,
        max_layers=min(max_layers, cell.max_layers), n_prb=cell.grantable_rb,
        metadata=metadata,
    )


# ---------------------------------------------------------------------- #
# Multi-UE downlink
# ---------------------------------------------------------------------- #
def _multi_update_states(
    states: list[dict],
    slot: int,
    channels: list[ChannelRealization],
    cell: CellConfig,
    params: SimParams,
    rng: np.random.Generator,
    primary_mapper: CqiMcsMapper,
    fallback_mapper: CqiMcsMapper,
    mcs_memo: dict[tuple[bool, int, int], int],
) -> None:
    """Per-UE link-adaptation update at a CQI period boundary.

    Draws one ``standard_normal`` per UE in UE order.  The SINR→CQI map
    runs once over all UEs, and CQI→MCS lookups are memoized in the
    caller-held ``mcs_memo`` (the same handful of keys recurs every
    period).
    """
    meas_idx = max(0, slot - params.cqi_delay_slots)
    noise_db = params.cqi_noise_db
    measured_all = np.array([
        float(ch.sinr_db[meas_idx]) + noise_db * float(rng.standard_normal())
        for ch in channels
    ])
    cqi_all = np.minimum(
        sinr_to_cqi(measured_all, cell.cqi_table, alpha=params.cqi_alpha), CQI_MAX
    ).tolist()
    is_qam256 = cell.max_modulation is Modulation.QAM256
    beta = params.rank_ewma_beta
    olla_enabled = params.olla_enabled
    for k, state in enumerate(states):
        measured = float(measured_all[k])
        cqi = cqi_all[k]
        state["cqi"] = cqi
        ewma = state.get("rank_sinr")
        ewma = measured if ewma is None else (1.0 - beta) * ewma + beta * measured
        state["rank_sinr"] = ewma
        state["rank"] = params.rank_adapter.rank_for_sinr(ewma, state["rank"])
        use_fb = cqi <= params.dci_fallback_cqi and is_qam256
        offset = state["olla"].offset if olla_enabled else 0
        key = (use_fb, cqi, offset)
        mcs = mcs_memo.get(key)
        if mcs is None:
            mapper = fallback_mapper if use_fb else primary_mapper
            mcs = mapper.mcs_for_cqi(cqi, olla_offset=offset)
            mcs_memo[key] = mcs
        state["mcs"] = mcs
        state["table"] = (fallback_mapper if use_fb else primary_mapper).mcs_table
        state["dci"] = 0 if (use_fb or not is_qam256) else 1


def simulate_downlink_multi(
    cell: CellConfig,
    channels: list[ChannelRealization],
    scheduler: Scheduler,
    rng: np.random.Generator | None = None,
    params: SimParams | None = None,
) -> list[SlotTrace]:
    """Several backlogged UEs sharing the carrier through a scheduler.

    Used for the §5.2 multi-user study (Fig. 14): per DL slot the
    scheduler splits the grantable RBs among all UEs; each UE's MCS/rank
    tracks its own CQI loop.  Per-UE HARQ is simplified to immediate
    retransmission accounting (errors cost the slot's bits) — adequate
    because Fig. 14 reports RB shares and mean throughput.

    One per-slot scalar loop, whatever the engine switch says: the
    scheduler's state feeds back through decode outcomes on the slot
    clock, and a Fig. 14 run is a fraction of a second.  Decode outcomes
    come from one broadcast BLER evaluation per CQI period rather than a
    scalar logistic call per allocated UE per slot.
    """
    rng = rng or np.random.default_rng()
    params = params or SimParams()
    if not channels:
        raise ValueError("need at least one UE channel")
    n_slots = min(ch.n_slots for ch in channels)
    n_ues = len(channels)

    traces = [
        SlotTrace.empty(n_slots, mu=channels[k].mu, metadata=TraceMetadata(
            carrier_name=cell.name, direction="DL",
            bandwidth_mhz=cell.bandwidth_mhz, scs_khz=cell.scs_khz,
        ))
        for k in range(n_ues)
    ]
    for k, trace in enumerate(traces):
        trace.sinr_db[:] = channels[k].sinr_db[:n_slots]
        trace.rsrp_dbm[:] = channels[k].rsrp_dbm[:n_slots]
        trace.rsrq_db[:] = channels[k].rsrq_db[:n_slots]

    slot_types = _slot_types(cell, n_slots, SlotType.DL)
    for trace in traces:
        trace.slot_type[:] = slot_types
    full_sym, special_sym = _usable_symbols(cell, SlotType.DL)

    primary_mapper, fallback_mapper = _mappers(cell)
    # Per-UE adaptation state.
    states = [
        {"cqi": 7, "rank": 1, "mcs": 5, "table": cell.mcs_table, "olla": Olla(), "dci": 1}
        for _ in range(n_ues)
    ]
    uniforms = rng.random((n_ues, n_slots))

    period = cell.cqi_period_slots
    ok_mat = None
    period_start = 0
    mcs_memo: dict[tuple[bool, int, int], int] = {}
    for i in range(n_slots):
        if i % period == 0:
            _multi_update_states(states, i, channels, cell, params, rng,
                                 primary_mapper, fallback_mapper, mcs_memo)
            period_start = i
            stop = min(n_slots, i + period)
            effs = np.array([state["table"][state["mcs"]].spectral_efficiency
                             for state in states])
            sinr = np.stack([ch.sinr_db[i:stop] for ch in channels])
            ok_mat = uniforms[:, i:stop] >= params.bler.error_probability(effs[:, None], sinr)
        kind = slot_types[i]
        if kind == SLOT_UL:
            continue
        symbols = special_sym if kind == SLOT_SPECIAL else full_sym
        if symbols == 0:
            continue
        requests = []
        for k, state in enumerate(states):
            entry = state["table"][state["mcs"]]
            rate = entry.spectral_efficiency * state["rank"] * 12 * symbols
            requests.append(SchedulingRequest(ue_id=k, backlog_bits=1 << 30, instantaneous_rate=rate))
        allocation = scheduler.allocate(requests, cell.grantable_rb)
        served_bits = [0.0] * n_ues
        for k, n_rb in allocation.items():
            state = states[k]
            entry = state["table"][state["mcs"]]
            layers = min(state["rank"], cell.max_layers)
            tbs = transport_block_size(n_rb, entry, layers, symbols=symbols)
            if tbs <= 0:
                continue
            ok = bool(ok_mat[k, i - period_start])
            trace = traces[k]
            trace.scheduled[i] = True
            trace.n_prb[i] = n_rb
            trace.n_re[i] = n_rb * 12
            trace.mcs_index[i] = state["mcs"]
            trace.modulation_order[i] = entry.modulation.bits_per_symbol
            trace.layers[i] = layers
            trace.tbs_bits[i] = tbs
            trace.cqi[i] = state["cqi"]
            trace.dci_format[i] = state["dci"]
            if ok:
                trace.delivered_bits[i] = tbs
                served_bits[k] = float(tbs)
            else:
                trace.error[i] = True
            if params.olla_enabled:
                state["olla"].update(ok)
        if hasattr(scheduler, "update_average"):
            # Every active UE folds this slot into its EWMA — including
            # UEs the scheduler left out, whose 0 served bits decay the
            # average so their PF metric recovers instead of starving.
            for k in range(n_ues):
                scheduler.update_average(k, served_bits[k])
    for trace in traces:
        _forward_fill_cqi(trace)
    return traces
