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

Two slot engines produce byte-identical traces:

- ``"native"`` — the compiled period loop (``repro_run_periods`` in
  ``_retx_kernel.c``, driven by :func:`_native_periods`): every CQI
  period of one session in C, link adaptation, the error probability
  (through numpy's own float64 ``exp`` inner loop), decode, HARQ and
  the trace writes included.
- ``"reference"`` — the per-slot scalar loop (:func:`_scalar_slot`),
  the oracle for the equivalence test matrix and the path of every
  session on a host without the native kernel.

Every session runs native, one at a time, cohorts included
(:mod:`repro.ran.tensor` loops over this module's entry points);
without the native kernel every session runs the reference loop, and
``REPRO_ENGINE=reference`` pins it on any host; see
:func:`repro.ran.config.resolve_engine`.
All slot-clock randomness is pre-drawn before the period loop, so
every engine consumes the generator identically by construction.  The
multi-UE loop of :func:`simulate_downlink_multi` has one engine, the
per-slot scalar loop, whatever the switch says.
"""

from __future__ import annotations

import ctypes
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
from repro.ran import _native
from repro.ran.config import CellConfig, pinned_engine, resolve_engine
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
# Both engines — the scalar reference oracle and the native period
# loop's lane walk (which transliterates them in C) — answer the same two
# questions per pending HARQ block: *can this slot serve it* and *with
# what error probability*.  Both rules live here, next to the oracle
# that defines them.

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
#: background mean/sigma, so a session resolves TBS matrices for a
#: bounded set of grant sizes.
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


# ---------------------------------------------------------------------- #
# Dense link-adaptation lookup tables
# ---------------------------------------------------------------------- #
# CQI->MCS through the vendor mapper is a pure function of
# (fallback?, cqi, olla offset); the offset is bounded by the Olla
# clamp, so the whole map densifies into one integer LUT per carrier
# family.  Cached process-wide: every session on a carrier reuses it.
_MCS_LUT_CACHE: dict = {}

#: Integer OLLA offset bounds (``Olla`` is always constructed with
#: defaults by the simulation loop; the offset is ``round(delta)`` of a
#: delta clamped to these bounds).
_OFF_LO = int(round(Olla().min_offset))
_OFF_HI = int(round(Olla().max_offset))


def _la_luts(cell: CellConfig):
    """(mcs_lut, eff_lut, mod_lut, n_max) for a carrier.

    ``mcs_lut[fb, cqi, offset - _OFF_LO]`` is the MCS index the mapper
    returns; ``eff_lut[fb, mcs]`` / ``mod_lut[fb, mcs]`` the entry's
    spectral efficiency and modulation order.  The family axis is
    0=primary, 1=DCI 1_0 fallback; the MCS axis pads to the longer
    table so both families gather through one fancy index — padding is
    never read, because an MCS index is only ever paired with the
    family whose mapper produced it.
    """
    key = (cell.max_modulation, cell.mapping_policy, cell.band_name)
    cached = _MCS_LUT_CACHE.get(key)
    if cached is not None:
        return cached
    mappers = _mappers(cell)
    n_off = _OFF_HI - _OFF_LO + 1
    n_max = max(len(m.mcs_table) for m in mappers)
    mcs_lut = np.zeros((2, CQI_MAX + 1, n_off), dtype=np.int64)
    eff_lut = np.zeros((2, n_max))
    mod_lut = np.zeros((2, n_max), dtype=np.int64)
    for fb, mapper in enumerate(mappers):
        table = mapper.mcs_table
        for cqi in range(CQI_MAX + 1):
            for j, offset in enumerate(range(_OFF_LO, _OFF_HI + 1)):
                mcs_lut[fb, cqi, j] = mapper.mcs_for_cqi(cqi, olla_offset=offset)
        for m, entry in enumerate(table):
            eff_lut[fb, m] = entry.spectral_efficiency
            mod_lut[fb, m] = entry.modulation.bits_per_symbol
    cached = (mcs_lut, eff_lut, mod_lut, n_max)
    _MCS_LUT_CACHE[key] = cached
    return cached


def _tbs_luts(tbs_cache: "_TbsCache", grants: np.ndarray, n_max: int,
              max_layers: int, used: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tbs_full, tbs_special) LUTs of shape ``(2, grants, n_max,
    max_layers)``: the TBS lookup matrices of the (family, grant) pairs
    ``used`` (a ``(2, grants)`` bool mask) marks, padded on the family
    axis like :func:`_la_luts`.  Unmarked pairs stay zero and must not
    be read.
    """
    tb_full = np.zeros((2, grants.size, n_max, max_layers), dtype=np.int64)
    tb_special = np.zeros_like(tb_full)
    for fbi, family in enumerate(("primary", "fallback")):
        for g, grant in enumerate(grants.tolist()):
            if not used[fbi, g]:
                continue
            full, special = tbs_cache.get(family, int(grant))
            tb_full[fbi, g, :full.shape[0]] = full
            tb_special[fbi, g, :special.shape[0]] = special
    return tb_full, tb_special


def _rank_steps(rank_adapter: RankAdapter) -> list[tuple[int, float, float]]:
    """``(rank, threshold to reach it, threshold to keep it)`` per
    reachable rank above 1: the scalars :meth:`RankAdapter.rank_for_sinr`
    computes per report, with the same float operations."""
    steps = []
    for k, threshold in enumerate(rank_adapter.thresholds_db):
        candidate = k + 2
        if candidate > rank_adapter.max_layers:
            break
        eff_up = threshold + rank_adapter.bias_db
        steps.append((candidate, eff_up, eff_up - rank_adapter.hysteresis_db))
    return steps


class _Period:
    """Per-CQI-period context of the reference loop.

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
    """Process one slot exactly as the reference engine defines it,
    writing the trace immediately.

    Returns ``(acks, nacks)`` counted over *new* transmissions only
    (retransmissions do not feed OLLA).
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
    if pd.params.max_attempts > 1:
        queue.push(i + pd.params.harq_rtt_slots, tbs, 1, float(pd.p_err[i - pd.start]))
    return 0, 1


def _check_native_rows(arrays: dict[str, np.ndarray], n_slots: int,
                       period: int) -> None:
    """Raise ``TypeError`` unless every row is contiguous at exactly the
    element type ``session_t`` declares for it
    (:data:`repro.ran._native.ROW_DTYPES`), and holds exactly the
    elements the loop reads or writes there
    (:data:`repro.ran._native.ROW_LENGTHS`): the loop trusts both, so a
    mismatch would read or write past the array."""
    lengths = {"n_slots": n_slots, "n_periods": -(-n_slots // period),
               "period": period, "period + 1": period + 1}
    for name, array in arrays.items():
        expected = _native.ROW_DTYPES[name]
        if array.dtype != expected or not array.flags.c_contiguous:
            raise TypeError(f"native loop input {name!r} must be a contiguous "
                            f"{expected} row, got {array.dtype}")
        length = _native.ROW_LENGTHS.get(name)
        if length is not None and array.size != lengths[length]:
            raise TypeError(f"native loop row {name!r} holds {array.size} elements, "
                            f"the loop reads {lengths[length]} ({length})")


def _native_periods(loop, trace: SlotTrace, cell: CellConfig,
                    params: SimParams, max_layers: int, usable: np.ndarray,
                    special: np.ndarray, uniforms: np.ndarray,
                    retx_uniforms: np.ndarray, measured: np.ndarray,
                    cqi: np.ndarray, prb: np.ndarray, eff_cap: np.ndarray,
                    tbs_cache: _TbsCache) -> None:
    """Run every CQI period of one session through the compiled loop
    (``repro_run_periods`` in ``_retx_kernel.c``), writing ``trace``'s
    link columns in place.

    The loop evaluates each period's error probability itself, over
    that period's slots, through numpy's float64 ``exp`` inner loop
    (:func:`repro.ran._native.exp_loop`), so it returns to Python only
    when the HARQ lane needs more room.
    """
    n_slots = trace.scheduled.size
    period = cell.cqi_period_slots
    mcs_lut, eff_lut, mod_lut, n_max = _la_luts(cell)
    is_qam256 = cell.max_modulation is Modulation.QAM256
    fallback = (cqi <= params.dci_fallback_cqi) & is_qam256
    grants, grant = np.unique(prb, return_inverse=True)
    used = np.zeros((2, grants.size), dtype=bool)
    used[fallback.view(np.int8), grant] = True
    tbs_full, tbs_special = _tbs_luts(tbs_cache, grants, n_max, max_layers, used)
    steps = _rank_steps(params.rank_adapter)
    rank_up = np.array([up for _, up, _ in steps], dtype=np.float64)
    rank_keep = np.array([keep for _, _, keep in steps], dtype=np.float64)
    olla = Olla()

    cap = 4 * (period + params.harq_rtt_slots)
    lane = [np.empty(cap, dtype=np.int64) for _ in range(3)] + [np.empty(cap)]
    scratch_u8 = np.empty((3, period), dtype=np.uint8)
    scratch_i64 = np.empty((7, period + 1), dtype=np.int64)
    scratch_ev = np.empty((2, period + 1), dtype=np.uint8)
    arrays = {
        "measured": np.ascontiguousarray(measured, dtype=np.float64),
        "cqi": np.ascontiguousarray(cqi, dtype=np.int64),
        "prb": np.ascontiguousarray(prb, dtype=np.int64),
        "grant": np.ascontiguousarray(grant, dtype=np.int64),
        "uniforms": uniforms, "retx_uniforms": retx_uniforms,
        "usable": usable.view(np.uint8), "special": special.view(np.uint8),
        "eff_cap": np.ascontiguousarray(eff_cap, dtype=np.float64),
        "mcs_lut": mcs_lut, "eff_lut": eff_lut, "mod_lut": mod_lut,
        "tbs_full": tbs_full, "tbs_special": tbs_special,
        "rank_up": rank_up, "rank_keep": rank_keep,
        "pe": np.empty(period),
        "dec": scratch_u8[0], "fm": scratch_u8[1], "tx": scratch_u8[2],
        "cum": scratch_i64[0], "seg_col": scratch_i64[1],
        "seg_lo": scratch_i64[2], "seg_hi": scratch_i64[3],
        "ev_col": scratch_i64[4], "ev_slot": scratch_i64[5],
        "ev_tbs": scratch_i64[6], "ev_ok": scratch_ev[0], "ev_retx": scratch_ev[1],
        **{f"t_{name}": trace.column(name) for name in _native.TRACE_OUTPUTS},
    }
    _check_native_rows(arrays, n_slots, period)
    exp_loop, exp_data = _native.exp_loop()
    state = _native.SessionLoop(
        n_slots=n_slots, period=period,
        n_off=mcs_lut.shape[2], off_lo=_OFF_LO, n_mcs=n_max,
        n_grants=grants.size, max_layers=max_layers,
        n_rank_steps=len(steps), adapter_max=params.rank_adapter.max_layers,
        beta=params.rank_ewma_beta,
        olla_enabled=params.olla_enabled, olla_up=olla.step_up,
        olla_down=olla.step_down, olla_lo=olla.min_offset,
        olla_hi=olla.max_offset, is_qam256=is_qam256,
        dci_fallback_cqi=params.dci_fallback_cqi, rtt=params.harq_rtt_slots,
        max_attempts=params.max_attempts, scale=params.retx_error_scale,
        bias=params.bler.bias, slope=params.bler.slope,
        exp_loop=exp_loop, exp_data=exp_data,
        pending=0, p=0, rank=1, have_ewma=0,
        ewma=0.0, delta=olla.delta,
        **{name: array.ctypes.data for name, array in arrays.items()},
    )

    def bind_lane() -> None:
        state.cap = lane[0].size
        state.due, state.tbs, state.att, state.ph = (a.ctypes.data for a in lane)

    bind_lane()
    ref = ctypes.byref(state)
    while loop(ref) == _native.NEED_ROOM:
        pending = state.pending
        lane = [np.concatenate((a[:pending], np.empty(2 * a.size - pending, a.dtype)))
                for a in lane]
        bind_lane()


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

    tbs_cache = _TbsCache(cell, max_layers, direction)
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
    special_mask = slot_types == SLOT_SPECIAL

    # Hoist the per-period measurement chain out of the loop: measured
    # SINR and CQI depend only on the channel and the pre-drawn noise,
    # and the channel's sustainable efficiency depends only on the SINR
    # series — none feed back from slot outcomes.  Every engine shares
    # these arrays, so they cannot diverge here.
    n_periods = -(-n_slots // period)
    starts = np.arange(n_periods) * period
    measured_all = sinr[np.maximum(starts - params.cqi_delay_slots, 0)] + noise[:n_periods]
    cqi_all = np.minimum(
        sinr_to_cqi(measured_all, cell.cqi_table, alpha=params.cqi_alpha), CQI_MAX
    )
    eff_cap = params.bler.capacity_linear(channel.sinr_linear)
    # Grant sizes depend only on the pre-drawn background series; the
    # whole quantization chain runs once (np.rint ties-to-even matches
    # the scalar round() it replaces).
    prb_scaled = np.rint(n_prb * (1.0 - background[:n_periods])).astype(np.int64)
    prb_quant = np.maximum(
        _RB_QUANTUM,
        (_RB_QUANTUM * np.rint(prb_scaled / _RB_QUANTUM)).astype(np.int64),
    )
    period_prb = np.minimum(prb_quant, n_prb)

    if resolve_engine() == "native":
        _native_periods(_native.load_kernel(), trace, cell, params,
                        max_layers, usable, special_mask, uniforms,
                        retx_uniforms, measured_all, cqi_all, period_prb,
                        eff_cap, tbs_cache)
        return trace  # the kernel forward-filled the CQI column
    # The reference loop: pinned, or the kernel did not load.
    if pinned_engine() is None:
        _native.count_fallback()  # unpinned, yet no kernel: never silent

    primary_mapper, fallback_mapper = _mappers(cell)
    is_qam256 = cell.max_modulation is Modulation.QAM256
    olla = Olla()
    rank_adapter = params.rank_adapter
    current_rank = 1
    rank_sinr_ewma: float | None = None
    queue = _RetxQueue()

    pd = _Period()
    pd.params = params
    pd.retx_uniforms = retx_uniforms
    # Full-trace masks, indexed absolutely by the scalar paths; only
    # decoded_new/p_err are period-relative views.
    pd.usable = usable
    pd.special = special_mask

    period_prb_all = period_prb.tolist()
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

        # --- per-slot decode outcomes for the period ---------------------------
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

        acks = nacks = 0
        for i in range(start, stop):
            a, n = _scalar_slot(trace, queue, pd, i)
            acks += a
            nacks += n
        if olla_enabled:
            delta = olla.delta + acks * olla_up - nacks * olla_down
            olla.delta = olla_lo if delta < olla_lo else olla_hi if delta > olla_hi else delta

    # Unscheduled slots still carry the CQI context for analysis: forward-fill.
    _forward_fill_cqi(trace)
    return trace


def _forward_fill_cqi(trace: SlotTrace) -> None:
    """Propagate the last reported CQI into unscheduled slots.

    The native period loop applies the same rule in C when it finishes
    a session (``forward_fill_cqi`` in ``_retx_kernel.c``).
    """
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
