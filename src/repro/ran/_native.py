"""Native slot kernel: the single-session period loop.

The slot loop is dispatch-bound in Python and numpy: a CQI period is
~20 slots, and at that size per-call and per-ufunc overhead dominates
the arithmetic by two orders of magnitude.  This module compiles
``_retx_kernel.c`` — a transliteration of the reference engine's period
loop with byte-identical semantics — into a tiny shared library with
the system C compiler and loads it through :mod:`ctypes`.  Its entry
point ``repro_run_periods`` (:func:`load_kernel`, state in
:class:`SessionLoop`) runs every CQI period of one session;
:mod:`repro.ran.simulator` drives it.

The period loop evaluates the logistic error probability itself
(``repro_error_probability``), but its ``exp`` must be numpy's: libm
rounds differently.  So :func:`load_kernel` resolves numpy's own
float64 ``exp`` inner loop from the ``np.exp`` ufunc object
(:class:`_UFuncHead` mirrors the leading public fields of
``PyUFuncObject``, so nothing is built against ``Python.h``) and hands
the C code that function pointer.  It then runs a probe
(:func:`_probe_error_probability`): the C evaluation must equal
:meth:`repro.ran.amc.BlerModel.error_probability_given_capacity` bit
for bit, or the kernel counts as unavailable.

When the library is unavailable — no compiler, a failed build or load,
an unresolved exp loop or a failed probe —
:func:`repro.ran.config.resolve_engine` runs every session on the
per-session reference engine instead (same bytes), and
:func:`kernel_status` says why, so the bench report can name the cause.

The build is cached under ``$REPRO_NATIVE_CACHE`` (default
``$XDG_CACHE_HOME/repro-native``) keyed by a source digest, so each
machine compiles once; concurrent builders race benignly through an
atomic rename, and worker processes just ``dlopen`` the cached library.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.xcal.records import COLUMN_DTYPES

#: Override the build cache directory (useful for hermetic CI runs).
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE"

_SOURCE = Path(__file__).with_name("_retx_kernel.c")

#: Compiler flags.  ``-ffp-contract=off`` keeps ``a * b + c`` two
#: rounded operations (as in Python) instead of one fused multiply-add
#: on FMA-capable targets; without it the rank EWMA and the OLLA update
#: drift from the Python engines in the last bit.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_state: dict[str, Any] = {"loaded": False, "fn": None, "exp": None,
                          "evaluate": None, "error": None, "fallback_sessions": 0}

_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_ptr = ctypes.c_void_p

#: ``repro_error_probability(eff, cap, n, bias, slope, exp_loop,
#: exp_data, out)``.
_ERROR_PROBABILITY_ARGTYPES = [_f64, _ptr, _i64, _f64, _f64, _ptr, _ptr, _ptr]


def _cache_dir() -> Path:
    env = os.environ.get(NATIVE_CACHE_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-native"


def _compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _build(source: Path, out: Path) -> None:
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (set CC to override)")
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out.parent, suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(source), "-lm"],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class _UFuncHead(ctypes.Structure):
    """The leading public fields of numpy's ``PyUFuncObject``
    (``numpy/ufuncobject.h``), which start right after the object
    header, at ``object.__basicsize__``."""

    _fields_ = [("nin", ctypes.c_int), ("nout", ctypes.c_int),
                ("nargs", ctypes.c_int), ("identity", ctypes.c_int),
                ("functions", ctypes.POINTER(_ptr)), ("data", ctypes.POINTER(_ptr)),
                ("ntypes", ctypes.c_int), ("reserved1", ctypes.c_int),
                ("name", ctypes.c_char_p), ("types", ctypes.POINTER(ctypes.c_char))]


def _float64_loop(ufunc: np.ufunc) -> tuple[int, int]:
    """``(functions[k], data[k])`` of ``ufunc``'s first inner loop whose
    operand types are all ``NPY_DOUBLE``: the function numpy calls for
    float64 arrays, already dispatched to this host's SIMD path."""
    head = _UFuncHead.from_address(id(ufunc) + object.__basicsize__)
    if ((head.nin, head.nout, head.nargs) != (ufunc.nin, ufunc.nout, ufunc.nargs)
            or head.name != ufunc.__name__.encode()):
        raise RuntimeError(f"np.{ufunc.__name__}: ufunc layout not recognized")
    want = bytes([np.dtype(np.float64).num]) * head.nargs
    for k in range(head.ntypes):
        if head.types[k * head.nargs:(k + 1) * head.nargs] == want:
            return head.functions[k], head.data[k] or 0
    raise RuntimeError(f"np.{ufunc.__name__} has no float64 loop")


def _exp_loop() -> tuple[int, int]:
    """numpy's float64 ``exp`` inner loop, as ``(function, data)``."""
    return _float64_loop(np.exp)


def _probe_error_probability(evaluate, exp: tuple[int, int]) -> None:
    """Raise ``RuntimeError`` unless ``repro_error_probability`` through
    ``exp`` equals :meth:`BlerModel.error_probability_given_capacity`
    bit for bit: every MCS efficiency, over windows of 1..64 slots laid
    end to end across capacities that reach both the saturated
    (p = 1.0) and the exp-overflow (p = 0.0) regions."""
    from repro.nr.mcs import MCS_TABLE_64QAM, MCS_TABLE_256QAM
    from repro.ran.amc import BlerModel

    bler = BlerModel()
    effs = sorted({entry.spectral_efficiency
                   for table in (MCS_TABLE_64QAM, MCS_TABLE_256QAM) for entry in table})
    bounds = np.cumsum(np.arange(65))  # window w covers [bounds[w-1], bounds[w])
    cap = np.random.default_rng(0).uniform(-80.0, 90.0, int(bounds[-1]))
    expected, got = np.empty(cap.size), np.empty(cap.size)
    windows = [(lo * cap.itemsize, hi - lo)
               for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    cap_at, got_at = cap.ctypes.data, got.ctypes.data
    for eff in effs:
        with np.errstate(over="ignore"):
            bler.error_probability_given_capacity(eff, cap, out=expected)
        for offset, n in windows:
            evaluate(eff, cap_at + offset, n, bler.bias, bler.slope, *exp, got_at + offset)
        if got.tobytes() != expected.tobytes():
            raise RuntimeError("repro_error_probability differs from "
                               f"BlerModel.error_probability_given_capacity at eff={eff}")


def load_kernel():
    """The compiled period loop ``repro_run_periods``, or ``None`` when
    unavailable.

    First call compiles (or reuses the cached build) the library,
    resolves numpy's exp loop for the period loop and probes it; it
    memoizes the outcome — including failures, so a broken toolchain
    costs one attempt per process, not one per session.

    ``loop(ctypes.byref(state))`` runs periods ``[state.p, n_periods)``
    and returns :data:`LOOP_DONE`, or :data:`NEED_ROOM` (widen the HARQ
    lane, call again).  ``state.exp_loop`` / ``state.exp_data`` must
    hold :func:`exp_loop`.
    """
    if _state["loaded"]:
        return _state["fn"]
    _state["loaded"] = True
    try:
        src = _SOURCE.read_bytes()
        tag = hashlib.sha256(src + " ".join(_CFLAGS).encode()).hexdigest()[:16]
        lib_path = _cache_dir() / f"retx-{tag}.so"
        if not lib_path.exists():
            _build(_SOURCE, lib_path)
        lib = ctypes.CDLL(str(lib_path))
        loop = lib.repro_run_periods
        loop.restype = _i64
        loop.argtypes = [ctypes.POINTER(SessionLoop)]
        evaluate = lib.repro_error_probability
        evaluate.restype = None
        evaluate.argtypes = _ERROR_PROBABILITY_ARGTYPES
        try:
            exp = _exp_loop()
            _probe_error_probability(evaluate, exp)
        except Exception as exc:  # noqa: BLE001 - name the exp loop in the error
            raise RuntimeError(f"numpy exp loop unusable: {exc}") from exc
    except Exception as exc:  # noqa: BLE001 - any failure means no kernel
        _state["error"] = f"{type(exc).__name__}: {exc}"
        return None
    _state["fn"] = loop
    _state["exp"] = exp
    _state["evaluate"] = evaluate
    return loop


def exp_loop() -> tuple[int, int]:
    """numpy's float64 exp inner loop ``(function, data)`` that the
    loaded kernel was probed with (only valid once it loaded)."""
    return _state["exp"]


def error_probability(eff: float, cap: np.ndarray, bias: float, slope: float,
                      out: np.ndarray) -> np.ndarray:
    """``repro_error_probability`` of the loaded kernel — the evaluation
    the period loop runs per period — over the contiguous float64 rows
    ``cap`` and ``out`` (same size)."""
    if cap.dtype != np.float64 or out.dtype != np.float64 or cap.size != out.size \
            or not (cap.flags.c_contiguous and out.flags.c_contiguous):
        raise TypeError("cap and out must be contiguous float64 rows of one size")
    _state["evaluate"](eff, cap.ctypes.data, cap.size, bias, slope, *_state["exp"],
                       out.ctypes.data)
    return out


#: ``repro_run_periods`` return codes.
LOOP_DONE = 0
NEED_ROOM = 1


#: Trace columns ``repro_run_periods`` writes, in ``session_t`` order;
#: column ``name`` is field ``t_<name>``.
TRACE_OUTPUTS = ("scheduled", "is_retx", "error", "n_prb", "n_re", "mcs_index",
                 "modulation_order", "layers", "tbs_bits", "delivered_bits",
                 "cqi", "dci_format")

#: ``session_t`` in declaration order: field names, ctypes type and, for
#: a row pointer, the numpy dtype of the row it points at and how many
#: elements the loop reads or writes there (``None`` for a scalar or a
#: function pointer; a LUT's length, ``None`` too, follows from the
#: shape constants bound with it).  A trace row takes its column's
#: schema dtype; ``bool`` is one byte.
_SESSION_LAYOUT = (
    ("n_slots period", _i64, None, None),
    ("measured", _ptr, np.float64, "n_periods"),
    ("cqi prb grant", _ptr, np.int64, "n_periods"),
    ("uniforms retx_uniforms", _ptr, np.float64, "n_slots"),
    ("usable special", _ptr, np.uint8, "n_slots"),
    ("eff_cap", _ptr, np.float64, "n_slots"),
    ("mcs_lut", _ptr, np.int64, None),
    ("n_off off_lo n_mcs", _i64, None, None),
    ("eff_lut", _ptr, np.float64, None),
    ("mod_lut tbs_full tbs_special", _ptr, np.int64, None),
    ("n_grants max_layers", _i64, None, None),
    ("rank_up rank_keep", _ptr, np.float64, None),
    ("n_rank_steps adapter_max", _i64, None, None),
    ("beta", _f64, None, None),
    ("olla_enabled", _i64, None, None),
    ("olla_up olla_down olla_lo olla_hi", _f64, None, None),
    ("is_qam256 dci_fallback_cqi rtt max_attempts", _i64, None, None),
    ("scale bias slope", _f64, None, None),
    ("exp_loop exp_data", _ptr, None, None),
    ("cap", _i64, None, None),
    ("due tbs att", _ptr, np.int64, None),
    ("ph", _ptr, np.float64, None),
    ("pending", _i64, None, None),
    ("pe", _ptr, np.float64, "period"),
    ("dec fm tx", _ptr, np.uint8, "period"),
    ("cum seg_col seg_lo seg_hi ev_col ev_slot ev_tbs", _ptr, np.int64, "period + 1"),
    ("ev_ok ev_retx", _ptr, np.uint8, "period + 1"),
    *((f"t_{name}", _ptr, COLUMN_DTYPES[name], "n_slots") for name in TRACE_OUTPUTS),
    ("p rank have_ewma", _i64, None, None),
    ("ewma delta", _f64, None, None),
)

#: Element dtype of every row pointer field of ``session_t``, by field name.
ROW_DTYPES: dict[str, np.dtype] = {
    name: np.dtype(dtype) for names, _, dtype, _ in _SESSION_LAYOUT
    if dtype is not None for name in names.split()}

#: The elements the loop reads or writes at a row pointer, by field
#: name: ``n_slots``, ``n_periods`` (``ceil(n_slots / period)``),
#: ``period`` or ``period + 1``.
ROW_LENGTHS: dict[str, str] = {
    name: length for names, _, _, length in _SESSION_LAYOUT
    if length is not None for name in names.split()}



class SessionLoop(ctypes.Structure):
    """``session_t`` of ``_retx_kernel.c``: one session's constants,
    array pointers and resumable loop state, bound once per session so
    each call passes one pointer.  Field order and types must match the
    C declaration (:data:`_SESSION_LAYOUT`)."""

    _fields_ = [(name, ctype) for names, ctype, _, _ in _SESSION_LAYOUT
                for name in names.split()]


def count_fallback() -> None:
    """Count one unpinned session that ran the reference engine because
    the kernel is unavailable (see :func:`kernel_status`); a session
    pinned there with ``REPRO_ENGINE=reference`` is not counted."""
    _state["fallback_sessions"] += 1


def kernel_status() -> dict[str, Any]:
    """Build/load outcome for diagnostics (stats, bench report), with the
    number of sessions this process ran on the no-kernel fallback."""
    return {
        "loaded": _state["loaded"],
        "available": _state["fn"] is not None,
        "error": _state["error"],
        "fallback_sessions": _state["fallback_sessions"],
    }
