"""Native slot kernel: the single-session period loop and the cohort
retransmission pass.

Both slot loops are dispatch-bound in Python and numpy: a CQI period
is ~20 slots, and at that size per-call and per-ufunc overhead
dominates the arithmetic by two orders of magnitude.  This module
compiles ``_retx_kernel.c`` — a transliteration of the reference
engine's period loop with byte-identical semantics — into a tiny shared
library with the system C compiler and loads it through :mod:`ctypes`.
The library has two entry points:

- ``repro_run_periods`` (:func:`load_period_loop`, state in
  :class:`SessionLoop`) runs a chunk of whole CQI periods of one
  session; :mod:`repro.ran.simulator` drives it.
- ``repro_retx_period`` (:func:`load_kernel`) advances the dirty
  columns of one period of the cohort tensor engine
  (:mod:`repro.ran.tensor`).

When the library is unavailable — no compiler, a failed build or a
failed load — :func:`repro.ran.config.resolve_engine` runs every
session on the per-session reference engine instead (same bytes), and
:func:`kernel_status` says why, so the bench report and the tensor
engine's error message can name the cause.

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

_state: dict[str, Any] = {"loaded": False, "fn": None, "loop": None, "error": None,
                          "fallback_sessions": 0}

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p

#: ``repro_retx_period`` signature — positional groups mirror the C
#: declaration: batched columns, lane state, per-call inputs, cohort
#: constants, outputs.
_ARGTYPES = [
    _i64, _ptr, _i64, _i64,                       # nb, bidx, start, stop
    _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _i64,     # cap, due, tbs, att, ph, pn, far
    _ptr, _ptr, _ptr, _ptr,                       # failm, case, tbsf, tbss
    _i64, _ptr, _ptr, _ptr, _i64,                 # n_slots, retx2, decoded2, perr2, stride
    _ptr, _ptr, _ptr,                             # cum4, usable, special
    _i64, ctypes.c_double, _i64,                  # rtt, scale, max_attempts
    _ptr, _ptr,                                   # acks, nacks
    _ptr, _ptr, _ptr,                             # seg col/lo/hi
    _ptr, _ptr, _ptr, _ptr, _ptr,                 # ev col/slot/tbs/ok/retx
    _ptr,                                         # counts
]


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


def load_kernel():
    """The compiled cohort retx kernel, or ``None`` when unavailable.

    First call compiles (or reuses the cached build) the whole library,
    both entry points, and memoizes the outcome — including failures,
    so a broken toolchain costs one attempt per process, not one per
    period.
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
        fn = lib.repro_retx_period
        fn.restype = _i64
        fn.argtypes = _ARGTYPES
        loop = lib.repro_run_periods
        loop.restype = _i64
        loop.argtypes = [ctypes.POINTER(SessionLoop), _i64, _i64]
    except Exception as exc:  # noqa: BLE001 - any failure means no kernel
        _state["error"] = f"{type(exc).__name__}: {exc}"
        return None
    _state["fn"] = fn
    _state["loop"] = loop
    return fn


def load_period_loop():
    """The compiled single-session period loop, or ``None`` when
    unavailable (same library and memoized outcome as
    :func:`load_kernel`).

    ``loop(ctypes.byref(state), chunk_lo, chunk_hi)`` runs periods
    ``[state.p, chunk_hi)`` and returns :data:`CHUNK_DONE`,
    :data:`NEED_ROOM` (widen the HARQ lane, call again) or the index of
    an error-probability row the next period needs (fill a buffer over
    the chunk, point ``row_ptr[row]`` at it, call again).
    """
    if load_kernel() is None:
        return None
    return _state["loop"]


#: ``repro_run_periods`` return codes; any value >= 0 is a row request.
CHUNK_DONE = -1
NEED_ROOM = -2

_f64 = ctypes.c_double


#: Trace columns ``repro_run_periods`` writes, in ``session_t`` order;
#: column ``name`` is field ``t_<name>``.
TRACE_OUTPUTS = ("scheduled", "is_retx", "error", "n_prb", "n_re", "mcs_index",
                 "modulation_order", "layers", "tbs_bits", "delivered_bits",
                 "cqi", "dci_format")

#: ``session_t`` in declaration order: field names, ctypes type and, for
#: a pointer, the numpy dtype of the row it points at (``None`` for a
#: scalar).  A trace row takes its column's schema dtype; ``bool`` is
#: one byte.
_SESSION_LAYOUT = (
    ("n_slots period", _i64, None),
    ("measured", _ptr, np.float64),
    ("cqi prb grant", _ptr, np.int64),
    ("uniforms retx_uniforms", _ptr, np.float64),
    ("usable special", _ptr, np.uint8),
    ("mcs_lut", _ptr, np.int64),
    ("n_off off_lo n_mcs", _i64, None),
    ("mod_lut tbs_full tbs_special", _ptr, np.int64),
    ("n_grants max_layers", _i64, None),
    ("rank_up rank_keep", _ptr, np.float64),
    ("n_rank_steps adapter_max", _i64, None),
    ("beta", _f64, None),
    ("olla_enabled", _i64, None),
    ("olla_up olla_down olla_lo olla_hi", _f64, None),
    ("is_qam256 dci_fallback_cqi rtt max_attempts", _i64, None),
    ("scale", _f64, None),
    ("row_ptr", _ptr, np.uintp),
    ("cap", _i64, None),
    ("due tbs att", _ptr, np.int64),
    ("ph", _ptr, np.float64),
    ("pending", _i64, None),
    ("dec fm tx", _ptr, np.uint8),
    ("cum seg_col seg_lo seg_hi ev_col ev_slot ev_tbs", _ptr, np.int64),
    ("ev_ok ev_retx", _ptr, np.uint8),
    *((f"t_{name}", _ptr, COLUMN_DTYPES[name]) for name in TRACE_OUTPUTS),
    ("p rank have_ewma", _i64, None),
    ("ewma delta", _f64, None),
)

#: Element dtype of every pointer field of ``session_t``, by field name.
ROW_DTYPES: dict[str, np.dtype] = {
    name: np.dtype(dtype) for names, _, dtype in _SESSION_LAYOUT
    if dtype is not None for name in names.split()}


class SessionLoop(ctypes.Structure):
    """``session_t`` of ``_retx_kernel.c``: one session's constants,
    array pointers and resumable loop state, bound once per session so
    each call passes one pointer.  Field order and types must match the
    C declaration (:data:`_SESSION_LAYOUT`)."""

    _fields_ = [(name, ctype) for names, ctype, _ in _SESSION_LAYOUT
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
