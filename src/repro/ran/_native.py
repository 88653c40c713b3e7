"""Native retransmission kernel for the cohort tensor engine.

The cohort engine's dirty cells are dispatch-bound in numpy: one CQI
period advances ~25 columns through a handful of events each, and at
those sizes the per-ufunc dispatch cost dominates the arithmetic by two
orders of magnitude.  This module compiles ``_retx_kernel.c`` — a
transliteration of the per-session engine's retransmission walk with
byte-identical semantics — into a tiny shared library with the system
C compiler and loads it through :mod:`ctypes`.

The kernel is the cohort engine's only path for retransmission work.
When it is unavailable — no compiler, a failed build or a failed load —
:func:`repro.ran.config.resolve_engine` runs cohorts through the
per-session vectorized engine instead (same bytes), and
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

#: Override the build cache directory (useful for hermetic CI runs).
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE"

_SOURCE = Path(__file__).with_name("_retx_kernel.c")

_state: dict[str, Any] = {"loaded": False, "fn": None, "error": None}

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
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(source)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_kernel():
    """The compiled period kernel, or ``None`` when unavailable.

    First call compiles (or reuses the cached build) and memoizes the
    outcome — including failures, so a broken toolchain costs one
    attempt per process, not one per period.
    """
    if _state["loaded"]:
        return _state["fn"]
    _state["loaded"] = True
    try:
        src = _SOURCE.read_bytes()
        tag = hashlib.sha256(src).hexdigest()[:16]
        lib_path = _cache_dir() / f"retx-{tag}.so"
        if not lib_path.exists():
            _build(_SOURCE, lib_path)
        lib = ctypes.CDLL(str(lib_path))
        fn = lib.repro_retx_period
        fn.restype = _i64
        fn.argtypes = _ARGTYPES
    except Exception as exc:  # noqa: BLE001 - any failure means no kernel
        _state["error"] = f"{type(exc).__name__}: {exc}"
        return None
    _state["fn"] = fn
    return fn


def kernel_status() -> dict[str, Any]:
    """Build/load outcome for diagnostics (stats, bench report)."""
    return {
        "loaded": _state["loaded"],
        "available": _state["fn"] is not None,
        "error": _state["error"],
    }
