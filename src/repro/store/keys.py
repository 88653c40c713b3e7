"""Canonical session-task fingerprints.

A cache key must identify a session by *what it computes*: the session
function, its arguments, and its derived seed.  The fingerprint is a
SHA-256 over a canonical-JSON encoding of exactly those parts, salted
with a store schema version so a format or simulator-contract change
invalidates every stale entry at once.

Canonicalization rules:

- dataclasses encode as ``{"__dataclass__": qualified name, fields...}``
  over their *declared* fields (cached derived state is excluded);
- enums encode by qualified class name plus member name;
- dict keys sort, tuples/lists flatten to lists, numpy scalars and
  small numpy arrays collapse to their Python values;
- floats keep their shortest ``repr`` via ``json.dumps``;
- anything else raises :class:`UnfingerprintableTask` — the memoizing
  runner treats such tasks as uncacheable and simply executes them.

The resulting JSON depends only on values, never on ``PYTHONHASHSEED``,
insertion order, or which process computes it, so keys are stable
across workers, reruns and machines.  Execution strategy is likewise
invisible: a session computed inside a cohort tensor pass reuses its
per-session fingerprint, so cohort execution required no schema bump
and shares store entries with per-session runs.  All engines emit
identical bytes, and the one engine switch, ``REPRO_ENGINE``, is an
environment variable: no task field (``SimParams`` included) names an
engine, so no fingerprint can depend on one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

import numpy as np

__all__ = [
    "STORE_SCHEMA_VERSION",
    "UnfingerprintableTask",
    "canonical_json",
    "reduce_key",
    "task_fingerprint",
]

#: Bump to invalidate every existing store entry (format or simulator
#: contract change).  v2: the slot engines evaluate the BLER logistic on
#: whole CQI periods, so decode outcomes ride the platform's *vectorized*
#: ``exp`` — bit-identical to the scalar path everywhere we have checked,
#: but not something v1 entries were ever promised.
STORE_SCHEMA_VERSION = 2

#: Refuse to fingerprint arrays above this size: a huge array in task
#: kwargs signals the task is not manifest-shaped, and hashing it would
#: cost more than a cache hit saves.
_MAX_ARRAY_ELEMENTS = 65536


class UnfingerprintableTask(TypeError):
    """Raised when a task's kwargs contain values with no canonical form."""


def _canonical(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return {"__float__": repr(value)}
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{type(value).__module__}.{type(value).__qualname__}",
                "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {"__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
                "fields": {f.name: _canonical(getattr(value, f.name))
                           for f in dataclasses.fields(value)}}
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, np.ndarray):
        if value.size > _MAX_ARRAY_ELEMENTS:
            raise UnfingerprintableTask(
                f"array of {value.size} elements is too large to fingerprint")
        return {"__ndarray__": str(value.dtype), "shape": list(value.shape),
                "data": _canonical(value.ravel().tolist())}
    if isinstance(value, dict):
        items = {}
        for key in value:
            if not isinstance(key, str):
                raise UnfingerprintableTask(f"non-string dict key {key!r}")
            items[key] = _canonical(value[key])
        return dict(sorted(items.items()))
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        encoded = [_canonical(item) for item in value]
        try:
            return sorted(encoded, key=lambda item: json.dumps(item, sort_keys=True))
        except TypeError:
            raise UnfingerprintableTask(f"unsortable set {value!r}") from None
    raise UnfingerprintableTask(
        f"no canonical form for {type(value).__module__}.{type(value).__qualname__}")


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding of ``value`` (raises
    :class:`UnfingerprintableTask` for values with no canonical form)."""
    return json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def task_fingerprint(task: Any, *, salt: int = STORE_SCHEMA_VERSION) -> str:
    """Hex SHA-256 fingerprint of a :class:`~repro.core.runner.SessionTask`.

    Covers ``(fn qualname, canonical kwargs, seed, salt)`` — and nothing
    else: the display ``label`` is presentation, not identity.
    """
    fn = task.fn
    if getattr(fn, "__module__", None) is None or "<" in getattr(fn, "__qualname__", "<"):
        raise UnfingerprintableTask(f"{fn!r} is not a stable module-level callable")
    payload = {
        "salt": int(salt),
        "fn": f"{fn.__module__}:{fn.__qualname__}",
        "kwargs": _canonical(dict(task.kwargs)),
        "seed": None if task.seed is None else int(task.seed),
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def reduce_key(reduction_fingerprint: str, task_keys: list[str], *,
               salt: int = STORE_SCHEMA_VERSION) -> str:
    """Key of a *campaign-level* merged sketch.

    Covers the reduction configuration fingerprint plus every member
    task key in manifest order (order matters: the merged sketch is a
    left-fold), salted like session entries so schema bumps invalidate
    memoized sketches too.
    """
    payload = {
        "salt": int(salt),
        "reduce": reduction_fingerprint,
        "tasks": list(task_keys),
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
