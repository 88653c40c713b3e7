"""Outside-in timing spans around the program's layers.

The benchmark does not edit the program, so tracing is installed from
outside.  :func:`install` replaces every entry point listed in
:data:`LAYER_TARGETS` with a timing wrapper:

- a module-level function is rebound in every loaded ``repro.*`` module
  whose attribute *is* the original object, so ``from x import f``
  copies are covered as well as ``x.f``;
- a method is replaced on its class;
- a call that returns a generator (the cohort tensor pass) is timed
  over its full drain: the call itself plus every ``next()``.

Spans nest per thread.  A layer's ``self_s`` is its total minus the
time covered by the spans opened inside it, so the self times of one
process add up to the wall time its top-level spans cover.

Wrappers must be installed before a process pool forks: forked workers
inherit them, start from empty aggregates, and write their aggregates to
``<trace_dir>/<pid>.json`` when they exit (``multiprocessing.util``
finalizer).  :meth:`Tracer.collect` merges those files into the
parent's totals once the pool has shut down.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Layer name -> entry points, as ``"module:qualname"``.  Functions that
#: serve as session-task ``fn`` (``run_session``, ``dl_trace``, ...) are
#: deliberately absent: the runner and the store identify tasks by those
#: function objects, and the calls they make are traced one level down.
LAYER_TARGETS: dict[str, tuple[str, ...]] = {
    "ran.simulator": ("repro.ran.simulator:simulate_downlink",
                      "repro.ran.simulator:simulate_uplink",
                      "repro.ran.simulator:simulate_downlink_multi"),
    "ran.ca": ("repro.ran.ca:CarrierAggregation.simulate_downlink",),
    "channel": ("repro.channel.model:ChannelModel.realize",
                "repro.channel.model:SyntheticChannel.realize"),
    "ran.tensor": ("repro.ran.tensor:simulate_downlink_cohort",
                   "repro.ran.tensor:simulate_uplink_cohort"),
    "apps": ("repro.apps.video.player:StreamingSession.run",
             "repro.apps.iperf:run_iperf_dl",
             "repro.apps.iperf:run_iperf_ul"),
    "core.runner": ("repro.core.runner:run_tasks",),
    # Worker-side chunk bodies: the only way to see how busy workers are.
    "core.runner.worker": ("repro.core.runner:_execute_chunk_plain",
                           "repro.core.runner:_execute_chunk_routed",
                           "repro.core.runner:_execute_chunk_reduced",
                           "repro.core.runner:_execute_chunk_shm"),
    "store.get": ("repro.store.backend:TraceStore.get",
                  "repro.store.backend:TraceStore.read"),
    "store.put": ("repro.store.backend:TraceStore.put",),
    "store.task_key": ("repro.store.backend:TraceStore.task_key",),
}

#: Layers whose calls return a generator that does the work lazily.
_GENERATOR_LAYERS = frozenset({"ran.tensor"})

_DONE = object()


def _n_slots(result: Any) -> int:
    if isinstance(result, (list, tuple)):
        return sum(len(trace) for trace in result)
    return len(result)


def _counts(layer: str, args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    """Work counted at a layer boundary, from a call's arguments and result."""
    if layer == "ran.simulator":
        return {"slots": _n_slots(result)}
    if layer == "channel":
        return {"slots": result.n_slots}
    if layer == "core.runner":
        return {"tasks": len(args[0])}
    return {}


class Tracer:
    """Per-process span aggregates: ``layer -> {calls, total_s, child_s, ...}``."""

    def __init__(self, trace_dir: str | Path | None = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.clock = clock
        self._reset()

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.agg: dict[str, dict[str, float]] = {}
        self.baseline = program_counters()

    # -- spans ---------------------------------------------------------- #
    def begin(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [self.clock(), 0.0]  # start, time covered by child spans
        stack.append(frame)
        return frame

    def end(self, layer: str, frame: list, calls: int = 1) -> float:
        elapsed = self.clock() - frame[0]
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        self.add(layer, calls=calls, total_s=elapsed, child_s=frame[1])
        return elapsed

    def add(self, layer: str, **counts: float) -> None:
        with self._lock:
            record = self.agg.setdefault(layer, {})
            for key, value in counts.items():
                record[key] = record.get(key, 0) + value

    def span(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside one span of ``layer``."""
        frame = self.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(layer, frame)

    def self_s(self) -> float:
        """Sum of this process's span self times (the wall they cover)."""
        return sum(r.get("total_s", 0.0) - r.get("child_s", 0.0)
                   for r in self.agg.values())

    # -- wrappers ------------------------------------------------------- #
    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if layer in _GENERATOR_LAYERS:
            return self._wrap_generator(layer, fn)
        if layer.startswith("store."):
            return self._wrap_store(layer, fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if layer == "core.runner" and args:
                args = (list(args[0]),) + args[1:]  # count without draining
            frame = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(layer, frame)
            counts = _counts(layer, args, kwargs, result)
            if counts:
                self.add(layer, **counts)
            return result

        return wrapper

    def _wrap_generator(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        def drain(iterator: Any) -> Any:
            while True:
                frame = tracer.begin()
                try:
                    item = next(iterator, _DONE)
                finally:
                    tracer.end(layer, frame, calls=0)
                if item is _DONE:
                    return
                tracer.add(layer, slots=len(item))
                yield item

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(layer, frame)
            channels = kwargs["channels"] if "channels" in kwargs else args[1]
            tracer.add(layer, columns=len(channels))
            return drain(iter(result))

        return wrapper

    def _wrap_store(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Also counts the payload bytes moved and, for ``get``, hits
        and misses (a miss raises ``KeyError``)."""
        counter = "bytes_written" if layer == "store.put" else "bytes_read"
        is_get = fn.__name__ == "get"
        tracer = self

        @functools.wraps(fn)
        def wrapper(store: Any, *args: Any, **kwargs: Any) -> Any:
            before = getattr(store, counter)
            frame = tracer.begin()
            try:
                result = fn(store, *args, **kwargs)
            except KeyError:
                if is_get:
                    tracer.add(layer, misses=1)
                raise
            finally:
                tracer.end(layer, frame)
            tracer.add(layer, bytes=getattr(store, counter) - before, hits=int(is_get))
            return result

        return wrapper

    # -- cross-process merge -------------------------------------------- #
    def snapshot(self) -> dict[str, Any]:
        """This process's aggregates plus program-counter deltas."""
        now = program_counters()
        with self._lock:
            layers = {name: dict(record) for name, record in self.agg.items()}
        return {
            "layers": layers,
            "counters": {key: now[key] - self.baseline[key] for key in now
                         if key != "native_available"},
            "native_available": now["native_available"],
        }

    def flush(self) -> None:
        """Write this process's snapshot to ``<trace_dir>/<pid>.json``."""
        if self.trace_dir is None:
            return
        path = self.trace_dir / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    def collect(self) -> dict[str, Any]:
        """Parent snapshot merged with every worker file written so far."""
        merged = self.snapshot()
        if self.trace_dir is None:
            return merged
        for path in sorted(self.trace_dir.glob("*.json")):
            merge_snapshot(merged, json.loads(path.read_text()))
        return merged


def merge_snapshot(into: dict[str, Any], other: dict[str, Any]) -> None:
    """Add ``other``'s aggregates and counters into ``into``."""
    for name, record in other["layers"].items():
        target = into["layers"].setdefault(name, {})
        for key, value in record.items():
            target[key] = target.get(key, 0) + value
    for key, value in other["counters"].items():
        into["counters"][key] = into["counters"].get(key, 0) + value
    into["native_available"] = max(into["native_available"], other["native_available"])


def program_counters() -> dict[str, float]:
    """The program's own process-wide counters (tensor pass, TBS cache,
    native kernel), read through their public accessors."""
    from repro.nr.tbs import tbs_matrix_cache_stats
    from repro.ran._native import kernel_status
    from repro.ran.tensor import cohort_stats

    counters: dict[str, float] = {f"tensor.{key}": value
                                  for key, value in cohort_stats().items()}
    tbs = tbs_matrix_cache_stats()
    counters["tbs.hits"] = tbs["hits"]
    counters["tbs.misses"] = tbs["misses"]
    counters["native_available"] = int(bool(kernel_status()["available"]))
    return counters


#: Experiments whose wall time is reported on its own (the long-session
#: ones plus the campaign-backed Table 1).
REPORTED_EXPERIMENTS = ("fig19", "fig24", "fig17", "fig15", "fig18", "fig07", "table1")

#: Per-layer metrics: ``(name, unit, better)``, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("experiments.self_s", "s", "lower"),
    *((f"experiments.{eid}.wall_s", "s", "lower") for eid in REPORTED_EXPERIMENTS),
    ("ran.simulator.calls", "count", "lower"),
    ("ran.simulator.slots", "count", "lower"),
    ("ran.simulator.self_s", "s", "lower"),
    ("ran.simulator.slots_per_s", "1/s", "higher"),
    ("ran.ca.calls", "count", "lower"),
    ("ran.ca.self_s", "s", "lower"),
    ("channel.calls", "count", "lower"),
    ("channel.slots", "count", "lower"),
    ("channel.self_s", "s", "lower"),
    ("ran.tensor.cohorts", "count", "lower"),
    ("ran.tensor.columns", "count", "lower"),
    ("ran.tensor.self_s", "s", "lower"),
    ("ran.tensor.slots_per_s", "1/s", "higher"),
    ("ran.tensor.dirty_frac", "ratio", "lower"),
    ("ran.tensor.residual_frac", "ratio", "lower"),
    ("ran.tensor.native_frac", "ratio", "higher"),
    ("ran.tensor.predraw_s", "s", "lower"),
    ("ran.tensor.pass_s", "s", "lower"),
    ("ran.tensor.batched_s", "s", "lower"),
    ("ran.tensor.flush_s", "s", "lower"),
    ("ran.native.available", "flag", "higher"),
    ("nr.tbs.misses", "count", "lower"),
    ("nr.tbs.hit_ratio", "ratio", "higher"),
    ("apps.calls", "count", "lower"),
    ("apps.self_s", "s", "lower"),
    ("core.runner.calls", "count", "lower"),
    ("core.runner.tasks", "count", "lower"),
    ("core.runner.self_s", "s", "lower"),
    ("core.runner.worker_busy_frac", "ratio", "higher"),
    ("core.runner.shm_leaked", "count", "lower"),
    ("store.get.calls", "count", "lower"),
    ("store.get.self_s", "s", "lower"),
    ("store.get.mb_per_s", "MB/s", "higher"),
    ("store.task_key.self_s", "s", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.put.calls", "count", "lower"),
    ("store.put.self_s", "s", "lower"),
    ("store.bytes_written", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snapshot: dict[str, Any], wall_s: float, attributed_s: float,
                  workers: int, experiment_walls: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced repetition, except
    the two the caller measures across repetitions
    (``trace.overhead_frac``, ``core.runner.shm_leaked``).

    ``snapshot`` is the merged parent-plus-workers :meth:`Tracer.collect`
    result; ``attributed_s`` is the parent's span self time within the
    timed body of ``wall_s`` seconds.
    """
    layers, counters = snapshot["layers"], snapshot["counters"]

    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    def self_s(layer: str) -> float:
        return get(layer, "total_s") - get(layer, "child_s")

    m: dict[str, float] = {"experiments.self_s": self_s("experiments")}
    for eid in REPORTED_EXPERIMENTS:
        m[f"experiments.{eid}.wall_s"] = experiment_walls.get(eid, 0.0)
    for layer in ("ran.simulator", "channel"):
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.slots"] = get(layer, "slots")
        m[f"{layer}.self_s"] = self_s(layer)
    m["ran.simulator.slots_per_s"] = _ratio(get("ran.simulator", "slots"),
                                            self_s("ran.simulator"))
    m["ran.ca.calls"] = get("ran.ca", "calls")
    m["ran.ca.self_s"] = self_s("ran.ca")
    m["ran.tensor.cohorts"] = get("ran.tensor", "calls")
    m["ran.tensor.columns"] = get("ran.tensor", "columns")
    m["ran.tensor.self_s"] = self_s("ran.tensor")
    m["ran.tensor.slots_per_s"] = _ratio(get("ran.tensor", "slots"), self_s("ran.tensor"))
    m["ran.tensor.dirty_frac"] = _ratio(counters.get("tensor.dirty_periods", 0),
                                        counters.get("tensor.cells", 0))
    m["ran.tensor.residual_frac"] = _ratio(counters.get("tensor.residual_periods", 0),
                                           counters.get("tensor.dirty_periods", 0))
    m["ran.tensor.native_frac"] = _ratio(counters.get("tensor.native_periods", 0),
                                         counters.get("tensor.batched_periods", 0))
    for phase in ("predraw_s", "pass_s", "batched_s", "flush_s"):
        m[f"ran.tensor.{phase}"] = counters.get(f"tensor.{phase}", 0.0)
    m["ran.native.available"] = snapshot["native_available"]
    hits, misses = counters.get("tbs.hits", 0), counters.get("tbs.misses", 0)
    m["nr.tbs.misses"] = misses
    m["nr.tbs.hit_ratio"] = _ratio(hits, hits + misses)
    m["apps.calls"] = get("apps", "calls")
    m["apps.self_s"] = self_s("apps")
    m["core.runner.calls"] = get("core.runner", "calls")
    m["core.runner.tasks"] = get("core.runner", "tasks")
    m["core.runner.self_s"] = self_s("core.runner") + self_s("core.runner.worker")
    m["core.runner.worker_busy_frac"] = _ratio(get("core.runner.worker", "total_s"),
                                               workers * get("core.runner", "total_s"))
    m["store.get.calls"] = get("store.get", "calls")
    m["store.get.self_s"] = self_s("store.get")
    m["store.get.mb_per_s"] = _ratio(get("store.get", "bytes") / 1e6, self_s("store.get"))
    m["store.task_key.self_s"] = self_s("store.task_key")
    m["store.hit_ratio"] = _ratio(get("store.get", "hits"),
                                  get("store.get", "hits") + get("store.get", "misses"))
    m["store.put.calls"] = get("store.put", "calls")
    m["store.put.self_s"] = self_s("store.put")
    m["store.bytes_written"] = get("store.put", "bytes")
    m["trace.unattributed_frac"] = _ratio(wall_s - attributed_s, wall_s)
    return m


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``"module:Class.attr"`` -> (owner object, attribute name, original)."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def _after_fork(tracer: Tracer) -> None:
    tracer._reset()
    multiprocessing.util.Finalize(tracer, tracer.flush, exitpriority=10)


def install(trace_dir: str | Path) -> Tracer:
    """Wrap every :data:`LAYER_TARGETS` entry point; returns the tracer.

    Call once per process, after the program's modules are imported
    and before any process pool forks.
    """
    tracer = Tracer(trace_dir)
    for layer, targets in LAYER_TARGETS.items():
        for target in targets:
            owner, name, original = _resolve(target)
            wrapper = tracer.wrap(layer, original)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or not (module_name == "repro"
                                          or module_name.startswith("repro.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    multiprocessing.util.register_after_fork(tracer, _after_fork)
    return tracer
