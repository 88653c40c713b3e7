"""Process-parallel session execution with hierarchical seed derivation.

The campaign and experiment layers replay many independent measurement
sessions.  This module gives them one execution engine:

1. **Manifest expansion** — a campaign or multi-session experiment is
   flattened into a list of :class:`SessionTask` descriptors.  Each task
   is a picklable ``(fn, kwargs)`` pair that is fully self-contained:
   everything the session needs, including its RNG seed, travels inside
   the descriptor.
2. **Seed derivation** — :func:`derive_seed` maps a root seed plus a
   stable spawn key onto an independent child seed through
   ``numpy.random.SeedSequence``.  Children are statistically
   independent streams, and a child depends only on ``(root, key)`` —
   never on how many siblings exist or in which order they run.  That
   is what makes per-session traces reproducible in isolation.
3. **Dispatch** — :func:`run_tasks` executes the manifest serially
   (``jobs=1``, the default) or on a ``ProcessPoolExecutor``
   (``jobs=N`` or ``jobs="auto"``) with adaptive chunking.  Results
   come back in manifest order, so outputs are bit-identical for every
   worker count.
4. **Memoization and the shm transport** — ``run_tasks(...,
   store=...)`` splits the manifest once into store hits and misses and
   then makes one ordered sweep over it: a hit is read from disk when
   the sweep reaches it (the process pool is never started when
   everything hits), a miss comes from one stream of executed chunks.
   Every lookup counts once, as a hit or a miss.  Parallel results move
   through ``multiprocessing.shared_memory``: a worker flushes its
   cohort straight into a shared-memory trace arena
   (:class:`repro.xcal.arena.CohortArena`) and ships only
   ``(segment name, layout, row index)`` over the pipe; the parent
   re-attaches and materializes traces as zero-copy numpy views.
   Workers hold the run's store (the executor must be opened on it) and
   write their keyed results into it (write-behind on a writer thread),
   so the parent only maps shared memory and never reads a result back
   from disk.  ``transport="pipe"`` forces the legacy
   pickle-the-result path (kept for benchmarks and cross-checks; there
   the parent writes), which is also the fallback on platforms without
   POSIX shm; results are byte-identical either way.
5. **Pool reuse** — :class:`CampaignExecutor` keeps one warm process
   pool alive across many ``run_tasks`` calls (a whole ``repro
   campaign`` / multi-experiment ``repro run``), with a worker
   initializer that opens the per-worker store handle once and
   pre-warms the TBS lookup-matrix cache.  A transient pool of a
   ``jobs>1`` call gets the same initializer, except under the pipe
   transport, whose workers write nothing.
6. **Streaming reduction** — ``run_tasks(..., reduce=...)`` runs the
   same sweep but folds instead of storing: each worker folds its
   session results into per-task sketches and ships only those; the
   parent folds hits itself and left-merges every sketch in manifest
   order, so the merge tree — and therefore the output, byte for byte
   — is independent of worker count and transport, and peak memory is
   bounded by one in-flight trace per worker instead of the campaign
   size.  With a store, the merged campaign-level sketch is itself
   memoized under a key covering the reduction config and every member
   task; its lookup counts as one more hit or miss.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import weakref
import zlib
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

try:  # POSIX shm transport backend; absent on some minimal platforms
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _shm = None

__all__ = [
    "CampaignExecutor",
    "SessionTask",
    "derive_seed",
    "derive_seeds",
    "dispatch_chunksize",
    "group_tasks_by_shape",
    "prewarm_worker_caches",
    "register_cohort_runner",
    "release_shm_segments",
    "resolve_jobs",
    "run_tasks",
    "shm_transport_available",
]

#: Cap on the number of tasks batched into one worker round-trip.  Keeps
#: chunks small enough that a warm pool load-balances many-small-task
#: manifests while still amortizing the per-message IPC cost.
_MAX_CHUNK = 32

#: Cohort chunk bounds.  A cohort chunk is executed as one tensor pass,
#: so it is worth inflating small chunk sizes up to ``_COHORT_MIN_CHUNK``
#: (the batching win dwarfs the lost load-balancing granularity) and
#: capping at ``_COHORT_MAX_CHUNK`` to bound per-worker tensor memory.
#: The batched dirty-cell pass made the per-period cost mostly fixed
#: numpy dispatch, so wide cohorts amortize it: 64 columns halve the
#: period-loop overhead of 32 at ~40 MB of extra per-worker tensors.
_COHORT_MIN_CHUNK = 64
_COHORT_MAX_CHUNK = 128


def _key_part(part: int | str) -> int:
    """Normalize one spawn-key component to a stable non-negative int.

    Strings hash through CRC-32 so a key like an operator name yields
    the same child seed no matter which other operators are present.
    """
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    part = int(part)
    if part < 0:
        raise ValueError("spawn-key components must be non-negative")
    return part


def derive_seed(root_seed: int, *spawn_key: int | str) -> int:
    """Derive an independent child seed from ``root_seed``.

    The child is ``SeedSequence(root_seed, spawn_key=...)`` collapsed to
    a single integer, so it can be recorded in trace metadata and fed
    back to ``numpy.random.default_rng`` to regenerate the session.
    """
    key = tuple(_key_part(p) for p in spawn_key)
    sequence = np.random.SeedSequence(root_seed, spawn_key=key)
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def derive_seeds(root_seed: int, n: int, *prefix: int | str) -> list[int]:
    """Child seeds for sessions ``0..n-1`` under an optional key prefix."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [derive_seed(root_seed, *prefix, index) for index in range(n)]


@dataclass(frozen=True)
class SessionTask:
    """One entry of a session manifest.

    ``fn`` must be a module-level callable and ``kwargs`` picklable, so
    the task can cross a process boundary.  When ``seed`` is set it is
    passed to ``fn`` as the ``seed`` keyword argument.
    """

    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed: int | None = None
    label: str = ""

    def execute(self) -> Any:
        kwargs = dict(self.kwargs)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return self.fn(**kwargs)

    def with_seed(self, root_seed: int, *key: int | str) -> "SessionTask":
        """A copy of this task carrying ``derive_seed(root_seed, *key)``.

        Manifest builders repeat the derive-then-replace dance for every
        session; this keeps the derivation next to the task so label and
        kwargs cannot drift from the seed key.
        """
        return dataclasses.replace(self, seed=derive_seed(root_seed, *key))


# ---------------------------------------------------------------------- #
# Cohort execution
# ---------------------------------------------------------------------- #
# Session functions can register a *cohort runner*: a callable with the
# same kwargs plus ``seeds=[...]`` that returns one result per seed, in
# order, each byte-identical to ``fn(**kwargs, seed=seed)``.  Dispatch
# then executes a maximal run of same-shape tasks as one cohort call
# (e.g. the cross-session tensor pass of :mod:`repro.ran.tensor`)
# instead of task by task.  Registration happens at module import, so
# workers that unpickle the task's ``fn`` register it too.

_COHORT_RUNNERS: dict[Callable[..., Any],
                      tuple[Callable[..., Iterable[Any]], bool]] = {}


def register_cohort_runner(fn: Callable[..., Any],
                           cohort_fn: Callable[..., Iterable[Any]],
                           accepts_arena: bool = False) -> None:
    """Register ``cohort_fn(seeds=[...], **kwargs)`` as the batched
    executor for same-shape runs of ``fn`` tasks.

    ``cohort_fn`` must yield exactly ``len(seeds)`` results in seed
    order, each byte-identical to the corresponding per-task
    ``fn(**kwargs, seed=seed)`` call — dispatch treats the two paths as
    interchangeable.  ``accepts_arena=True`` declares that the runner
    takes an ``arena_factory`` keyword (see
    :class:`repro.xcal.arena.CohortArena`); materializing dispatch
    paths then pass one so the cohort flush writes a whole arena at
    once instead of building traces column by column.
    """
    _COHORT_RUNNERS[fn] = (cohort_fn, accepts_arena)


def _same_shape(a: SessionTask, b: SessionTask) -> bool:
    """Whether two tasks differ only in seed (cohortable together)."""
    return (a.fn is b.fn and a.seed is not None and b.seed is not None
            and a.kwargs == b.kwargs)


def group_tasks_by_shape(tasks: Sequence[SessionTask]) -> list[list[int]]:
    """Partition a manifest into maximal runs of same-shape tasks.

    Returns index groups, in manifest order, where every group is a
    maximal *consecutive* run of tasks sharing ``fn`` (by identity) and
    ``kwargs`` (by value) with per-task seeds.  Consecutive-only
    grouping keeps the partition deterministic and order-preserving —
    group boundaries depend only on the manifest, never on jobs count,
    transport, or which tasks hit the store — which is what makes
    cohort-executed output bit-identical to the per-task path.
    Campaign manifests emit sessions of one (operator, direction) pair
    consecutively, so the natural cohorts are already contiguous.
    """
    groups: list[list[int]] = []
    current: list[int] = []
    for index, task in enumerate(tasks):
        if current and _same_shape(tasks[current[-1]], task):
            current.append(index)
        else:
            if current:
                groups.append(current)
            current = [index]
    if current:
        groups.append(current)
    return groups


def _cohortable(tasks: Sequence[SessionTask]) -> bool:
    """Whether an (already same-shape-grouped) chunk runs as a cohort."""
    return (len(tasks) >= 2 and tasks[0].fn in _COHORT_RUNNERS
            and all(_same_shape(tasks[0], task) for task in tasks[1:]))


def _local_arena_factory(n_cols: int, n_slots: int, mu) -> Any:
    """Default arena factory for materializing consumers: a private
    heap-backed :class:`~repro.xcal.arena.CohortArena`."""
    from repro.xcal.arena import CohortArena

    return CohortArena.allocate(n_cols, n_slots, mu)


def _chunk_values(chunk: list[tuple[int, SessionTask, str | None]],
                  arena_factory: Callable[..., Any] | None = None,
                  ) -> Iterable[tuple[int, SessionTask, str | None, Any]]:
    """Yield ``(index, task, key, value)`` for one dispatch chunk.

    A chunk of same-shape tasks with a registered cohort runner executes
    as one cohort call; values stream out lazily (the tensor pass
    flushes one column trace per ``next()``), so a consumer that folds
    or writes each value before advancing holds at most one result.
    Everything else executes task by task.

    ``arena_factory`` is forwarded to cohort runners registered with
    ``accepts_arena=True``: the cohort then flushes into one backing
    arena and yields zero-copy row views.  Streaming consumers (the
    reducing path) pass ``None`` to keep the one-live-trace memory
    bound.
    """
    tasks = [task for _, task, _ in chunk]
    if not _cohortable(tasks):
        for index, task, key in chunk:
            yield index, task, key, task.execute()
        return
    cohort_fn, accepts_arena = _COHORT_RUNNERS[tasks[0].fn]
    kwargs = dict(tasks[0].kwargs)
    if accepts_arena and arena_factory is not None:
        kwargs["arena_factory"] = arena_factory
    values = iter(cohort_fn(seeds=[task.seed for task in tasks], **kwargs))
    for index, task, key in chunk:
        try:
            value = next(values)
        except StopIteration:
            raise RuntimeError(
                f"cohort runner for {tasks[0].fn!r} yielded fewer results "
                f"than seeds") from None
        yield index, task, key, value
    sentinel = object()
    if next(values, sentinel) is not sentinel:
        raise RuntimeError(
            f"cohort runner for {tasks[0].fn!r} yielded more results than seeds")


def _grouped_chunks(entries: Iterable[tuple[int, SessionTask, str | None]],
                    chunksize: int) -> Iterator[list[tuple[int, SessionTask, str | None]]]:
    """Split dispatch entries into chunks along same-shape group lines.

    Runs with a registered cohort runner become dedicated chunks sized
    ``clamp(chunksize, _COHORT_MIN_CHUNK, _COHORT_MAX_CHUNK)`` so one
    worker executes a whole cohort slice as a single tensor pass;
    everything else batches at the plain chunk size.  Chunk contents
    (though not their parallel completion order) depend only on the
    entry sequence, and every chunk preserves entry order, so ordered
    consumers see the same stream as a serial run.  Lazy: a chunk is
    yielded as soon as it is complete, so a streaming consumer holds at
    most one chunk's entries, never the manifest's.
    """
    plain_size = max(1, min(chunksize, _MAX_CHUNK))
    cohort_size = max(1, min(_COHORT_MAX_CHUNK, max(chunksize, _COHORT_MIN_CHUNK)))
    plain: list[tuple[int, SessionTask, str | None]] = []
    # The open same-shape run's entries not yet yielded, and whether it
    # is a cohort run (two or more entries with a cohort runner).  A
    # run of a cohort runner stays open on its first entry until the
    # next one shows whether it is a cohort or a lone plain task.
    run: list[tuple[int, SessionTask, str | None]] = []
    cohort = False
    last: SessionTask | None = None
    for entry in entries:
        task = entry[1]
        if last is not None and not _same_shape(last, task):
            if cohort:
                if run:
                    yield run
            else:
                plain += run
            run, cohort = [], False
        last = task
        run.append(entry)
        if not cohort and len(run) == 2 and task.fn in _COHORT_RUNNERS:
            cohort = True
            yield from _chunked(plain, plain_size)
            plain = []
        if cohort:
            if len(run) == cohort_size:
                yield run
                run = []
        elif task.fn not in _COHORT_RUNNERS:
            plain += run
            run = []
        while len(plain) >= plain_size:
            yield plain[:plain_size]
            plain = plain[plain_size:]
    if cohort:
        if run:
            yield run
    else:
        plain += run
    yield from _chunked(plain, plain_size)


def _execute_chunk_plain(chunk: list[tuple[int, SessionTask, str | None]]
                         ) -> list[tuple[int, Any]]:
    """Worker body for the pipe transport: ``(index, value)`` pairs."""
    return [(index, value) for index, _, _, value
            in _chunk_values(chunk, arena_factory=_local_arena_factory)]


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalize a ``--jobs`` value to a worker count (>= 1).

    Accepts an int, an int-valued string, ``"auto"`` (all cores the
    process may use) or ``None`` (same as 1).
    """
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            try:
                return max(1, len(os.sched_getaffinity(0)))
            except AttributeError:  # platforms without sched_getaffinity
                return max(1, os.cpu_count() or 1)
        try:
            jobs = int(jobs)
        except ValueError:
            raise ValueError(f"jobs must be an integer or 'auto', got {jobs!r}") from None
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return int(jobs)


def dispatch_chunksize(n_tasks: int, workers: int) -> int:
    """Adaptive chunk size for dispatching ``n_tasks`` to ``workers``.

    Aims for ~4 chunks per worker so stragglers rebalance, capped so a
    many-small-task manifest stops paying one IPC round-trip per task
    without serializing the whole manifest into one message.
    """
    if workers <= 1 or n_tasks <= workers:
        return 1
    return max(1, min(_MAX_CHUNK, n_tasks // (workers * 4)))


# ---------------------------------------------------------------------- #
# Worker-side state
# ---------------------------------------------------------------------- #
# One store handle per worker process, opened once by the pool
# initializer instead of per task; ``None`` in pools without a store.
# Worker-side writes go through a single-thread writer pool so npz
# encoding of session *i* overlaps the simulation of session *i+1*.

_WORKER_STORE: Any = None
_WORKER_WRITER: ThreadPoolExecutor | None = None


def prewarm_worker_caches() -> None:
    """Pre-build the TBS lookup matrices campaign sessions need.

    Every session starts by building the lookup matrix for its carrier's
    full grant; warming them in the pool initializer moves that cost out
    of the first task of every worker.  ``min_grant_fraction=0.88``
    also covers the background-load-trimmed grant sizes the cohort
    tensor path resolves up front (background mean + 2 sigma under the
    default :class:`~repro.ran.simulator.SimParams` trims ~9.5% of the
    full grant), so tensor cold runs pay no first-touch TBS builds in
    the timed region.
    """
    from repro.nr.tdd import SlotType
    from repro.operators.profiles import ALL_PROFILES
    from repro.ran.simulator import prewarm_tbs_matrices

    for profile in ALL_PROFILES.values():
        prewarm_tbs_matrices(profile.primary_cell, SlotType.DL,
                             min_grant_fraction=0.88)
        prewarm_tbs_matrices(profile.primary_cell, SlotType.UL,
                             max_layers=profile.ul_max_layers,
                             min_grant_fraction=0.88)


def _pool_initializer(store_config: tuple[str, int | None] | None) -> None:
    global _WORKER_STORE
    if store_config is not None:
        from repro.store import TraceStore

        _WORKER_STORE = TraceStore(store_config[0], max_bytes=store_config[1])
    prewarm_worker_caches()


def _writer_pool() -> ThreadPoolExecutor:
    global _WORKER_WRITER
    if _WORKER_WRITER is None:
        _WORKER_WRITER = ThreadPoolExecutor(max_workers=1)
    return _WORKER_WRITER


def _store_put_job(key: str, task: SessionTask, value: Any) -> tuple[bool, int]:
    """Writer-thread body: serialize + write one result, report
    ``(accepted, payload bytes)``.  Only this single thread touches
    ``bytes_written`` while a chunk is executing, so the delta is the
    write's own payload size."""
    before = _WORKER_STORE.bytes_written
    accepted = _WORKER_STORE.put(key, value, task=task)
    return accepted, _WORKER_STORE.bytes_written - before


class _WriteBehind:
    """Worker-side writes of keyed results into the worker's store.

    Each result's npz encode and disk write run on the single writer
    thread while the *next* task simulates, with at most one write
    pending (bounding the worker to two live results).  Entries without
    a key, or submitted in a worker without a store, are skipped.
    """

    def __init__(self) -> None:
        self.writes: list[tuple[int, bool, int]] = []
        self._pending: tuple[int, Any] | None = None

    def submit(self, index: int, task: SessionTask, key: str | None,
               value: Any) -> None:
        if key is None or _WORKER_STORE is None:
            return
        future = _writer_pool().submit(_store_put_job, key, task, value)
        self._wait()
        self._pending = (index, future)

    def _wait(self) -> None:
        if self._pending is not None:
            index, future = self._pending
            self._pending = None
            self.writes.append((index, *future.result()))

    def finish(self) -> list[tuple[int, bool, int]]:
        """Wait for every write; ``[(index, accepted, payload bytes)]``."""
        self._wait()
        if self.writes:
            # Once a no-op has run, the writer thread has dropped its
            # last job's arguments: no reference to a (possibly
            # shared-memory) result outlives the chunk.
            _writer_pool().submit(int).result()
        return self.writes


def _execute_chunk_routed(chunk: Any) -> None:
    """Retired worker body of the former store transport; never
    dispatched.

    Parallel runs with a store go through :func:`_execute_chunk_shm`
    with worker-side writes.  The name stays only because
    ``benchmarks/e2e/spans.py`` wraps it by name; remove it together
    with that entry.
    """
    raise RuntimeError("the store transport was retired")


def _execute_chunk_reduced(chunk: list[tuple[int, SessionTask, str | None]],
                           reduction: Any,
                           ) -> tuple[list[tuple[int, Any]], list[tuple[int, bool, int]]]:
    """Worker side of the reducing path.

    Each result folds into a per-task sketch; only ``(index, sketch)``
    pairs (a few KB each, independent of session length) cross the
    pipe, in chunk order.  Keyed results are *also* written to the
    worker's store (:class:`_WriteBehind`) — the campaign stays
    cache-warm for later exact runs — and the write outcomes return
    beside the sketches.
    """
    writer = _WriteBehind()
    sketches: list[tuple[int, Any]] = []
    for index, task, key, value in _chunk_values(chunk):
        sketches.append((index, reduction.fold(task, value)))
        writer.submit(index, task, key, value)
    return sketches, writer.finish()


# ---------------------------------------------------------------------- #
# Shared-memory transport
# ---------------------------------------------------------------------- #
# The pipe transport pays pickle + copy for every trace crossing a
# process boundary.  The shm transport does not: the worker's cohort
# pass flushes into a CohortArena allocated inside a POSIX
# shared-memory segment, only ``(segment name, layout, row index,
# metadata)`` crosses the pipe, and the parent re-attaches the segment
# and hands out zero-copy row views.  With a store, workers also write
# keyed results to it from the arena rows before closing the segment.
#
# Lifecycle protocol (start method "fork", the Linux default, shares
# one resource tracker between parent and workers):
#
# - the *worker* creates segments under a parent-chosen, deterministic
#   name prefix, writes them, releases its views, closes its handle and
#   never unlinks;
# - the *parent* attaches, unlinks immediately (the mapping survives
#   until the last close, but the name disappears — nothing can leak
#   in /dev/shm even if the parent dies from here on), and defers its
#   close until the arena's base array is garbage collected
#   (``weakref.finalize``);
# - on any dispatch failure the parent sweeps every possible segment
#   name of every chunk with attach→close→unlink, so a crashed or
#   cancelled worker cannot leak segments either.

_SHM_PREFIX = "repro"
_SHM_RUN = 0
_SHM_PROBED: bool | None = None

#: Deferred parent-side segment closes, kept so callers that want the
#: memory back *now* (benchmarks, tests) can force them via
#: :func:`release_shm_segments` instead of waiting for GC.
_SHM_FINALIZERS: list[Any] = []


def shm_transport_available() -> bool:
    """Whether this platform supports the shared-memory transport.

    Checks the module import each call (tests monkeypatch it away) and
    probes segment creation once per process.
    """
    global _SHM_PROBED
    if _shm is None:
        return False
    if _SHM_PROBED is None:
        try:
            probe = _shm.SharedMemory(create=True, size=16)
        except Exception:
            _SHM_PROBED = False
        else:
            try:
                probe.close()
                probe.unlink()
            except OSError:  # pragma: no cover - probe cleanup best-effort
                pass
            _SHM_PROBED = True
    return _SHM_PROBED


def _close_segment(seg: Any) -> None:
    """Deferred parent-side close of an already-unlinked segment.

    The finalize that calls this fires while the arena's base array is
    mid-deallocation — weakref callbacks run *before* the array releases
    its buffer export — so ``seg.close()`` typically raises
    ``BufferError`` here.  In that case the segment is dismantled by
    hand: dropping the ``SharedMemory`` object's references lets the
    mmap unmap itself the moment the last numpy view dies, the fd is
    closed immediately, and the object's eventual ``__del__`` becomes a
    no-op instead of an unraisable ``BufferError``.  Either way the
    name is already gone from ``/dev/shm``.
    """
    try:
        seg.close()
        return
    except BufferError:
        pass
    try:
        seg._buf = None
        seg._mmap = None
        fd = getattr(seg, "_fd", -1)
        if fd >= 0:
            os.close(fd)
            seg._fd = -1
    except Exception:  # pragma: no cover - stdlib internals changed shape
        pass


def release_shm_segments() -> int:
    """Force every deferred parent-side segment close; returns how many
    segments were actually closed.

    Safe to call repeatedly (double-close is a no-op: a finalizer runs
    at most once, and the list drains).  Call after dropping all trace
    views, e.g. between benchmark repetitions.
    """
    closed = 0
    while _SHM_FINALIZERS:
        finalizer = _SHM_FINALIZERS.pop()
        if finalizer.alive:
            finalizer()
            closed += 1
    return closed


def _execute_chunk_shm(chunk: list[tuple[int, SessionTask, str | None]],
                       prefix: str) -> tuple[list, list, list]:
    """Worker body for the shm transport.

    Cohort runs flush straight into a shared-memory arena via the
    ``arena_factory`` hook; per-task traces outside a cohort are packed
    (one strided copy per column) into extra arenas grouped by shape.
    Keyed entries are written to the worker's store, if it has one
    (:class:`_WriteBehind`); every write finishes before the segments
    are released.  Returns ``(segments, plain, writes)`` where
    ``segments`` is a list of ``(name, layout, [(manifest index, row,
    metadata), ...])``, ``plain`` carries non-trace values the classic
    pickled way and ``writes`` lists ``(manifest index, accepted,
    payload bytes)``.
    """
    from repro.xcal.arena import CohortArena, arena_nbytes
    from repro.xcal.records import SlotTrace

    handles: list[Any] = []
    arenas: list[Any] = []
    segments: list[tuple[str, dict, list]] = []
    writer = _WriteBehind()

    def _new_arena(n_cols: int, n_slots: int, mu: Any) -> Any:
        name = f"{prefix}-{len(handles)}"
        seg = _shm.SharedMemory(name=name, create=True,
                                size=max(1, arena_nbytes(n_cols, n_slots)))
        handles.append(seg)
        arena = CohortArena.over_buffer(seg.buf, n_cols, n_slots, mu,
                                        zeroed=True)
        arenas.append(arena)
        segments.append((name, arena.layout(), []))
        return arena

    def _build() -> list[tuple[int, Any]]:
        # Nested so every trace reference dies when it returns — the
        # segment handles cannot close while numpy exports are alive.
        cohort = None
        plain: list[tuple[int, Any]] = []
        stray: list[tuple[int, Any]] = []
        for index, task, key, value in _chunk_values(chunk,
                                                     arena_factory=_new_arena):
            writer.submit(index, task, key, value)
            cohort = arenas[0] if arenas else None
            row = cohort.row_index_of(value) \
                if cohort is not None and isinstance(value, SlotTrace) else None
            if row is not None:
                segments[0][2].append((index, row, value.metadata))
            elif isinstance(value, SlotTrace):
                stray.append((index, value))
            else:
                plain.append((index, value))
        groups: dict[tuple[int, int], list[tuple[int, Any]]] = {}
        for index, trace in stray:
            groups.setdefault((len(trace), int(trace.mu)), []).append(
                (index, trace))
        for (n_slots, mu), members in groups.items():
            arena = _new_arena(len(members), n_slots, mu)
            rows = segments[-1][2]
            for row, (index, trace) in enumerate(members):
                arena.pack_row(row, trace)
                rows.append((index, row, trace.metadata))
        return plain

    try:
        try:
            plain = _build()
        finally:
            writes = writer.finish()
    except BaseException:
        # Unlink our own segments: the parent will sweep the name space
        # too, but a worker that cleans up after itself keeps /dev/shm
        # tidy even when the parent dies mid-dispatch.
        for arena in arenas:
            arena.release()
        for seg in handles:
            try:
                seg.close()
            except BufferError:
                pass
            try:
                seg.unlink()
            except (FileNotFoundError, OSError):
                pass
        raise
    for arena in arenas:
        arena.release()
    arenas.clear()
    for seg in handles:
        try:
            seg.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        if multiprocessing.get_start_method(allow_none=True) != "fork":
            # Non-fork workers own a private resource tracker that would
            # unlink (and warn about) the segment at worker shutdown;
            # hand ownership to the parent by unregistering here.  Under
            # fork the tracker is shared and the parent's unlink-time
            # unregister balances the books.
            try:  # pragma: no cover - fork is the default on Linux
                from multiprocessing import resource_tracker

                resource_tracker.unregister(
                    getattr(seg, "_name", "/" + seg.name), "shared_memory")
            except Exception:
                pass
    return segments, plain, writes


def _attach_shm_arena(name: str, layout: Mapping) -> Any:
    """Parent side: attach a worker-written segment as a zero-copy arena.

    Unlinks the name immediately — the mapping stays valid until the
    deferred close, but nothing can leak in ``/dev/shm`` afterwards.
    The close itself fires when the arena's base array dies, i.e. once
    the caller drops the last trace view.
    """
    from repro.xcal.arena import CohortArena

    seg = _shm.SharedMemory(name=name)
    try:
        arena = CohortArena.from_layout(seg.buf, layout)
    except Exception:
        seg.close()
        try:
            seg.unlink()
        except (FileNotFoundError, OSError):
            pass
        raise
    try:
        seg.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - raced cleanup
        pass
    _SHM_FINALIZERS.append(weakref.finalize(arena.base, _close_segment, seg))
    return arena


def _attach_shm_payload(segments: list, plain: list) -> list[tuple[int, Any]]:
    """Materialize one worker's shm payload as ``(index, value)`` pairs,
    in manifest order."""
    pairs = list(plain)
    for name, layout, rows in segments:
        arena = _attach_shm_arena(name, layout)
        pairs += [(index, arena.trace(row, metadata=metadata))
                  for index, row, metadata in rows]
    pairs.sort(key=lambda pair: pair[0])
    return pairs


def _cleanup_shm_chunk(prefix: str, count: int) -> None:
    """Best-effort unlink of every segment a chunk may have created.

    attach→close→unlink by deterministic name: covers workers that died
    before returning (their segments are orphaned but named) and, under
    fork, re-registering on attach then unregistering on unlink leaves
    the shared resource tracker balanced.
    """
    if _shm is None:
        return
    for k in range(count):
        try:
            seg = _shm.SharedMemory(name=f"{prefix}-{k}")
        except (FileNotFoundError, OSError):
            continue
        try:
            seg.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        try:
            seg.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


# ---------------------------------------------------------------------- #
# Persistent pool
# ---------------------------------------------------------------------- #
class CampaignExecutor:
    """A warm worker pool shared across many ``run_tasks`` calls.

    A campaign-scale ``repro run``/``repro campaign`` used to build a
    fresh ``ProcessPoolExecutor`` per experiment, paying interpreter
    start-up, imports and cold caches every time.  A ``CampaignExecutor``
    keeps one pool alive for the whole command::

        with CampaignExecutor(jobs="auto", store=store) as executor:
            for spec in specs:
                generate_campaign(spec=spec, store=store, executor=executor)

    The pool is created lazily on first parallel dispatch, with an
    initializer that opens each worker's store handle once (so workers
    write their results into the store) and pre-warms the TBS
    lookup-matrix cache.  ``stats()`` reports what the pool actually
    did — dispatches, tasks executed, and how many results the workers
    wrote into the store (``tasks_routed``).
    """

    def __init__(self, jobs: int | str | None = "auto", store: Any = None) -> None:
        self.workers = resolve_jobs(jobs)
        self.store = store
        self._pool: ProcessPoolExecutor | None = None
        self.pools_created = 0
        self.dispatches = 0
        self.tasks_executed = 0
        self.tasks_routed = 0

    @property
    def store_config(self) -> tuple[str, int | None] | None:
        return _store_config(self.store)

    def routes_for(self, store: Any) -> bool:
        """Whether this executor's workers write into ``store`` —
        :func:`run_tasks` refuses any other store.

        Roots compare *resolved* (absolute, symlinks followed): a
        relative and an absolute spelling of the same directory are the
        same store, and must not be refused.
        """
        if store is None or self.store is None:
            return False
        try:
            return Path(self.store.root).resolve() == Path(store.root).resolve()
        except OSError:  # unresolvable path: fall back to textual identity
            return str(self.store.root) == str(store.root)

    def pool(self) -> ProcessPoolExecutor:
        """The shared pool, created on first use."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_initializer,
                initargs=(self.store_config,),
            )
            self.pools_created += 1
        return self._pool

    def stats(self) -> dict[str, int]:
        return {
            "workers": self.workers,
            "pools_created": self.pools_created,
            "dispatches": self.dispatches,
            "tasks_executed": self.tasks_executed,
            "tasks_routed": self.tasks_routed,
        }

    def render_stats(self) -> str:
        s = self.stats()
        return (f"pool workers={s['workers']} pools={s['pools_created']} "
                f"dispatches={s['dispatches']} tasks={s['tasks_executed']} "
                f"routed={s['tasks_routed']}")

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Dispatch
# ---------------------------------------------------------------------- #
def _chunked(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _store_config(store: Any) -> tuple[str, int | None] | None:
    """What :func:`_pool_initializer` needs to open ``store`` in a worker."""
    if store is None:
        return None
    return (str(store.root), store.max_bytes)


def _in_pool(body: Callable[[ProcessPoolExecutor], None],
             executor: CampaignExecutor | None, workers: int, n_tasks: int,
             initargs: tuple | None = None) -> None:
    """Run ``body(pool)`` on the executor's warm pool, or else on a
    transient pool for ``n_tasks`` tasks whose workers run
    :func:`_pool_initializer` with ``initargs`` when given."""
    if executor is not None:
        executor.dispatches += 1
        executor.tasks_executed += n_tasks
        body(executor.pool())
        return
    init = ({} if initargs is None
            else {"initializer": _pool_initializer, "initargs": initargs})
    with ProcessPoolExecutor(max_workers=min(workers, n_tasks), **init) as pool:
        body(pool)


def _note_worker_writes(writes: Iterable[tuple[int, bool, int]], store: Any,
                        executor: CampaignExecutor | None) -> None:
    """Account the writes workers made into ``store``."""
    routed = 0
    for _, ok, nbytes in writes:
        if ok:
            store.note_routed_write(nbytes)
            routed += 1
    if executor is not None:
        executor.tasks_routed += routed


def _submit_chunks(pool: ProcessPoolExecutor, chunks: Iterable[list],
                   mode: str, reduction: Any,
                   futures: list[tuple[Any, int, str | None]]) -> None:
    """Submit every chunk to its worker body, appending ``(future, chunk
    length, shm name prefix or None)`` to ``futures`` as it goes.

    Shm segment names are chosen here, before dispatch
    (``repro-<pid>-<run>-c<chunk>-<k>``), so cleanup after a failure or
    worker crash needs no information back from the workers.
    """
    global _SHM_RUN
    _SHM_RUN += 1
    for n, chunk in enumerate(chunks):
        prefix = None
        if mode == "reduce":
            future = pool.submit(_execute_chunk_reduced, chunk, reduction)
        elif mode == "pipe":
            future = pool.submit(_execute_chunk_plain, chunk)
        else:
            prefix = f"{_SHM_PREFIX}-{os.getpid()}-{_SHM_RUN}-c{n}"
            future = pool.submit(_execute_chunk_shm, chunk, prefix)
        futures.append((future, len(chunk), prefix))


def _chunk_outcomes(futures: list[tuple[Any, int, str | None]], mode: str,
                    store: Any, executor: CampaignExecutor | None,
                    ) -> Iterator[tuple[int, Any]]:
    """``(index, value)`` pairs of the submitted chunks, taken in
    submission order (which is manifest order).  Values are sketches in
    ``"reduce"`` mode; worker writes are accounted as each chunk lands.
    """
    for future, _, _ in futures:
        out = future.result()
        if mode == "pipe":
            yield from out
            continue
        if mode == "reduce":
            pairs, writes = out
        else:
            segments, plain, writes = out
            pairs = _attach_shm_payload(segments, plain)
        _note_worker_writes(writes, store, executor)
        yield from pairs


def _abandon_chunks(futures: list[tuple[Any, int, str | None]]) -> None:
    """After a failure: cancel the chunks not started, wait out the
    in-flight ones, and sweep every shm name a chunk could have created
    (a chunk makes at most one cohort arena plus one packed arena per
    distinct stray trace shape, <= chunk length)."""
    for future, _, _ in futures:
        future.cancel()
    for future, size, prefix in futures:
        if not future.cancelled():
            try:
                future.result()
            except BaseException:
                pass
        if prefix is not None:
            _cleanup_shm_chunk(prefix, size + 1)


def run_tasks(tasks: Iterable[SessionTask] | Sequence[SessionTask],
              jobs: int | str | None = 1,
              store: Any | None = None,
              executor: CampaignExecutor | None = None,
              transport: str = "auto",
              reduce: Any | None = None) -> Any:
    """Execute a manifest; results are returned in manifest order.

    ``jobs=1`` runs in-process.  ``jobs>1`` dispatches to a process
    pool; because every task carries its own seed, results are
    bit-identical to the serial run for any worker count.

    ``store`` (a :class:`repro.store.TraceStore`) turns the call into a
    memoized run.  Exact and reduced runs share one ordered sweep: the
    manifest splits once into hits and misses (each keyed task counts
    one lookup, as a hit or as a miss); the sweep walks the manifest,
    reading each hit when it reaches its index and taking each miss
    from one stream — serial chunks in the parent, or pool chunks in
    submission order.  A hit that fails verification is recomputed and
    written back.  Workers holding the run's store (a transient pool,
    or an ``executor`` opened on it) write their own results; the
    parent writes serial results and those of the pipe transport, and
    never reads a result back.  An ``executor`` opened on another store
    is a ``ValueError``.  Tasks whose kwargs cannot be fingerprinted,
    or whose results the store codec does not cover, execute normally
    every time; the result is identical to an uncached run either way.

    ``executor`` (a :class:`CampaignExecutor`) supplies a persistent
    pool shared across calls; it overrides ``jobs`` with its own worker
    count.  ``transport`` selects how parallel results travel back:
    ``"auto"`` maps them from shared memory, falling back to the pipe on
    platforms without POSIX shm, and ``"pipe"`` forces the legacy
    pickle-the-result path.

    ``reduce`` (e.g. a :class:`repro.core.reduce.CampaignReduction`)
    switches the call into streaming-reduction mode: instead of the
    result list, the return value is the merged sketch of
    ``reduce.fold(task, result)`` over the manifest, left-folded in
    manifest order.  Results are never materialized in the parent —
    peak memory is bounded by one in-flight result per worker — and the
    merged sketch is byte-identical for any ``jobs``/transport
    combination.  With a store, the campaign-level sketch is memoized
    under :func:`repro.store.keys.reduce_key` (one lookup; a warm call
    is a single store read), and misses still warm the session cache.
    """
    if transport not in ("auto", "pipe"):
        raise ValueError(f"transport must be 'auto' or 'pipe', got {transport!r}")
    if reduce is not None and not (callable(getattr(reduce, "fold", None))
                                   and callable(getattr(reduce, "merge", None))):
        raise TypeError("reduce must provide fold(task, value) and merge(acc, sketch)")
    if store is not None and executor is not None and not executor.routes_for(store):
        raise ValueError(f"store {store.root} is not the executor's store "
                         f"({getattr(executor.store, 'root', None)})")
    manifest = list(tasks)
    n_tasks = len(manifest)
    workers = executor.workers if executor is not None else resolve_jobs(jobs)
    keys = ([store.task_key(task) for task in manifest] if store is not None
            else [None] * n_tasks)
    stats = reduce.stats if isinstance(getattr(reduce, "stats", None), dict) else None

    memo_key = None
    if (reduce is not None and store is not None and manifest
            and hasattr(reduce, "fingerprint") and None not in keys):
        from repro.store.keys import reduce_key

        memo_key = reduce_key(reduce.fingerprint(), keys, salt=store.salt)
        cached = None
        if store.probe(memo_key):
            try:
                cached = store.get(memo_key)
            except KeyError:
                pass
        if hasattr(cached, "groups") and hasattr(cached, "merge"):
            if stats is not None:
                stats.update(sessions=n_tasks, folded_local=0, folded_workers=0,
                             memo="hit")
            return cached

    hit = [key is not None and store.probe(key) for key in keys]
    n_miss = hit.count(False)
    mode = ("serial" if workers == 1 or n_miss <= 1
            else "reduce" if reduce is not None
            else "shm" if transport == "auto" and shm_transport_available()
            else "pipe")
    # Workers holding the run's store write their own results; the
    # parent writes what it computed itself and what the pipe returns.
    parent_writes = mode in ("serial", "pipe")
    # Lazy, so a serial sweep holds one chunk's entries, not the manifest's.
    chunks = _grouped_chunks(
        ((index, manifest[index], keys[index]) for index in range(n_tasks)
         if not hit[index]),
        _MAX_CHUNK if mode == "serial" else dispatch_chunksize(n_miss, workers))
    results: list[Any] = [None] * n_tasks if reduce is None else []
    acc: Any = None
    folded_local = folded_workers = 0

    def sweep(misses: Iterator[tuple[int, Any]]) -> None:
        nonlocal acc, folded_local, folded_workers
        for index, task in enumerate(manifest):
            key = keys[index]
            if hit[index]:
                try:
                    value, write = store.get(key), False
                except KeyError:  # failed verification, or evicted since the probe
                    value, write = task.execute(), True
            else:
                got, value = next(misses)
                if got != index:
                    raise RuntimeError(
                        f"miss stream out of order: got task {got}, expected {index}")
                write = parent_writes
            if write and key is not None:
                store.put(key, value, task=task)
            if reduce is None:
                results[index] = value
                continue
            if hit[index] or mode != "reduce":  # else a worker's sketch
                value = reduce.fold(task, value)
                folded_local += 1
            else:
                folded_workers += 1
            acc = value if acc is None else reduce.merge(acc, value)
        for got, _ in misses:  # run the stream to its end, and its checks
            raise RuntimeError(f"miss stream has an extra task {got}")

    if mode == "serial":
        arena_factory = None if reduce is not None else _local_arena_factory
        sweep((index, value) for chunk in chunks
              for index, _, _, value in _chunk_values(chunk, arena_factory))
    else:
        def body(pool: ProcessPoolExecutor) -> None:
            futures: list[tuple[Any, int, str | None]] = []
            try:
                _submit_chunks(pool, chunks, mode, reduce, futures)
                sweep(_chunk_outcomes(futures, mode, store, executor))
            except BaseException:
                _abandon_chunks(futures)
                raise

        _in_pool(body, executor, workers, n_miss,
                 None if parent_writes else (_store_config(store),))

    if reduce is None:
        return results
    if acc is None:
        acc = reduce.empty() if hasattr(reduce, "empty") else None
    memo_state = "off" if memo_key is None else "miss"
    if memo_key is not None and acc is not None:
        if store.put(memo_key, acc, label=f"reduce[{n_tasks}]"):
            memo_state = "write"
    if stats is not None:
        stats.update(sessions=n_tasks, folded_local=folded_local,
                     folded_workers=folded_workers, memo=memo_state)
    return acc
