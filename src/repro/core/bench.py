"""Tracked benchmarks — the ``repro bench`` subcommand.

Four tracked workloads, selected with ``--workload``; each is one
:data:`WORKLOADS` entry, which :func:`measure`,
:func:`regression_failures` and :func:`render` look up:

- ``slot`` (default) — the per-session slot engines, the hot path
  under every figure and table: slots/sec of the vectorized and the
  reference engine, cold and warm, on two sessions — the Fig. 1
  single-carrier workload (the V_Sp n78 90 MHz deployment) and a
  Fig. 19-shaped, retransmission-heavy mmWave session (four FR2
  carriers at driving speed).  Report: ``BENCH_slot_engine.json``.
- ``campaign`` — the execution layer end to end: sessions/sec of a
  four-operator campaign through :func:`repro.core.runner.run_tasks`
  (serial jobs=1 cold and warm, the legacy pipe transport at
  jobs=auto, the default shm path into a store at jobs=auto cold and
  warm on a persistent :class:`~repro.core.runner.CampaignExecutor`
  pool, and the storeless shm path).  Report: ``BENCH_campaign.json``.
- ``reduce`` — the streaming-reduction path (``run_tasks(...,
  reduce=...)``): sessions/sec and tracemalloc peaks of the campaign
  workload folded into KPI sketches, against the materializing exact
  path, plus an exact-vs-sketch KPI oracle and (full mode) a
  10^4-session bounded-memory demonstration.
  Report: ``BENCH_reduce.json``.
- ``tensor`` — the cross-session cohort engine: sessions/sec of
  maximal same-shape DL cohorts through the ``(sessions, slots)``
  tensor pass against the identical manifest pinned to the per-session
  vectorized engine, serial jobs=1, cold and warm.
  Report: ``BENCH_tensor.json``.

The slot and tensor workloads choose engines only through the one
engine switch, ``$REPRO_ENGINE`` (see :func:`_pinned_engine`).

Three measurement conventions keep the numbers honest:

- **cold vs warm** — "cold" is the first run after clearing the
  process-wide TBS matrix cache (what a fresh campaign worker pays);
  "warm" is the best of the remaining repetitions (what every
  subsequent session in the same process pays).  Best-of, not mean:
  simulation cost is deterministic, so the minimum is the measurement
  and everything above it is scheduler noise.  Cold *variants* (the
  campaign/reduce workloads) repeat the whole cold run on a fresh
  store directory and keep the best repetition for the same reason.
- **untimed process warmup** — lazy imports, numpy ufunc caches and
  other one-time process costs fire once before any timed run, so
  they don't all land on whichever variant happens to be timed first
  (they used to land on the vectorized engine's cold number).
- **hardware normalization** — CI machines differ run to run, so a raw
  throughput comparison against a committed baseline is meaningless.
  Each gated row has a reference row measured in the same process
  (the reference engine for ``slot``, the serial jobs=1 cold run for
  ``campaign``, the exact materializing run for ``reduce``, the
  per-session vectorized run for ``tensor``), so the ratio
  ``reference_now / reference_baseline`` estimates the machine-speed
  factor; gated rows are compared after dividing that factor out (see
  :func:`regression_failures`).
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "WORKLOADS",
    "campaign_tasks",
    "history_report",
    "load_report",
    "measure",
    "mmwave_session",
    "reduce_demo_tasks",
    "regression_failures",
    "render",
    "render_history",
    "single_ue_trace",
    "tensor_tasks",
    "write_profile",
    "write_report",
]

BENCH_SCHEMA_VERSION = 1

_BENCH_PROFILE = "V_Sp"

#: Fig. 19's set (b) scenario the mmWave slot row runs.
_MMWAVE_SCENARIO = "driving"

#: Operators of the campaign and reduce workloads: two Spanish and two
#: German deployments spanning 40–90 MHz carriers (a representative
#: slice of the study without the full nine-operator cost).
_CAMPAIGN_PROFILE_KEYS = ("V_Sp", "O_Sp_100", "T_Ge", "V_Ge")

#: Operators of the tensor workload.  Two carriers are enough: the gate
#: compares engines on the *same* manifest, so breadth adds cost, not
#: signal (the byte-identity tests cover the engine matrix).
_TENSOR_PROFILE_KEYS = ("V_Sp", "O_Sp_100")

#: Sessions per operator — one maximal cohort per operator (the runner
#: caps cohort chunks at 64; beyond that the ``(sessions, slots)``
#: working set thrashes cache and throughput *drops*).
_TENSOR_COHORT_FULL = 64
_TENSOR_COHORT_QUICK = 32

#: Keys a timed row's rate may sit under, in lookup order: a slot-engine
#: row carries cold and warm slots/s and gates on warm.
_RATE_KEYS = ("sessions_per_s", "warm_slots_per_s", "slots_per_s")

#: A timed row's path under ``workloads``: a workload name, plus the
#: engine in the slot report.
Row = tuple[str, ...]


def _environment() -> dict[str, Any]:
    """Interpreter, numpy and CPU of the host a report was measured on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
        "cpu_model": _cpu_model(),
    }


def _cpu_model() -> str:
    """The first ``model name`` in ``/proc/cpuinfo``, else
    :func:`platform.processor`, else ``"unknown"``."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# --------------------------------------------------------------------- #
# One timer, one best-of
# --------------------------------------------------------------------- #

def _timed(run: Callable[[], Any], count: int, *, cold: bool = True,
           peak: bool = False, rate: str = "sessions_per_s") -> dict[str, float]:
    """One timed ``run()``: ``count`` sessions (or slots) per wall second.

    ``cold`` clears the process-wide TBS matrix cache first.  ``peak``
    records the run's tracemalloc peak; tracemalloc slows the run, so
    only the reduce workload, whose memory floors need it, turns it on.
    """
    import tracemalloc

    from repro.nr.tbs import clear_tbs_matrix_cache

    if cold:
        clear_tbs_matrix_cache()
    if peak:
        tracemalloc.start()
    start = time.perf_counter()
    run()
    wall = time.perf_counter() - start
    timing = {rate: round(count / wall, 3), "wall_s": round(wall, 3)}
    if peak:
        timing["peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 1e6, 3)
        tracemalloc.stop()
    return timing


def _best_of(runs: Iterable[Callable[[], Any]], count: int,
             **timing: Any) -> dict[str, float]:
    """The fastest :func:`_timed` run of one variant; ``timing`` goes to
    each run."""
    return max((_timed(run, count, **timing) for run in runs), key=_rate)


def _rate(cell: dict[str, Any]) -> float | None:
    """A timed row's rate: sessions/s, or warm slots/s for an engine."""
    for key in _RATE_KEYS:
        if isinstance(cell.get(key), (int, float)):
            return cell[key]
    return None


def _rows(report: dict[str, Any]) -> dict[Row, dict[str, Any]]:
    """Every timed row of a report by its :data:`Row` path: what the
    gate, the renderer and the history fold read."""
    rows: dict[Row, dict[str, Any]] = {}
    workloads = report.get("workloads")
    if not isinstance(workloads, dict):
        return rows
    for name, cell in workloads.items():
        if not isinstance(cell, dict):
            continue
        if _rate(cell) is not None:
            rows[(name,)] = cell
            continue
        for engine, sub in cell.items():
            if isinstance(sub, dict) and _rate(sub) is not None:
                rows[(name, engine)] = sub
    return rows


# --------------------------------------------------------------------- #
# Workload manifests and measure bodies
# --------------------------------------------------------------------- #

@contextmanager
def _pinned_engine(engine: str | None) -> Iterator[None]:
    """``$REPRO_ENGINE`` set to ``engine`` for the block (unset for
    ``None``: the engine policy), restored afterwards."""
    from repro.ran.config import ENGINE_ENV

    saved = os.environ.pop(ENGINE_ENV, None)
    if engine is not None:
        os.environ[ENGINE_ENV] = engine
    try:
        yield
    finally:
        os.environ.pop(ENGINE_ENV, None)
        if saved is not None:
            os.environ[ENGINE_ENV] = saved


def single_ue_trace(duration_s: float = 5.0, seed: int = 2024):
    """One full-buffer DL trace of the Fig. 1 V_Sp carrier."""
    from repro.operators.profiles import get_profile
    from repro.ran.simulator import simulate_downlink

    profile = get_profile(_BENCH_PROFILE)
    cell = profile.primary_cell
    rng = np.random.default_rng(seed)
    channel = profile.dl_channel().realize(duration_s, mu=cell.mu, rng=rng)
    return simulate_downlink(cell, channel, rng=rng, params=profile.sim_params())


def mmwave_session(duration_s: float = 5.0, seed: int = 2024):
    """One full-buffer DL session of the four-carrier mmWave profile at
    driving speed, built exactly as Fig. 18/19 build it (an
    :class:`~repro.ran.ca.AggregatedResult`)."""
    from repro.experiments.fig18_mmwave_variability import SCENARIOS, _mmwave_run

    return _mmwave_run(duration_s, SCENARIOS[_MMWAVE_SCENARIO], seed)


def _warm_process(seed: int) -> None:
    """Untimed process warmup before any timed engine run.

    Lazy imports, numpy ufunc caches and other one-time process costs
    used to land entirely on whichever engine was timed first (the
    vectorized one), making its "cold" number look far worse than the
    reference engine's.  Tiny untimed sessions of both engines pay
    those costs up front; the TBS matrix cache is cleared again before
    each timed cold run, so "cold" still means what it says.
    """
    for engine in ("vectorized", "reference"):
        with _pinned_engine(engine):
            single_ue_trace(0.2, seed)
            mmwave_session(0.2, seed)


def _measure_slot(quick: bool, seed: int, jobs: int | str) -> tuple[dict, dict, dict]:
    """Both per-session slot engines on both sessions, serially (``jobs``
    is unused): cold is one run after clearing the TBS cache, warm the
    best of the remaining repetitions."""
    duration_s = 2.0 if quick else 5.0
    repetitions = 3 if quick else 11
    _warm_process(seed)

    sessions = {
        "single_ue": (partial(single_ue_trace, duration_s, seed), len),
        "mmwave": (partial(mmwave_session, duration_s, seed),
                   lambda result: sum(len(t) for t in result.per_carrier)),
    }
    workloads: dict[str, Any] = {}
    for name, (session, n_slots_of) in sessions.items():
        data: dict[str, Any] = {"n_slots": n_slots_of(session())}
        for engine in ("vectorized", "reference"):
            runs = [session] * repetitions
            with _pinned_engine(engine):
                cold = _best_of(runs[:1], data["n_slots"], rate="slots_per_s")
                warm = _best_of(runs[1:], data["n_slots"], cold=False,
                                rate="slots_per_s")
            data[engine] = {"cold_slots_per_s": cold["slots_per_s"],
                            "warm_slots_per_s": warm["slots_per_s"]}
        workloads[name] = data
    config = {"profile": _BENCH_PROFILE, "mmwave_scenario": _MMWAVE_SCENARIO,
              "duration_s": duration_s, "repetitions": repetitions, "seed": seed}
    return config, workloads, {}


def _manifest(profile_keys: tuple[str, ...], **spec: Any) -> list:
    """The campaign manifest of ``profile_keys`` under ``CampaignSpec(**spec)``."""
    from repro.operators.profiles import EU_PROFILES
    from repro.xcal.dataset import CampaignSpec, campaign_manifest

    profiles = {key: EU_PROFILES[key] for key in profile_keys}
    return campaign_manifest(profiles, CampaignSpec(**spec))


def campaign_tasks(quick: bool = False, seed: int = 2024) -> list:
    """The benchmark campaign's session manifest (fixed shape per mode)."""
    return _manifest(_CAMPAIGN_PROFILE_KEYS,
                     minutes_per_operator=0.15 if quick else 0.5,
                     session_s=3.0 if quick else 5.0, seed=seed)


def _measure_campaign(quick: bool, seed: int,
                      jobs: int | str) -> tuple[dict, dict, dict]:
    """Five timed variants, each on its own seed (so every "cold" run is
    genuinely cold — no key overlap with a previous variant's store)
    and its own store directory:

    - ``jobs1_cold`` / ``jobs1_warm`` — serial runner, empty store then
      fully warm store.  ``jobs1_cold`` is the hardware-normalization
      reference (the path least affected by the execution layer).
    - ``pipe_cold`` — jobs=auto on a transient pool with full results
      pickled back over the pipe and written by the parent: the
      pre-PR parallel path, kept as the comparator the default path's
      speedup is quoted against.
    - ``store_routed_cold`` / ``store_routed_warm`` — the default path
      into a store: jobs=auto on a persistent
      :class:`~repro.core.runner.CampaignExecutor` pool whose workers
      write payloads to the store and return results through shared
      memory.  The names predate the retired store transport; they
      stay so committed reports keep gating.
    - ``shm_cold`` — the default path without a store:
      ``jobs=max(2, auto)`` on a pre-warmed persistent pool, results
      returned through shared-memory arenas.  Pool spawn happens once
      per campaign in production, so it is warmed untimed here and the
      timed runs measure dispatch + compute + zero-copy return only.
      The workload is skipped (with a report note) on platforms without
      POSIX shm.

    Every cold variant repeats on a fresh store directory (and, for
    the store variant, a fresh executor — pool spawn stays inside the
    timing for pipe and store alike) and keeps the best repetition;
    one noisy scheduler hiccup otherwise decides ratios like
    ``routed_cold_vs_pipe_cold``.
    """
    import tempfile

    from repro.core.runner import (
        CampaignExecutor,
        release_shm_segments,
        resolve_jobs,
        run_tasks,
        shm_transport_available,
    )
    from repro.store import TraceStore

    workers = resolve_jobs(jobs)
    cold_reps = 2 if quick else 3
    run_tasks(campaign_tasks(True, seed + 9)[:2], jobs=1)  # untimed warmup

    workloads: dict[str, Any] = {}
    sections: dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-campaign-") as tmpdir:
        tmp = Path(tmpdir)
        serial = campaign_tasks(quick, seed)
        n = len(serial)
        workloads["jobs1_cold"] = _best_of(
            (partial(run_tasks, serial, jobs=1, store=TraceStore(tmp / f"jobs1-{rep}"))
             for rep in range(cold_reps)), n)
        workloads["jobs1_warm"] = _best_of(
            [partial(run_tasks, serial, jobs=1, store=TraceStore(tmp / "jobs1-0"))] * 2,
            n, cold=False)

        pipe = campaign_tasks(quick, seed + 1)
        workloads["pipe_cold"] = _best_of(
            (partial(run_tasks, pipe, jobs=workers, transport="pipe",
                     store=TraceStore(tmp / f"pipe-{rep}"))
             for rep in range(cold_reps)), n)

        if shm_transport_available():
            shm = campaign_tasks(quick, seed + 3)
            shm_jobs = max(2, workers)
            # The shm workload times the *transport* on a warm
            # production pool: campaigns hold one CampaignExecutor for
            # the whole command, so pool spawn and per-worker cache
            # warm-up are paid once per campaign, not once per
            # experiment.  An untimed mini-dispatch forces the lazy pool
            # into existence before the clock starts; the timed runs
            # then measure dispatch + compute + zero-copy return, which
            # is the cost the shm path actually adds to a steady-state
            # campaign.
            with CampaignExecutor(jobs=shm_jobs, store=None) as shm_executor:
                run_tasks(campaign_tasks(True, seed + 8)[:shm_jobs],
                          executor=shm_executor)
                release_shm_segments()

                def shm_runs():
                    # Segments are released between runs, untimed.
                    for _ in range(cold_reps):
                        yield partial(run_tasks, shm, executor=shm_executor)
                        release_shm_segments()

                workloads["shm_cold"] = {**_best_of(shm_runs(), n), "jobs": shm_jobs}
        else:
            sections["shm_unavailable"] = True

        routed = campaign_tasks(quick, seed + 2)
        routed_cold_runs: list[dict[str, float]] = []
        for rep in range(cold_reps):
            routed_store = TraceStore(tmp / f"routed-{rep}")
            with CampaignExecutor(jobs=workers, store=routed_store) as executor:
                routed_cold_runs.append(_timed(partial(
                    run_tasks, routed, store=routed_store, executor=executor), n))
                if rep == cold_reps - 1:
                    warm_store = TraceStore(tmp / f"routed-{rep}")
                    workloads["store_routed_warm"] = _best_of(
                        [partial(run_tasks, routed, store=warm_store,
                                 executor=executor)] * 2, n, cold=False)
                    sections["pool"] = executor.stats()
        workloads["store_routed_cold"] = max(routed_cold_runs, key=_rate)

    config = {
        "profiles": list(_CAMPAIGN_PROFILE_KEYS),
        "n_sessions": n,
        "jobs": workers,
        "cold_reps": cold_reps,
        "seed": seed,
        "cpu_count": os.cpu_count() or 1,
    }
    return config, workloads, sections


def reduce_demo_tasks(seed: int = 2024) -> list:
    """~10^4 one-second sessions across the four campaign operators —
    the full-mode bounded-memory demonstration manifest."""
    return _manifest(_CAMPAIGN_PROFILE_KEYS, minutes_per_operator=2500.0 / 60.0,
                     session_s=1.0, seed=seed)


def _reduce_kpi_check(manifest: list, traces: list, sketch: Any,
                      reduction: Any) -> dict[str, Any]:
    """Exact-vs-sketch oracle over every reduction group.

    Counts, min/max and total bits must match exactly; means within
    1e-9 relative (Neumaier-compensated sums); stds within 1e-6
    relative (pairwise moment merge); percentiles within one
    quantile-sketch bin (the documented sketch error bound).
    """
    from repro.core.stats import summarize

    samples: dict[str, list] = {}
    bits: dict[str, int] = {}
    for task, trace in zip(manifest, traces):
        key = reduction._group_key(task)
        samples.setdefault(key, []).append(trace.mean_throughput_mbps)
        per_carrier = getattr(trace, "per_carrier", None)
        total = (sum(t.total_bits for t in per_carrier) if per_carrier is not None
                 else trace.total_bits)
        bits[key] = bits.get(key, 0) + int(total)

    tolerance = ((reduction.quantile_hi - reduction.quantile_lo)
                 / reduction.quantile_bins)
    worst = {"mean_rel": 0.0, "std_rel": 0.0, "pct_abs": 0.0}
    ok = set(samples) == set(sketch.groups)
    for key, values in samples.items():
        group = sketch.groups.get(key)
        if group is None:
            continue
        want = summarize(np.asarray(values))
        have = group.summary()
        ok &= (have.n == want.n and have.minimum == want.minimum
               and have.maximum == want.maximum
               and group.total_bits == bits[key])
        worst["mean_rel"] = max(worst["mean_rel"], abs(have.mean - want.mean)
                                / max(abs(want.mean), 1e-12))
        worst["std_rel"] = max(worst["std_rel"], abs(have.std - want.std)
                               / max(abs(want.std), 1e-12))
        for q in ("p25", "median", "p75"):
            worst["pct_abs"] = max(worst["pct_abs"],
                                   abs(getattr(have, q) - getattr(want, q)))
    ok &= (worst["mean_rel"] <= 1e-9 and worst["std_rel"] <= 1e-6
           and worst["pct_abs"] <= tolerance)
    return {
        "ok": bool(ok),
        "groups": len(samples),
        "max_mean_rel_err": worst["mean_rel"],
        "max_std_rel_err": worst["std_rel"],
        "max_percentile_err": worst["pct_abs"],
        "percentile_tolerance": tolerance,
    }


def _measure_reduce(quick: bool, seed: int,
                    jobs: int | str) -> tuple[dict, dict, dict]:
    """Timed variants (each cold variant best-of-reps on a fresh store),
    all with tracemalloc peaks:

    - ``exact_cold`` — the materializing path holding every trace of
      the campaign at once: the normalization reference and the peak
      the memory floor compares against.
    - ``reduce_cold`` — the same campaign folded into KPI sketches,
      serial, no store: one in-flight trace at a time.
    - ``reduce_store_cold`` / ``reduce_store_warm`` — the reduce path
      with a store: cold writes sessions and the campaign-level memo;
      warm replays the whole campaign from the single memo entry.

    The report also carries the exact-vs-sketch oracle (``kpi_check``)
    and, in full mode, a ~10^4-session reduce-only demonstration whose
    peak must stay flat relative to the tiny timed variant (``demo``).
    """
    import tempfile

    from repro.core.runner import resolve_jobs, run_tasks
    from repro.store import TraceStore
    from repro.xcal.dataset import campaign_reduction

    workers = resolve_jobs(jobs)
    cold_reps = 2 if quick else 3
    manifest = campaign_tasks(quick, seed)
    n = len(manifest)
    run_tasks(campaign_tasks(True, seed + 9)[:2], jobs=1)  # untimed warmup

    captured: dict[str, Any] = {}

    def exact_run() -> None:
        captured["traces"] = run_tasks(manifest, jobs=1)

    def reduce_run() -> None:
        reduction = campaign_reduction()
        captured["sketch"] = run_tasks(manifest, jobs=1, reduce=reduction)
        captured["reduction"] = reduction

    def store_run(store: TraceStore) -> Callable[[], None]:
        def go() -> None:
            run_tasks(manifest, jobs=workers, store=store,
                      reduce=campaign_reduction())
        return go

    workloads: dict[str, Any] = {
        "exact_cold": _best_of([exact_run] * cold_reps, n, peak=True),
        "reduce_cold": _best_of([reduce_run] * cold_reps, n, peak=True),
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-reduce-") as tmpdir:
        tmp = Path(tmpdir)
        workloads["reduce_store_cold"] = _best_of(
            (store_run(TraceStore(tmp / f"store-{rep}")) for rep in range(cold_reps)),
            n, peak=True)
        warm_store = TraceStore(tmp / f"store-{cold_reps - 1}")
        workloads["reduce_store_warm"] = _best_of([store_run(warm_store)] * 2, n,
                                                  cold=False, peak=True)

    reduce_peak = workloads["reduce_cold"]["peak_mb"]
    sections: dict[str, Any] = {
        "kpi_check": _reduce_kpi_check(manifest, captured["traces"],
                                       captured["sketch"], captured["reduction"]),
        "memory": {"reduce_vs_exact_peak": round(
            reduce_peak / workloads["exact_cold"]["peak_mb"], 3)},
    }
    if not quick:
        demo_manifest = reduce_demo_tasks(seed + 5)
        demo = _timed(partial(run_tasks, demo_manifest, jobs=1,
                              reduce=campaign_reduction()),
                      len(demo_manifest), peak=True)
        demo["n_sessions"] = len(demo_manifest)
        demo["peak_vs_reduce_cold"] = round(demo["peak_mb"] / reduce_peak, 3)
        sections["demo"] = demo

    config = {
        "profiles": list(_CAMPAIGN_PROFILE_KEYS),
        "n_sessions": n,
        "jobs": workers,
        "cold_reps": cold_reps,
        "seed": seed,
    }
    return config, workloads, sections


def tensor_tasks(quick: bool = False, seed: int = 2024) -> list:
    """The tensor benchmark's manifest: maximal same-shape DL cohorts.

    ``ul_fraction=0`` keeps every operator's sessions one contiguous
    same-shape run, so the runner executes each operator as a single
    ``(sessions, slots)`` tensor pass at the target cohort size.
    """
    cohort = _TENSOR_COHORT_QUICK if quick else _TENSOR_COHORT_FULL
    session_s = 2.0 if quick else 5.0
    return _manifest(_TENSOR_PROFILE_KEYS,
                     minutes_per_operator=cohort * session_s / 60.0,
                     session_s=session_s, ul_fraction=0.0, seed=seed)


def _measure_tensor(quick: bool, seed: int,
                    jobs: int | str) -> tuple[dict, dict, dict]:
    """Two engines on the *same* manifest (identical sessions, identical
    bytes out — the comparison is pure execution cost), serial jobs=1
    so no pool scheduling blurs the engine difference (``jobs`` is
    unused):

    - ``session_cold`` / ``session_warm`` — every session through the
      per-session vectorized engine, pinned via ``REPRO_ENGINE`` (the
      cohort grouping still happens; only the engine choice is
      overridden).  ``session_cold`` is the hardware-normalization
      reference.
    - ``tensor_cold`` / ``tensor_warm`` — the engine policy with
      ``REPRO_ENGINE`` unset: each operator's cohort runs as one
      ``(sessions, slots)`` tensor pass.

    The report carries the cohort counters (cohorts run, dirty cells,
    tensor slots/s) and the per-phase wall decomposition from the timed
    tensor runs.
    """
    from repro.core.runner import run_tasks
    from repro.ran import tensor as tensor_mod
    from repro.ran._native import kernel_status

    cold_reps = 2 if quick else 3
    manifest = tensor_tasks(quick, seed)
    n = len(manifest)
    run_tasks(campaign_tasks(True, seed + 9)[:2], jobs=1)  # untimed warmup
    run = partial(run_tasks, manifest, jobs=1)

    def cold_and_warm() -> tuple[dict[str, float], dict[str, float]]:
        return (_best_of([run] * cold_reps, n),
                _best_of([run] * 2, n, cold=False))

    workloads: dict[str, Any] = {}
    with _pinned_engine("vectorized"):
        workloads["session_cold"], workloads["session_warm"] = cold_and_warm()
    tensor_mod.reset_cohort_stats()
    with _pinned_engine(None):
        workloads["tensor_cold"], workloads["tensor_warm"] = cold_and_warm()
    stats = tensor_mod.cohort_stats()
    kernel = kernel_status()
    cells = stats["cells"]
    dirty = stats["dirty_periods"]
    sections = {
        "cohort": {
            "cohorts": stats["cohorts"],
            "columns": stats["columns"],
            "cells": cells,
            "dirty_periods": dirty,
            "dirty_fraction": round(dirty / cells, 4) if cells else 0.0,
            "native_kernel": kernel["available"],
            "native_error": kernel["error"],
            "tensor_slots_per_s": round(stats["slots"] / stats["seconds"], 1)
            if stats["seconds"] else 0.0,
        },
        # Per-phase wall decomposition, aggregated over the timed tensor
        # runs: where a cohort pass actually spends its time (pre-draw /
        # tensor pass / batched retx / flush).
        "phases": {
            "predraw_s": round(stats["predraw_s"], 4),
            "tensor_pass_s": round(stats["pass_s"], 4),
            "batched_retx_s": round(stats["batched_s"], 4),
            "flush_s": round(stats["flush_s"], 4),
            "total_s": round(stats["seconds"], 4),
        },
    }
    config = {
        "profiles": list(_TENSOR_PROFILE_KEYS),
        "n_sessions": n,
        "cohort_size": _TENSOR_COHORT_QUICK if quick else _TENSOR_COHORT_FULL,
        "cold_reps": cold_reps,
        "seed": seed,
    }
    return config, workloads, sections


# --------------------------------------------------------------------- #
# Checks that are not ratios
# --------------------------------------------------------------------- #

def _kpi_oracle_failures(report: dict[str, Any]) -> list[str]:
    """The reduce report must pass its exact-vs-sketch KPI oracle."""
    kpi = report.get("kpi_check")
    if kpi and kpi.get("ok"):
        return []
    return [f"kpi_check: exact-vs-sketch oracle failed ({kpi!r})"]


def _cohort_failures(report: dict[str, Any]) -> list[str]:
    """The tensor report must actually have run tensor cohorts: a policy
    regression, or a host where the retx kernel does not build, silently
    degrades every cohort to the per-session engine and would otherwise
    gate green at 1.0x."""
    cohort = report.get("cohort", {})
    if cohort.get("cohorts"):
        return []
    return ["cohort: no tensor cohorts ran (engine policy degraded every "
            "cohort to the per-session engine; native kernel error: "
            f"{cohort.get('native_error')})"]


# --------------------------------------------------------------------- #
# The workload table
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Floor:
    """An intra-report bound on the number at key path ``value`` of the
    current report, divided by the one at ``per`` when given (a zero or
    absent ``per`` skips).  An absent value fails with ``missing`` if
    set, else skips; a truthy report flag ``unless`` skips.
    """

    name: str
    value: tuple[str, ...]
    full: float
    reason: str
    per: tuple[str, ...] | None = None
    quick: float | None = None
    single_core: float | None = None
    ceiling: bool = False
    missing: str | None = None
    unless: str | None = None

    def bound(self, report: dict[str, Any]) -> float:
        """``quick`` in quick mode, ``single_core`` below 2 CPUs, else ``full``."""
        if report.get("quick") and self.quick is not None:
            return self.quick
        cores = report.get("config", {}).get("cpu_count") or 1
        if self.single_core is not None and cores < 2:
            return self.single_core
        return self.full


@dataclass(frozen=True)
class Workload:
    """One tracked workload: ``run(quick, seed, jobs)`` returns the
    report's config, timed rows and extra sections; ``ratios`` are its
    ``speedup`` entries (name, numerator row, denominator row);
    ``normalized`` pairs a gated row with its same-report reference;
    ``check`` returns the failures that are not ratios; ``sections``
    are ``(report key, template)`` render lines.
    """

    bench: str
    file: str
    run: Callable[[bool, int, int | str], tuple[dict, dict, dict]]
    ratios: tuple[tuple[str, Row, Row], ...]
    normalized: tuple[tuple[Row, Row], ...]
    floors: tuple[Floor, ...] = ()
    check: Callable[[dict[str, Any]], list[str]] | None = None
    sections: tuple[tuple[str, str], ...] = ()


def _vectorized_floor(name: str) -> Floor:
    # The segment-batched path must beat the scalar oracle warm on its
    # home workload, or making it the default engine is wrong.
    return Floor(f"{name}_vectorized_vs_reference",
                 ("speedup", f"{name}_vectorized_vs_reference"), 1.0,
                 "the vectorized engine must not lose to the reference "
                 "engine warm")


def _warm_floor(warm: str, cold: str, quick: float | None = None) -> Floor:
    # A warm (fully memoized) campaign must beat its own cold run by at
    # least 2x within the same report (``quick`` in quick mode); below
    # it the memo path is recomputing sessions.  The warm workloads are
    # not normalized against the baseline: their per-session cost is
    # dominated by fixed store-read and pool-dispatch overhead, so their
    # sessions/s does not scale with the cold-simulation machine factor
    # across quick/full modes.
    return Floor(warm, ("workloads", warm, "sessions_per_s"), 2.0,
                 f"memo replay is recomputing: must beat its own cold run {cold}",
                 per=("workloads", cold, "sessions_per_s"), quick=quick,
                 missing="missing from current report")


WORKLOADS: dict[str, Workload] = {
    "slot": Workload(
        bench="slot_engine",
        file="BENCH_slot_engine.json",
        run=_measure_slot,
        ratios=tuple((f"{name}_vectorized_vs_reference",
                      (name, "vectorized"), (name, "reference"))
                     for name in ("single_ue", "mmwave")),
        normalized=tuple(((name, "vectorized"), (name, "reference"))
                         for name in ("single_ue", "mmwave")),
        floors=(_vectorized_floor("single_ue"), _vectorized_floor("mmwave")),
    ),
    "campaign": Workload(
        bench="campaign",
        file="BENCH_campaign.json",
        run=_measure_campaign,
        ratios=(
            ("routed_cold_vs_pipe_cold", ("store_routed_cold",), ("pipe_cold",)),
            ("warm_vs_pre_pr_pipe", ("store_routed_warm",), ("pipe_cold",)),
            ("shm_cold_vs_jobs1_cold", ("shm_cold",), ("jobs1_cold",)),
            ("shm_cold_vs_pipe_cold", ("shm_cold",), ("pipe_cold",)),
        ),
        # ``pipe_cold`` is informational; the warm rows gate intra-report
        # (see _warm_floor).
        normalized=((("store_routed_cold",), ("jobs1_cold",)),),
        floors=(
            # The committed artifact must show >= 1.0x (store routing is
            # not allowed to cost anything on a cold campaign); the CI
            # gate allows 10% run-to-run jitter below that so a noisy
            # shared runner doesn't flake.  Quick reports get extra
            # slack — pool spawn dominates their sub-second walls, so
            # the ratio is noisier.
            Floor("routed_cold_vs_pipe_cold",
                  ("speedup", "routed_cold_vs_pipe_cold"), 0.9,
                  "store routing must not cost throughput on a cold campaign",
                  quick=0.75),
            # Parallel-efficiency floor for the zero-copy transport: a
            # cold storeless campaign on the shm transport with two
            # workers must beat the serial memoizing run
            # (``jobs1_cold``) by this factor inside the same report.
            # The pipe transport historically *lost* to serial (0.58x)
            # because pickling full traces back swamped the parallel
            # win; the shm transport ships only segment names, so it
            # has to clear the bar on any host with real parallelism.
            # Quick reports keep a reduced floor: their sub-second walls
            # are dominated by dispatch overhead, which the full-mode
            # runs amortize.  Single-core hosts get the break-even floor
            # instead — two workers timesharing one core cannot beat
            # serial wall-clock no matter how cheap the transport is, so
            # the gate there degrades to "shm must not *lose* to
            # serial", which still catches the 0.58x serialization-tax
            # regression this floor exists to prevent.  A platform
            # without POSIX shm skips it.
            Floor("shm_cold_vs_jobs1_cold",
                  ("speedup", "shm_cold_vs_jobs1_cold"), 1.2,
                  "parallel shm campaign must beat the serial run — the "
                  "zero-copy transport is not allowed to lose its "
                  "parallelism to serialization",
                  quick=0.85, single_core=1.0,
                  missing="missing from current report (shm workload did not run)",
                  unless="shm_unavailable"),
            # Measured warm/cold on an idle 2-CPU host: jobs1 5.5-8.1x
            # quick (21 runs) and 4.4-7.0x full (10 runs); store_routed
            # 4.0-6.4x quick and 2.8-4.7x full.  A quick cold run spreads
            # its fixed per-run cost over 12 three-second sessions, not
            # 24 five-second ones, so the serial ratio is higher there
            # and the CI quick leg holds it to 5x; a full-mode 5x would
            # fail 3 runs in 10.
            _warm_floor("jobs1_warm", "jobs1_cold", quick=5.0),
            _warm_floor("store_routed_warm", "store_routed_cold"),
        ),
        sections=(
            ("pool", "pool: workers={workers} pools={pools_created} "
                     "dispatches={dispatches} tasks={tasks_executed} "
                     "routed={tasks_routed}"),
            ("shm_unavailable", "shm transport: unavailable on this platform"),
        ),
    ),
    "reduce": Workload(
        bench="reduce",
        file="BENCH_reduce.json",
        run=_measure_reduce,
        ratios=(
            ("reduce_cold_vs_exact_cold", ("reduce_cold",), ("exact_cold",)),
            ("memo_warm_vs_cold", ("reduce_store_warm",), ("reduce_store_cold",)),
        ),
        # The memo-hit row (``reduce_store_warm``) is not normalized:
        # its cost is a fixed store fetch + decode, so its sessions/s
        # scales with the manifest size rather than machine speed.  It
        # gates on memo_warm_vs_cold instead.
        normalized=((("reduce_cold",), ("exact_cold",)),),
        floors=(
            # Replaying a memoized campaign sketch must beat re-reducing
            # it by at least this factor within the same report
            # (observed >100x in both quick and full modes); below it
            # the memo path is recomputing.
            Floor("memo_warm_vs_cold", ("speedup", "memo_warm_vs_cold"), 10.0,
                  "sketch memo replay is not beating recomputation"),
            # The streaming path holds at most one in-flight trace, so
            # its tracemalloc peak must sit well below the materializing
            # run that holds the whole campaign.  The quick campaign is
            # only ~12 sessions; at scale the gap widens, so 0.5x is a
            # loose bound that still fails the moment the reduce path
            # starts accumulating traces.
            Floor("reduce_cold peak", ("workloads", "reduce_cold", "peak_mb"), 0.5,
                  "of the exact_cold peak; the streaming path is "
                  "accumulating traces",
                  per=("workloads", "exact_cold", "peak_mb"), ceiling=True),
            # The 10^4-session demonstration may not peak meaningfully
            # above the ~10-session timed variant — that *is* the
            # bounded-memory claim (peak tracks chunk size, not campaign
            # size).
            Floor("demo peak", ("demo", "peak_mb"), 2.0,
                  "of the reduce_cold peak; peak must track chunk size, "
                  "not campaign size",
                  per=("workloads", "reduce_cold", "peak_mb"), ceiling=True),
        ),
        check=_kpi_oracle_failures,
        sections=(
            ("kpi_check", "kpi oracle: {ok} over {groups} groups (mean rel err "
                          "{max_mean_rel_err:.2e}, percentile err "
                          "{max_percentile_err:.3f} <= "
                          "{percentile_tolerance:.3f} Mbps)"),
            ("memory", "reduce peak = {reduce_vs_exact_peak:.2f}x exact peak"),
            ("demo", "demo: {n_sessions} sessions at {sessions_per_s:,.2f} "
                     "sessions/s, peak {peak_mb:.2f} MB "
                     "({peak_vs_reduce_cold:.2f}x the reduce_cold peak)"),
        ),
    ),
    "tensor": Workload(
        bench="tensor",
        file="BENCH_tensor.json",
        run=_measure_tensor,
        ratios=(
            ("tensor_cold_vs_session_cold", ("tensor_cold",), ("session_cold",)),
            ("tensor_warm_vs_session_warm", ("tensor_warm",), ("session_warm",)),
        ),
        normalized=((("tensor_cold",), ("session_cold",)),),
        floors=(
            # The cohort pass must beat the per-session engine it
            # batches by at least this factor on a cold campaign, else
            # the sessions axis is not paying for its bookkeeping.
            # Measured end to end with the batched dirty-cell retx pass:
            # ~3.4x full mode (cohort 64), ~3.9x quick mode (cohort 32)
            # — the per-column OLLA feedback loop still serializes
            # periods (see ``docs/architecture.md``), but the retx tier
            # no longer pays a Python loop per dirty cell.  The floors
            # leave headroom for shared-runner noise; quick mode gets
            # extra slack because sub-second walls are noisier.  Cohorts
            # need the compiled retx kernel (any C compiler on PATH —
            # true for CI runners); without it no cohort runs and
            # _cohort_failures names the kernel's load error.
            Floor("tensor_cold_vs_session_cold",
                  ("speedup", "tensor_cold_vs_session_cold"), 2.5,
                  "the cohort pass must beat the per-session engine it batches",
                  quick=2.0),
        ),
        check=_cohort_failures,
        sections=(
            ("cohort", "cohorts={cohorts} columns={columns} "
                       "dirty_periods={dirty_periods} "
                       "tensor_slots_per_s={tensor_slots_per_s:,.0f}"),
            ("cohort", "dirty={dirty_fraction:.1%} of {cells} cells"),
            ("phases", "phases: predraw={predraw_s:.2f}s "
                       "tensor_pass={tensor_pass_s:.2f}s "
                       "batched_retx={batched_retx_s:.2f}s flush={flush_s:.2f}s"),
        ),
    ),
}

_BY_BENCH = {workload.bench: workload for workload in WORKLOADS.values()}


def _get(report: dict[str, Any], path: tuple[str, ...]) -> float | None:
    """The number at ``path`` in ``report``, or ``None``."""
    node: Any = report
    for key in path:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node if isinstance(node, (int, float)) else None


def _label(row: Row) -> str:
    """``"store_routed_cold:"`` or ``"single_ue: vectorized"``."""
    return f"{row[0]}:" + "".join(f" {part}" for part in row[1:])


def measure(workload: str = "slot", quick: bool = False, seed: int = 2024,
            jobs: int | str = "auto") -> dict[str, Any]:
    """Run one :data:`WORKLOADS` entry and return its report dict."""
    entry = WORKLOADS[workload]
    config, workloads, sections = entry.run(quick, seed, jobs)
    rows = _rows({"workloads": workloads})
    speedup = {name: round(_rate(rows[num]) / _rate(rows[den]), 2)
               for name, num, den in entry.ratios if num in rows and den in rows}
    return {
        "bench": entry.bench,
        "schema": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "config": config,
        "environment": _environment(),
        "workloads": workloads,
        "speedup": speedup,
        **sections,
    }


def regression_failures(current: dict[str, Any], baseline: dict[str, Any],
                        threshold: float = 0.30) -> list[str]:
    """Regressions of ``current`` vs ``baseline``, by ``current["bench"]``.

    For each normalized pair, the reference row's rate ratio between
    the two reports estimates the machine-speed factor; the gated row
    fails when it lost more than ``threshold`` of its rate after that
    factor is divided out::

        new_gated < (1 - threshold) * base_gated * (new_ref / base_ref)

    A gated row the baseline lacks is not compared.  Independent of the
    baseline, the current report must clear every floor of its entry
    and pass its non-ratio ``check``.  Returns one message per failure,
    each starting with the name of what failed (empty list = pass).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    entry = _BY_BENCH[current["bench"]]
    now, base = _rows(current), _rows(baseline)
    failures: list[str] = []
    for gated, reference in entry.normalized:
        if gated not in base:
            continue
        if gated not in now:
            failures.append(f"{gated[0]}: missing from current report")
            continue
        if reference not in now or reference not in base:
            failures.append(f"{reference[0]}: reference workload missing "
                            "from a report")
            continue
        scale = _rate(now[reference]) / _rate(base[reference])
        floor = (1.0 - threshold) * _rate(base[gated]) * scale
        if _rate(now[gated]) < floor:
            failures.append(
                f"{_label(gated)} {_rate(now[gated]):,.2f}/s < floor "
                f"{floor:,.2f}/s (baseline {_rate(base[gated]):,.2f}/s "
                f"x machine factor {scale:.2f} x {1.0 - threshold:.2f})")
    for floor in entry.floors:
        if floor.unless and current.get(floor.unless):
            continue
        value = _get(current, floor.value)
        if value is None:
            if floor.missing:
                failures.append(f"{floor.name}: {floor.missing}")
            continue
        if floor.per is not None:
            per = _get(current, floor.per)
            if not per:
                continue
            value /= per
        bound = floor.bound(current)
        if value > bound if floor.ceiling else value < bound:
            failures.append(
                f"{floor.name}: {value:.2f}x "
                f"{'> ceiling' if floor.ceiling else '< floor'} {bound:.2f}x "
                f"({floor.reason})")
    if entry.check is not None:
        failures.extend(entry.check(current))
    return failures


def render(report: dict[str, Any]) -> str:
    """Human-readable table of any :func:`measure` report."""
    config = " ".join(
        f"{key}={','.join(map(str, value)) if isinstance(value, list) else value}"
        for key, value in report.get("config", {}).items())
    lines = [f"{report['bench']} benchmark "
             f"({'quick' if report.get('quick') else 'full'}) {config}".rstrip()]
    for row, cell in _rows(report).items():
        fields = "  ".join(f"{key} {value:,.6g}" for key, value in cell.items()
                           if isinstance(value, (int, float)))
        lines.append(f"  {'/'.join(row):22s} {fields}")
    for name, value in report.get("speedup", {}).items():
        lines.append(f"  {name:34s} {value:>7.2f}x")
    # An entry's section lines: booleans read PASS/FAIL, and a line
    # whose section or field the report lacks is left out.
    for key, template in _BY_BENCH[report["bench"]].sections:
        section = report.get(key)
        if not section:
            continue
        fields = section if isinstance(section, dict) else {}
        try:
            lines.append("  " + template.format_map({
                name: ("PASS" if value else "FAIL") if isinstance(value, bool)
                else value for name, value in fields.items()}))
        except KeyError:
            continue
    return "\n".join(lines)


def history_report(root: Path | str = ".") -> dict[str, Any]:
    """Fold every committed ``BENCH_*.json`` under ``root`` into one
    trajectory report.

    Each tracked benchmark writes its own report file; reading the
    performance story of the repo therefore meant opening four JSON
    files by hand.  This folds their headline numbers — each timed
    row's rate (sessions/s, or warm slots/s per slot engine, read
    through the same accessor as the gate), the speedup ratios, and the
    tensor engine's phase decomposition — into a single dict (and, via
    :func:`render_history`, a single table).  Files that do not parse
    or do not look like bench reports are listed under ``"skipped"``
    instead of aborting the fold, so one corrupt artifact cannot hide
    the rest of the trajectory.
    """
    root = Path(root)
    entries: list[dict[str, Any]] = []
    skipped: list[str] = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            skipped.append(f"{path.name}: {exc}")
            continue
        if not isinstance(data, dict) or not isinstance(data.get("bench"), str):
            skipped.append(f"{path.name}: not a bench report")
            continue
        entry: dict[str, Any] = {
            "file": path.name,
            "kind": data["bench"],
            "quick": bool(data.get("quick")),
            "schema": data.get("schema"),
        }
        throughput = {"/".join(row): _rate(cell)
                      for row, cell in _rows(data).items()}
        if throughput:
            entry["throughput"] = throughput
        speedup = data.get("speedup")
        if isinstance(speedup, dict):
            entry["speedup"] = {
                k: v for k, v in speedup.items()
                if isinstance(v, (int, float))
            }
        phases = data.get("phases")
        if isinstance(phases, dict) and phases.get("total_s"):
            entry["flush_share"] = round(
                phases.get("flush_s", 0.0) / phases["total_s"], 3)
        entries.append(entry)
    return {
        "bench": "history",
        "schema": BENCH_SCHEMA_VERSION,
        "root": str(root),
        "reports": entries,
        "skipped": skipped,
    }


def render_history(report: dict[str, Any]) -> str:
    """Human-readable table of a :func:`history_report` trajectory."""
    entries = report.get("reports", [])
    lines = [f"benchmark trajectory ({len(entries)} reports "
             f"under {report.get('root', '.')})"]
    if not entries:
        lines.append("  no BENCH_*.json reports found")
    for entry in entries:
        mode = "quick" if entry.get("quick") else "full"
        lines.append(f"  {entry['file']} [{entry['kind']}, {mode}]")
        throughput = entry.get("throughput", {})
        for name, value in throughput.items():
            lines.append(f"    {name:22s} {value:>10,.2f} /s")
        for name, value in entry.get("speedup", {}).items():
            lines.append(f"    {name:40s} {value:>6.2f}x")
        if "flush_share" in entry:
            lines.append(f"    {'flush share of tensor wall':40s} "
                         f"{entry['flush_share'] * 100:>5.1f}%")
    for item in report.get("skipped", []):
        lines.append(f"  skipped {item}")
    return "\n".join(lines)


def load_report(path: Path | str) -> dict[str, Any]:
    """Read a report written by :func:`write_report`."""
    return json.loads(Path(path).read_text())


def write_report(report: dict[str, Any], path: Path | str) -> None:
    """Write a report as stable, diff-friendly JSON."""
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_profile(profiler: Any, report_path: Path | str,
                  top: int = 20) -> tuple[Path, Path]:
    """Persist a ``cProfile.Profile`` next to its BENCH json.

    Writes two siblings of ``report_path``: a binary ``.pstats`` dump
    (re-loadable with :mod:`pstats` for ad-hoc digging) and a
    ``.profile.txt`` table of the ``top`` cumulative-time entries — so
    the next perf PR starts from data instead of guesses.  Returns the
    ``(pstats_path, table_path)`` pair.
    """
    import io
    import pstats

    report_path = Path(report_path)
    base = report_path.with_suffix("")  # BENCH_x.json -> BENCH_x
    pstats_path = base.with_suffix(".pstats")
    table_path = base.with_suffix(".profile.txt")

    stats = pstats.Stats(profiler)
    stats.dump_stats(str(pstats_path))
    buf = io.StringIO()
    stats.stream = buf
    stats.sort_stats("cumulative").print_stats(top)
    table_path.write_text(buf.getvalue())
    return pstats_path, table_path
