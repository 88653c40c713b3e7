"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``list``
    Print the experiment registry.
``run <id> [...]``
    Regenerate one or more tables/figures (``--full`` for paper-length
    simulations).
``campaign``
    Generate a synthetic measurement campaign and export it as CSV,
    JSONL or npz.
``cache``
    Inspect and maintain a session trace store (``stats`` / ``verify``
    / ``clear`` / ``evict --max-mb MB``).  ``stats --json`` emits the
    counters machine-readably — the same serializer the CI gates
    consume.
``bench``
    Run one tracked benchmark workload from the table in
    :mod:`repro.core.bench`: ``--workload slot`` (default, the slot
    engines, ``BENCH_slot_engine.json``), ``campaign`` (the execution
    layer end to end, ``BENCH_campaign.json``), ``reduce`` (the
    streaming-reduction path, ``BENCH_reduce.json``) or ``tensor`` (the
    cohort engine against the per-session engine, ``BENCH_tensor.json``).
    ``--baseline FILE`` gates the run against a committed report of the
    same workload: exit 1 on a hardware-normalized regression or a
    missed intra-report floor, exit 2 before measuring when the
    baseline is unreadable, not a JSON object or of another workload,
    or when ``--threshold`` is outside (0, 1).  ``--profile`` wraps the
    run in cProfile and writes a ``.pstats`` dump plus a top-20
    cumulative-time table next to the BENCH json; ``--history`` folds
    every committed BENCH json into one trajectory table instead.

``run`` and ``campaign`` accept ``--jobs N`` (or ``--jobs auto``) to
fan independent sessions out to a process pool, and ``--cache DIR``
(default: the ``REPRO_CACHE`` environment variable) to memoize sessions
in a content-addressed store — results are bit-identical for any worker
count, cached or not.  ``REPRO_CACHE_MAX_MB`` caps the store size with
LRU eviction.  With ``--jobs`` above 1 both commands share one warm
worker pool (a :class:`repro.core.runner.CampaignExecutor`) across all
sessions: results come back through shared memory, and when a store is
configured the workers write results to it directly.

``REPRO_ENGINE=reference`` pins every session to the reference slot
engine, the scalar oracle that also runs every session on a host
without the native kernel; the bytes are the same either way.
``run``, ``campaign`` and ``bench`` exit 2 on any other value before
anything runs.

``--reduce`` (on ``run`` for fig01/fig12/table1, and on ``campaign``)
streams sessions through mergeable KPI sketches instead of
materializing per-slot traces, bounding peak memory by worker count
rather than campaign size; printed KPIs match the exact path within the
documented sketch tolerances (see :mod:`repro.core.reduce`), and a
``[reduce]`` accounting line goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.experiments import EXPERIMENT_IDS, run_experiment


def _jobs_arg(value: str) -> int:
    from repro.core.runner import resolve_jobs

    try:
        return resolve_jobs(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _open_store(args: argparse.Namespace):
    """The ``--cache`` / ``$REPRO_CACHE`` store, or ``None``."""
    from repro.store import TraceStore

    return TraceStore.from_env(getattr(args, "cache", None))


def _make_executor(args: argparse.Namespace, store):
    """One warm pool for the whole command when ``--jobs`` exceeds 1."""
    if getattr(args, "jobs", 1) <= 1:
        return None
    from repro.core.runner import CampaignExecutor

    return CampaignExecutor(jobs=args.jobs, store=store)


def _report_store(store, executor=None) -> None:
    """Summary lines per cached/parallel run, on stderr so stdout stays
    the experiment output (CI byte-compares it across cold/warm runs)."""
    if store is not None:
        print(f"[cache] hits={store.hits} misses={store.misses} "
              f"read_mb={store.bytes_read / 1e6:.2f} "
              f"written_mb={store.bytes_written / 1e6:.2f} "
              f"root={store.root}",
              file=sys.stderr)
    if executor is not None:
        print(f"[pool] {executor.render_stats()}", file=sys.stderr)


def _report_reduce(stats: dict) -> None:
    """The ``[reduce]`` accounting line (stderr, like ``[cache]``)."""
    print(f"[reduce] sessions={stats.get('sessions', 0)} "
          f"folded_local={stats.get('folded_local', 0)} "
          f"folded_workers={stats.get('folded_workers', 0)} "
          f"memo={stats.get('memo', 'off')}",
          file=sys.stderr)


def _cmd_list(_args: argparse.Namespace) -> int:
    for experiment_id in EXPERIMENT_IDS:
        print(experiment_id)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    ids = args.ids or list(EXPERIMENT_IDS)
    unknown = sorted(set(ids) - set(EXPERIMENT_IDS))
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        return 2
    if args.reduce:
        from repro.experiments import supports_reduce

        unsupported = sorted(i for i in ids if not supports_reduce(i))
        if unsupported:
            print(f"--reduce is not supported by: {unsupported}", file=sys.stderr)
            return 2
    try:
        store = _open_store(args)
    except ValueError as exc:  # a malformed $REPRO_CACHE_MAX_MB
        print(str(exc), file=sys.stderr)
        return 2
    executor = _make_executor(args, store)
    try:
        for experiment_id in ids:
            start = time.time()
            result = run_experiment(experiment_id, seed=args.seed, quick=not args.full,
                                    jobs=args.jobs, store=store, executor=executor,
                                    reduce=args.reduce)
            print(result.render())
            if args.reduce and "reduce_stats" in result.data:
                _report_reduce(result.data["reduce_stats"])
            if args.plot:
                from repro.experiments.plots import render_plots

                rendering = render_plots(result)
                if rendering:
                    print("\n" + rendering)
            print(f"   [{time.time() - start:.1f} s]\n")
    finally:
        if executor is not None:
            executor.close()
    _report_store(store, executor)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.xcal.dataset import CampaignSpec, generate_campaign

    try:
        spec = CampaignSpec(minutes_per_operator=args.minutes, session_s=args.session,
                            ul_fraction=args.ul_fraction, seed=args.seed)
    except ValueError as exc:  # e.g. --minutes 0, --session inf
        print(f"invalid campaign: {exc}", file=sys.stderr)
        return 2
    if args.reduce and args.out is not None:
        print("--reduce keeps no per-slot traces, so --out has nothing to "
              "export; drop one of the two", file=sys.stderr)
        return 2
    try:
        store = _open_store(args)
    except ValueError as exc:  # a malformed $REPRO_CACHE_MAX_MB
        print(str(exc), file=sys.stderr)
        return 2
    executor = _make_executor(args, store)
    try:
        campaign = generate_campaign(spec=spec, jobs=args.jobs, store=store,
                                     executor=executor, reduce=args.reduce)
    finally:
        if executor is not None:
            executor.close()
    for row in campaign.summary_rows():
        print(row)
    if args.out is not None:
        paths = campaign.export(args.out, format=args.out_format)
        print(f"exported {len(paths)} traces to {args.out}")
    _report_store(store, executor)
    if args.reduce:
        _report_reduce(campaign.reduction.stats)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.store import CACHE_DIR_ENV, TraceStore

    root = args.cache or os.environ.get(CACHE_DIR_ENV)
    if not root:
        print(f"no store: pass --cache DIR or set ${CACHE_DIR_ENV}", file=sys.stderr)
        return 2
    # Inspecting or maintaining a store never creates one.
    if not (Path(root) / "objects").is_dir():
        print(f"no store at {root}", file=sys.stderr)
        return 2
    store = TraceStore(root)
    if args.action == "stats":
        if args.json:
            import json

            print(json.dumps(store.stats().to_dict(), indent=2, sort_keys=True))
            return 0
        print(store.stats().render())
    elif args.action == "verify":
        ok, bad = store.verify()
        print(f"verified {ok} entries intact, {len(bad)} quarantined")
        for key in bad:
            print(f"  quarantined {key}")
        return 1 if bad else 0
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries")
    elif args.action == "evict":
        if args.max_mb is None:
            print("evict needs --max-mb", file=sys.stderr)
            return 2
        try:
            evicted = store.evict(int(args.max_mb * 1e6))
        except (ValueError, OverflowError):
            print(f"--max-mb must be a non-negative number of MB, "
                  f"got {args.max_mb:g}", file=sys.stderr)
            return 2
        print(f"evicted {len(evicted)} entries (cap {args.max_mb:g} MB)")
    return 0


def _threshold_arg(value: str) -> float:
    """argparse type for ``bench --threshold``: a fraction in (0, 1)."""
    try:
        threshold = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if not 0.0 < threshold < 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a fraction in (0, 1), got {value!r}")
    return threshold


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.core import bench

    if args.history:
        report = bench.history_report()
        print(bench.render_history(report))
        if args.out is not None:
            bench.write_report(report, args.out)
            print(f"wrote {args.out}")
        return 0
    workload = bench.WORKLOADS[args.workload]
    baseline = None
    if args.baseline is not None:
        try:
            baseline = bench.load_report(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
        kind = baseline.get("bench") if isinstance(baseline, dict) else None
        if kind != workload.bench:
            print(f"baseline {args.baseline} is not a {workload.bench!r} report "
                  f"(found {kind!r})", file=sys.stderr)
            return 2
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        report = bench.measure(workload=args.workload, quick=args.quick,
                               seed=args.seed, jobs=args.jobs)
    finally:
        if profiler is not None:
            profiler.disable()
    print(bench.render(report))
    if args.out is not None:
        bench.write_report(report, args.out)
        print(f"wrote {args.out}")
    if profiler is not None:
        profile_anchor = args.out if args.out is not None else Path(workload.file)
        pstats_path, table_path = bench.write_profile(profiler, profile_anchor)
        print(f"wrote {pstats_path} and {table_path}")
    if baseline is not None:
        failures = bench.regression_failures(report, baseline,
                                             threshold=args.threshold)
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"no regression vs {args.baseline} "
              f"(threshold {args.threshold:.0%}, hardware-normalized)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids").set_defaults(func=_cmd_list)

    cache_kwargs = dict(type=Path, default=None, metavar="DIR",
                        help="session store directory (default: $REPRO_CACHE)")

    run_parser = sub.add_parser("run", help="regenerate tables/figures")
    run_parser.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    run_parser.add_argument("--full", action="store_true")
    run_parser.add_argument("--plot", action="store_true",
                            help="render ASCII figures where available")
    run_parser.add_argument("--seed", type=int, default=2024)
    run_parser.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N|auto",
                            help="worker processes for independent sessions (default 1)")
    run_parser.add_argument("--cache", **cache_kwargs)
    run_parser.add_argument("--reduce", action="store_true",
                            help="stream sessions through mergeable KPI "
                                 "sketches instead of materializing traces "
                                 "(fig01/fig12/table1)")
    run_parser.set_defaults(func=_cmd_run)

    campaign_parser = sub.add_parser("campaign", help="generate a synthetic campaign")
    campaign_parser.add_argument("--minutes", type=float, default=1.0)
    campaign_parser.add_argument("--session", type=float, default=10.0)
    campaign_parser.add_argument("--ul-fraction", type=float, default=0.3,
                                 help="fraction of UL sessions, 0..1 (default 0.3)")
    campaign_parser.add_argument("--seed", type=int, default=2024)
    campaign_parser.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N|auto",
                                 help="worker processes for campaign sessions (default 1)")
    campaign_parser.add_argument("--cache", **cache_kwargs)
    campaign_parser.add_argument("--out", type=Path, default=None)
    campaign_parser.add_argument("--out-format",
                                 choices=("csv", "jsonl", "npz"),
                                 default="csv",
                                 help="export format (default csv)")
    campaign_parser.add_argument("--reduce", action="store_true",
                                 help="fold sessions into streaming KPI "
                                      "sketches; peak memory stays bounded by "
                                      "worker count, not campaign size "
                                      "(incompatible with --out)")
    campaign_parser.set_defaults(func=_cmd_campaign)

    bench_parser = sub.add_parser("bench", help="tracked benchmarks")
    bench_parser.add_argument("--workload",
                              choices=("slot", "campaign", "reduce", "tensor"),
                              default="slot",
                              help="slot engines (default), the campaign "
                                   "execution layer, the streaming reduction "
                                   "path, or the cohort tensor engine")
    bench_parser.add_argument("--history", action="store_true",
                              help="fold every committed BENCH_*.json into one "
                                   "trajectory report instead of running a "
                                   "workload (combine with --out for JSON)")
    bench_parser.add_argument("--quick", action="store_true",
                              help="short workloads, fewer repetitions (CI mode)")
    bench_parser.add_argument("--seed", type=int, default=2024)
    bench_parser.add_argument("--jobs", type=_jobs_arg, default="auto", metavar="N|auto",
                              help="worker count for the campaign and reduce "
                                   "workloads (default auto); slot and tensor "
                                   "run serially")
    bench_parser.add_argument("--out", type=Path, default=None, metavar="FILE",
                              help="write the JSON report here (e.g. "
                                   "BENCH_slot_engine.json, BENCH_campaign.json)")
    bench_parser.add_argument("--baseline", type=Path, default=None, metavar="FILE",
                              help="committed report to compare against; exit 1 "
                                   "on a hardware-normalized regression")
    bench_parser.add_argument("--threshold", type=_threshold_arg, default=0.30,
                              help="allowed fractional regression (default 0.30)")
    bench_parser.add_argument("--profile", action="store_true",
                              help="wrap the workload in cProfile; write a "
                                   ".pstats dump and a top-20 cumulative-time "
                                   "table next to the BENCH json")
    bench_parser.set_defaults(func=_cmd_bench)

    cache_parser = sub.add_parser("cache", help="inspect/maintain a session store")
    cache_parser.add_argument("action",
                              choices=("stats", "verify", "clear", "evict"))
    cache_parser.add_argument("--cache", **cache_kwargs)
    cache_parser.add_argument("--max-mb", type=float, default=None,
                              help="size cap for evict, in MB")
    cache_parser.add_argument("--json", action="store_true",
                              help="stats: emit machine-readable counters")
    cache_parser.set_defaults(func=_cmd_cache)

    args = parser.parse_args(argv)
    if args.command in ("run", "campaign", "bench"):
        from repro.ran.config import pinned_engine

        try:
            pinned_engine()  # reads and validates $REPRO_ENGINE
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
