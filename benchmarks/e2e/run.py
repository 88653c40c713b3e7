"""End-to-end benchmark of what users of the reproduction run.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--tiny]

Each workload (see ``workloads.py``) runs repetitions one at a time,
each in a fresh Python process, so caches start cold the way they do
for a user's ``repro run``; repetitions continue until ``--seconds`` of
them have run.  The outputs are then checked against the reference
engine (untimed), ``/dev/shm`` is checked for leaked segments around
every repetition, and a table of every metric (median, quartiles,
sample count) goes to stdout, followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 1`` is a separate run: repetitions alternate untraced and
traced (``spans.py``), and the metrics are the per-layer ones.  The
full result, with the host record, is written under
``.bench_build/e2e/results/``.  Without ``--workload`` every workload
runs in turn.  ``--tiny`` shrinks every workload to a seconds-long
smoke size for the self-tests.  The exit status is 1 when any
operation failed, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_build" / "e2e"

#: Line prefix of ``rep.py``'s protocol lines.
MARK = "@@e2e"

#: ``(name, unit)`` of the end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("worker_peak_rss_mb", "MB"),
)

#: Fewest set-ups timed per run; set-up-only processes make up the rest.
MIN_SETUPS = 5

#: A run must exit within 180 s; no repetition starts past this budget.
RUN_BUDGET_S = 165.0

#: Trace mode starts a second untraced/traced pair only within this.
TRACE_BUDGET_S = 100.0

#: Name prefix of the program's shared-memory segments
#: (``repro.core.runner`` names them ``repro-<pid>-<run>-c<chunk>-<k>``).
SHM_PREFIX = "repro-"
SHM_DIR = Path("/dev/shm")


# ---------------------------------------------------------------------- #
# Child processes
# ---------------------------------------------------------------------- #
def child_env() -> dict[str, str]:
    """The user's environment minus any ``REPRO_*`` setting, with every
    file the program writes kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def _become_subreaper() -> None:
    """Adopt orphaned descendants (e.g. the shared-memory resource
    tracker a repetition starts) so that they can be waited for."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _group_alive(pgid: int) -> bool:
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:  # reap adopted orphans
            pass
    except ChildProcessError:
        pass
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _end_group(pgid: int) -> None:
    """Wait until every process of a repetition's group has ended,
    killing stragglers after a grace period."""
    for _ in range(2):
        deadline = time.monotonic() + 5.0
        while _group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.02)
        if not _group_alive(pgid):
            return
        _kill_group(pgid)


def spawn(cfg: dict, env: dict[str, str], timeout_s: float) -> dict[str, Any]:
    """Run one ``rep.py`` child to completion.

    Returns ``{"setup_s", "result", "leaked"}``: the time from spawn to
    its ready line, its result (``None`` if it failed or timed out) and
    how many shared-memory segments it left behind (then removed).
    """
    before = shm_segments()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "rep.py"), json.dumps(cfg)],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                            start_new_session=True)
    killer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
    killer.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            if not line.startswith(MARK + " "):
                continue
            kind, _, payload = line[len(MARK) + 1:].rstrip("\n").partition(" ")
            if kind == "ready":
                setup_s = time.perf_counter() - start
            elif kind == "result":
                result = json.loads(payload)
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            _kill_group(proc.pid)
            proc.wait()
        proc.stdout.close()
        _end_group(proc.pid)
    if result is None or "error" in result or proc.returncode != 0:
        print(f"[e2e] {cfg['workload']} {cfg['role']} exited {proc.returncode}: "
              f"{(result or {}).get('error', 'no result')}", file=sys.stderr)
        result = None
    leaked = shm_segments() - before
    for name in leaked:
        (SHM_DIR / name).unlink(missing_ok=True)
    return {"setup_s": setup_s, "result": result, "leaked": len(leaked)}


# ---------------------------------------------------------------------- #
# One workload run
# ---------------------------------------------------------------------- #
def execute(workload: Any, seed: int, seconds: float, trace: bool,
            tiny: bool) -> dict[str, Any]:
    """Start every child process of one run, one at a time.

    Returns the campaign_replay ``fill`` (or ``None``), the timed
    ``reps``, the ``setups`` timed and the oracle's ``reference``
    result.
    """
    run_dir = WORK / f"run-{os.getpid()}-{workload.name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()
    start = time.monotonic()
    spawned = 0

    def child(role: str, traced: bool = False, store_dir: Path | None = None,
              engine: str | None = None) -> dict:
        nonlocal spawned
        spawned += 1
        fresh_store = role == "rep" and workload.store == "fill"
        if fresh_store:
            store_dir = run_dir / f"store-{spawned}"
        trace_dir = run_dir / f"trace-{spawned}" if traced else None
        if trace_dir is not None:
            trace_dir.mkdir()
        cfg = {"workload": workload.name, "seed": seed, "tiny": tiny, "role": role,
               "store_dir": str(store_dir) if store_dir else None,
               "trace_dir": str(trace_dir) if trace_dir else None}
        timeout = max(5.0, RUN_BUDGET_S - (time.monotonic() - start))
        out = spawn(cfg, {**env, "REPRO_ENGINE": engine} if engine else env, timeout)
        out["traced"] = traced
        for scratch in (store_dir if fresh_store else None, trace_dir):
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
        return out

    try:
        fill = replay_store = None
        if workload.store == "replay":  # one fill per run, outside the timed reps
            replay_store = run_dir / "store-replay"
            fill = child("rep", traced=trace, store_dir=replay_store)

        # Until --seconds have run.  In trace mode: pairs of an untraced
        # and a traced repetition, two pairs when they fit in the budget.
        reps: list[dict] = []
        measure_start = time.monotonic()
        while True:
            reps.append(child("rep", traced=trace and len(reps) % 2 == 1,
                              store_dir=replay_store))
            elapsed = time.monotonic() - measure_start
            next_end = time.monotonic() - start + 2 * elapsed / len(reps)
            if trace:
                if len(reps) % 2 == 0 and (len(reps) >= 4 and elapsed >= seconds
                                           or next_end > TRACE_BUDGET_S):
                    break
            elif elapsed >= seconds:
                break
            if next_end > RUN_BUDGET_S:
                break

        setups = [r["setup_s"] for r in reps if r["setup_s"] is not None and not r["traced"]]
        while not trace and len(setups) < MIN_SETUPS:
            probe = child("setup")
            if probe["setup_s"] is None:
                break
            setups.append(probe["setup_s"])

        reference = child("reference", engine="reference")["result"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"fill": fill, "reps": reps, "setups": setups, "reference": reference,
            "run_s": time.monotonic() - start}


def failures(workload: Any, seed: int, tiny: bool, run: dict) -> tuple[int, int]:
    """``(attempted, failed)`` operations of one run.

    Every repetition's digests must equal the reference engine's on the
    oracle's sample, and the first repetition's (for campaign_replay:
    the fill's) everywhere else.  A leaked shared-memory segment counts
    as one failed operation.
    """
    import workloads

    if workload.kind == "paper":
        n_ops = len(workloads.paper_ids(workload, tiny))
    else:
        n_ops = len(workloads.campaign_manifest(seed, tiny))
    produced = ([run["fill"]] if run["fill"] else []) + run["reps"]
    good = [r["result"] for r in produced if r["result"] is not None]
    expected = dict(good[0]["digests"]) if good else {}
    failed = 0
    if run["reference"] is not None:
        expected.update(run["reference"]["digests"])
    else:
        failed += len(workloads.oracle_keys(workload, seed, tiny))
    for r in produced:
        failed += workloads.count_failures(r["result"] and r["result"]["digests"],
                                           expected, n_ops)
        failed += r["leaked"]
    attempted = n_ops * len(produced)
    return attempted, min(attempted, failed)


def samples(trace: bool, run: dict) -> dict[str, list[float]]:
    """Every reported metric's samples: the end-to-end ones, or with
    ``trace`` the per-layer ones."""
    import spans

    timed = [r["result"] for r in run["reps"] if r["result"] is not None]
    if not trace:
        return {metric: run["setups"] if metric == "setup_s" else [r[metric] for r in timed]
                for metric, _ in END_TO_END}
    out: dict[str, list[float]] = {}
    # campaign_replay's per-layer sample is its fill plus one replay.
    fill = run["fill"]["result"] if run["fill"] else None
    for result in timed:
        if "trace" not in result:
            continue
        snapshot, workers = result["trace"], result["workers"]
        if fill is not None:
            spans.merge_snapshot(snapshot, fill["trace"])
            workers = max(workers, fill["workers"])
        values = spans.layer_metrics(snapshot, result["wall_s"], result["attributed_s"],
                                     workers, result["experiment_walls"])
        for metric, value in values.items():
            out.setdefault(metric, []).append(value)
    reps = [r["result"] for r in run["reps"]]
    pairs = [(reps[i], reps[i + 1]) for i in range(0, len(reps) - 1, 2)
             if reps[i] is not None and reps[i + 1] is not None]
    if pairs:  # each pair: an untraced repetition, then a traced one
        out["trace.overhead_frac"] = [
            statistics.median(t["wall_s"] / u["wall_s"] for u, t in pairs) - 1]
    produced = ([run["fill"]] if run["fill"] else []) + run["reps"]
    out["core.runner.shm_leaked"] = [float(sum(r["leaked"] for r in produced))]
    return out


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one metric."""
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> dict[str, Any]:
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    run = execute(workload, seed, seconds, trace, tiny)
    attempted, failed = failures(workload, seed, tiny, run)
    values = samples(trace, run)
    units = [(m, u) for m, u, _ in spans.PER_LAYER] if trace else END_TO_END
    timed = [r["result"] for r in run["reps"] if r["result"] is not None]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "correct": failed == 0 and bool(timed),
        "attempted": attempted, "failed": failed,
        "metrics": {metric: {"unit": unit, **summarize(values[metric])}
                    for metric, unit in units if values.get(metric)},
        "reps": [{k: v for k, v in r.items() if k not in ("digests", "trace")}
                 for r in timed],
        "fill_wall_s": run["fill"]["result"]["wall_s"]
        if run["fill"] and run["fill"]["result"] else None,
        "numpy": timed[0]["numpy"] if timed else None,
        "run_s": run["run_s"],
    }


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def host_record() -> dict[str, Any]:
    from repro.ran._native import kernel_status, load_kernel

    load_kernel()  # the one-time compile, untimed
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "native_kernel": bool(kernel_status()["available"]),
    }


def render(result: dict[str, Any]) -> str:
    lines = [f"== {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"({result['run_s']:.1f} s) =="]
    for metric, m in result["metrics"].items():
        lines.append(f"  {metric:34s} {m['median']:14.6g} {m['unit']:6s} "
                     f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    default_seconds = json.loads(spec_path.read_text())["run_seconds"] \
        if spec_path.is_file() else 5
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="how long the timed repetitions run, per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer spans instead")
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long smoke sizes (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown}; known: {list(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    for sub in ("native", "tmp", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    _become_subreaper()
    host = host_record()

    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        result["host"] = {**host, "numpy": result.pop("numpy")}
        print(render(result), flush=True)
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1, sort_keys=True))
        results.append(result)

    prefix = len(results) > 1  # all workloads: metric names carry the workload
    metrics = {(f"{r['workload']}." if prefix else "") + metric:
               {"value": m["median"], "unit": m["unit"]}
               for r in results for metric, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
