"""One repetition of a benchmark workload, in a fresh Python process.

Started by ``run.py`` with one JSON argument::

    {"workload": ..., "seed": ..., "tiny": ..., "role": ...,
     "store_dir": ... | null, "trace_dir": ... | null}

``role`` is ``"rep"`` (set up, run the timed body, report),
``"setup"`` (set up and exit), or ``"reference"`` (compute the oracle's
digests; the caller sets ``REPRO_ENGINE=reference``).  The process
prints ``@@e2e ready`` on stdout once set up, then ``@@e2e result
<json>``; everything else on stdout is ignored by the caller.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import workloads

MARK = "@@e2e"


def _emit(kind: str, payload: dict | None = None) -> None:
    line = f"{MARK} {kind}" if payload is None else f"{MARK} {kind} {json.dumps(payload)}"
    print(line, flush=True)


def _cpu(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def repetition(cfg: dict) -> dict:
    workload = workloads.WORKLOADS[cfg["workload"]]
    seed, tiny = cfg["seed"], cfg["tiny"]
    if cfg["role"] == "reference":
        _emit("ready")
        return {"digests": workloads.reference_digests(workload, seed, tiny)}

    session = workloads.Session(workload, seed, tiny, cfg["store_dir"])
    if cfg["trace_dir"] is not None:
        import spans

        session.tracer = spans.install(cfg["trace_dir"])  # before the pool forks
    _emit("ready")
    if cfg["role"] == "setup":
        session.close()
        return {}

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    outputs, experiment_walls = session.run()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    attributed = session.tracer.self_s() if session.tracer is not None else 0.0

    digests, n_ops = session.digests(outputs)
    del outputs
    session.close()  # joins the pool workers, so their usage is counted
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    pooled = session.executor is not None and session.executor.pools_created > 0

    import numpy

    result = {
        "wall_s": wall,
        # The workers live only inside the body (forked at its first
        # parallel dispatch), so all their CPU belongs to it.
        "cpu_s": _cpu(after) - _cpu(before) + _cpu(workers),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        # At jobs=1 the repetition process itself executes the sessions.
        "worker_peak_rss_mb": (workers.ru_maxrss if pooled else after.ru_maxrss) / 1024.0,
        "workers": session.executor.workers if pooled else 0,
        "n_ops": n_ops,
        "digests": digests,
        "experiment_walls": experiment_walls,
        "numpy": numpy.__version__,
    }
    if session.tracer is not None:
        result["trace"] = session.tracer.collect()
        result["attributed_s"] = attributed
    return result


def main() -> int:
    cfg = json.loads(sys.argv[1])
    try:
        result = repetition(cfg)
    except Exception:  # report, then fail: the caller counts the operations
        _emit("result", {"error": traceback.format_exc()})
        return 1
    _emit("result", result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
