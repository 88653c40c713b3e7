"""Workloads of the end-to-end benchmark, their outputs and their oracle.

Every workload is something a user of the reproduction runs and waits
for: ``repro run`` over the paper's experiments, or ``repro campaign``
with or without a trace store.  The load is offline batch: one client
in a closed loop, one invocation at a time, with at most ``nproc`` (2)
pool workers.  Inputs come from the seed alone.

Outputs are compared as digests: the rendered text of each experiment,
or the bytes of each campaign session's trace.  The oracle is the
reference slot engine (``REPRO_ENGINE=reference``), which every other
engine, tier and transport must match byte for byte.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"paper"`` (``run_experiment`` over ``ids``; ``None``
    means every registered experiment) or ``"campaign"``
    (``generate_campaign`` over every operator profile).  ``store`` is
    ``""`` (no store), ``"fill"`` (every repetition fills a fresh store)
    or ``"replay"`` (one untimed fill per run, then repetitions replay
    it).  The paper oracle re-runs every ``oracle_shards``-th experiment
    under the reference engine, starting at ``seed % oracle_shards``,
    so consecutive seeds cover all of them.
    """

    name: str
    kind: str
    ids: tuple[str, ...] | None = None
    quick: bool = True
    jobs: int = 2
    store: str = ""
    oracle_shards: int = 1


#: The experiments built from long single sessions (carrier aggregation,
#: 120 kHz mmWave, video over minutes-long channels).  They hold about
#: two thirds of a full-mode ``repro run``; the rest is short sessions.
LONG_SESSION_IDS = ("fig07", "fig15", "fig17", "fig18", "fig19", "fig24")

#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("paper_full", kind="paper", ids=LONG_SESSION_IDS, quick=False, jobs=1,
             oracle_shards=6),
    Workload("paper_quick", kind="paper", quick=True, jobs=2, oracle_shards=4),
    Workload("campaign_cold", kind="campaign"),
    Workload("campaign_fill", kind="campaign", store="fill"),
    Workload("campaign_replay", kind="campaign", store="replay"),
)}

#: Stand-ins for ``--tiny`` self-test runs: same code paths, seconds long.
TINY_PAPER_IDS = ("fig02", "fig05", "table2")


def paper_ids(workload: Workload, tiny: bool) -> tuple[str, ...]:
    from repro.experiments import EXPERIMENT_IDS

    if tiny:
        return TINY_PAPER_IDS
    return workload.ids if workload.ids is not None else tuple(EXPERIMENT_IDS)


def campaign_spec(seed: int, tiny: bool) -> Any:
    from repro.xcal.dataset import CampaignSpec

    if tiny:
        return CampaignSpec(minutes_per_operator=0.2, session_s=2.0,
                            ul_fraction=0.3, seed=seed)
    return CampaignSpec(minutes_per_operator=5.0, session_s=10.0,
                        ul_fraction=0.3, seed=seed)


def campaign_manifest(seed: int, tiny: bool) -> list:
    from repro.operators.profiles import ALL_PROFILES
    from repro.xcal.dataset import campaign_manifest as expand

    return expand(ALL_PROFILES, campaign_spec(seed, tiny))


def oracle_keys(workload: Workload, seed: int, tiny: bool) -> list[str]:
    """Output keys the reference engine re-computes for this seed."""
    if workload.kind == "paper":
        ids = paper_ids(workload, tiny)
        return list(ids[seed % workload.oracle_shards::workload.oracle_shards])
    n_sessions = len(campaign_manifest(seed, tiny))
    return [str(index) for index in range(seed % 10, n_sessions, 10)]


# ---------------------------------------------------------------------- #
# Digests
# ---------------------------------------------------------------------- #
def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def trace_digest(trace: Any) -> str:
    """Digest of a slot trace's bytes: every column with its dtype, the
    numerology and the metadata."""
    import numpy as np
    from repro.xcal.records import TRACE_COLUMNS

    digest = hashlib.sha256()
    for name in TRACE_COLUMNS:
        column = np.ascontiguousarray(trace.column(name))
        digest.update(column.dtype.str.encode())
        digest.update(column.data)
    digest.update(repr((int(trace.mu), sorted(trace.metadata.as_dict().items()))).encode())
    return digest.hexdigest()[:16]


def campaign_traces(campaign: Any, manifest: list) -> list:
    """A campaign's traces back in manifest order."""
    queues = {}
    for direction, collection in (("DL", campaign.dl_traces), ("UL", campaign.ul_traces)):
        for key, traces in collection.items():
            queues[(key, direction)] = iter(traces)
    order = []
    for task in manifest:
        key, direction, _ = task.label.rsplit("/", 2)
        order.append(next(queues[(key, direction)]))
    return order


def count_failures(digests: dict[str, str] | None, expected: dict[str, str],
                   n_ops: int) -> int:
    """Operations of one repetition whose output differs from ``expected``.

    A repetition that produced nothing (crashed, timed out) failed every
    operation; a missing or extra key counts as one failure.
    """
    if digests is None:
        return n_ops
    keys = set(expected) | set(digests)
    failed = sum(1 for key in keys if digests.get(key) != expected.get(key))
    return min(failed, n_ops)


# ---------------------------------------------------------------------- #
# What one repetition runs (inside the child process)
# ---------------------------------------------------------------------- #
class Session:
    """Everything one repetition sets up before its timed body: imports
    (the program and the workload's experiment modules), the store and
    the executor."""

    def __init__(self, workload: Workload, seed: int, tiny: bool,
                 store_dir: str | None) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.tracer: Any = None
        self.store = None
        self.executor = None
        if workload.kind == "paper":
            import importlib

            from repro.experiments import _MODULES  # the registry's module table

            self.ids = paper_ids(workload, tiny)
            for experiment_id in self.ids:
                importlib.import_module(_MODULES[experiment_id])
        else:
            import repro.xcal.dataset  # noqa: F401  (what `repro campaign` imports)

            self.spec = campaign_spec(seed, tiny)
        if store_dir is not None:
            from repro.store import TraceStore

            self.store = TraceStore(store_dir)
        if workload.jobs > 1:
            # Like the CLI's: the pool forks lazily at the first parallel
            # dispatch, inside the timed body.  Forking it here instead
            # would change the program (workers forked before the shm
            # probe start resource trackers of their own).
            from repro.core.runner import CampaignExecutor

            self.executor = CampaignExecutor(jobs=workload.jobs, store=self.store)

    def run(self) -> tuple[dict[str, Any], dict[str, float]]:
        """The timed body: ``(outputs, per-experiment wall)``.

        Outputs are raw (rendered text or the campaign); digesting
        happens after the clock stops.
        """
        if self.workload.kind == "paper":
            from repro.experiments import run_experiment

            texts: dict[str, Any] = {}
            walls: dict[str, float] = {}
            kwargs = dict(seed=self.seed, quick=self.workload.quick,
                          jobs=self.workload.jobs, executor=self.executor)
            for experiment_id in self.ids:
                start = time.perf_counter()
                if self.tracer is not None:
                    result = self.tracer.span("experiments", run_experiment,
                                              experiment_id, **kwargs)
                else:
                    result = run_experiment(experiment_id, **kwargs)
                texts[experiment_id] = result.render()
                walls[experiment_id] = time.perf_counter() - start
            return texts, walls
        from repro.xcal.dataset import generate_campaign

        campaign = generate_campaign(spec=self.spec, jobs=self.workload.jobs,
                                     store=self.store, executor=self.executor)
        campaign.summary_rows()  # what `repro campaign` prints: reads every trace
        return {"campaign": campaign}, {}

    def digests(self, outputs: dict[str, Any]) -> tuple[dict[str, str], int]:
        """``(digests, operations)``: every experiment; every campaign
        session when replaying a store, else the oracle's sample."""
        if self.workload.kind == "paper":
            return {key: text_digest(text) for key, text in outputs.items()}, len(outputs)
        manifest = campaign_manifest(self.seed, self.tiny)
        traces = campaign_traces(outputs["campaign"], manifest)
        keys = range(len(traces)) if self.workload.store == "replay" else \
            map(int, oracle_keys(self.workload, self.seed, self.tiny))
        return {str(i): trace_digest(traces[i]) for i in keys}, len(traces)

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()


def reference_digests(workload: Workload, seed: int, tiny: bool) -> dict[str, str]:
    """The oracle's digests for :func:`oracle_keys`, computed serially.

    Run with ``REPRO_ENGINE=reference`` in the environment.
    """
    keys = oracle_keys(workload, seed, tiny)
    if workload.kind == "paper":
        from repro.experiments import run_experiment

        return {key: text_digest(run_experiment(key, seed=seed, quick=workload.quick).render())
                for key in keys}
    manifest = campaign_manifest(seed, tiny)
    return {key: trace_digest(manifest[int(key)].execute()) for key in keys}
