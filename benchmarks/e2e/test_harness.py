"""Self-tests of the end-to-end benchmark, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--tiny", "--seconds", "0.1",
                           *args], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_campaign() -> dict:
    return _run("--workload", "campaign_cold", "--trace", "1")


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_printed_end_to_end_metrics_match_benchmark_json():
    out = _run("--workload", "paper_quick")
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_printed_per_layer_metrics_match_benchmark_json(traced_campaign):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced_campaign["metrics"].items()} == expected
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(spans.PER_LAYER)


def test_nested_span_self_time_is_total_minus_children():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return tracer.span("inner", lambda: None)

    def outer():
        tracer.span("inner", lambda: None)
        return tracer.span("middle", inner)

    tracer.span("outer", outer)
    agg = tracer.agg
    assert agg["inner"]["calls"] == 2
    # clock ticks: outer 0..7 around inner 1..2 and middle 3..6,
    # which wraps inner 4..5.
    assert agg["outer"]["total_s"] == 7 and agg["outer"]["child_s"] == 1 + 3
    assert agg["middle"]["total_s"] == 3 and agg["middle"]["child_s"] == 1
    assert agg["inner"]["total_s"] == 2 and agg["inner"]["child_s"] == 0
    # Self times of one process tile the wall its top-level span covers.
    assert tracer.self_s() == agg["outer"]["total_s"]


def test_forked_worker_spans_reach_the_parent(traced_campaign):
    from repro.core.runner import group_tasks_by_shape

    manifest = workloads.campaign_manifest(2024, tiny=True)
    cohorts = len(group_tasks_by_shape(manifest))
    metrics = {k: v["value"] for k, v in traced_campaign["metrics"].items()}
    # jobs=2: every cohort ran on a forked pool worker.
    assert metrics["ran.tensor.cohorts"] == cohorts
    assert metrics["ran.tensor.columns"] == len(manifest)
    assert metrics["core.runner.tasks"] == len(manifest)
    assert metrics["core.runner.worker_busy_frac"] > 0


def test_a_perturbed_trace_counts_as_a_failed_operation(monkeypatch):
    import repro.xcal.dataset as dataset

    workload = dataclasses.replace(workloads.WORKLOADS["campaign_cold"], jobs=1)
    seed = 2024
    original = dataset.simulate_downlink_cohort

    def perturbed(*args, **kwargs):
        for trace in original(*args, **kwargs):
            trace.delivered_bits[0] += 1
            yield trace

    monkeypatch.setattr(dataset, "simulate_downlink_cohort", perturbed)
    session = workloads.Session(workload, seed, True, None)
    outputs, _ = session.run()
    digests, n_ops = session.digests(outputs)
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    reference = workloads.reference_digests(workload, seed, True)
    failed = workloads.count_failures(digests, reference, n_ops)
    manifest = workloads.campaign_manifest(seed, True)
    downlink = [key for key in reference if manifest[int(key)].kwargs["direction"] == "DL"]
    assert failed == len(downlink) > 0
    monkeypatch.undo()
    assert workloads.count_failures(reference, reference, n_ops) == 0
