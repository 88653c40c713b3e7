"""Tests for the tracked benchmarks (``repro bench``): the one gate and
renderer over the workload table."""

from __future__ import annotations

import copy

import pytest

from repro.core import bench


def _halve_rates(report: dict) -> dict:
    """``report`` on a machine half as fast: every timed row's rate halved."""
    slower = copy.deepcopy(report)
    for data in slower["workloads"].values():
        for cell in (data, data.get("vectorized"), data.get("reference")):
            for key in ("sessions_per_s", "warm_slots_per_s"):
                if cell and key in cell:
                    cell[key] /= 2.0
    return slower


def _halved(report: dict, name: str, engine: str | None = None) -> dict:
    """``report`` with one row's rate halved."""
    current = copy.deepcopy(report)
    cell = current["workloads"][name]
    if engine is None:
        cell["sessions_per_s"] /= 2.0
    else:
        cell[engine]["warm_slots_per_s"] /= 2.0
    return current


class _GateBehaviours:
    """Gate behaviours every workload of :data:`bench.WORKLOADS` shares.

    Each ``Test*RegressionGate`` subclass runs them for one workload: its
    table key, its baseline report, a current report in which only the
    gated row slowed (and the names its failures start with), a row
    whose deletion is reported cleanly, and an out-of-range threshold.
    Subclasses bind the last two behaviours under their own test names.
    """

    workload: str
    bad_threshold: float
    missing_row: str
    missing_failure: str
    slowdown_failures: list[str]

    def baseline(self) -> dict:
        raise NotImplementedError

    def gated_slowdown(self, base: dict) -> dict:
        raise NotImplementedError

    def identical(self) -> dict:
        return self.baseline()

    def test_table_entry_matches_report_kind(self):
        assert bench.WORKLOADS[self.workload].bench == self.baseline()["bench"]

    def test_identical_reports_pass(self):
        report = self.identical()
        assert bench.regression_failures(report, report) == []

    def test_uniform_slowdown_is_hardware_normalized_away(self):
        base = self.baseline()
        assert bench.regression_failures(_halve_rates(base), base) == []

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            bench.regression_failures(self.baseline(), self.baseline(),
                                      threshold=self.bad_threshold)

    def gated_only_slowdown_fails(self):
        base = self.baseline()
        failures = bench.regression_failures(self.gated_slowdown(base), base,
                                             threshold=0.30)
        assert sorted(f.split(":")[0] for f in failures) == \
            sorted(self.slowdown_failures)

    def missing_row_reports_cleanly(self):
        base = self.baseline()
        current = copy.deepcopy(base)
        del current["workloads"][self.missing_row]
        assert bench.regression_failures(current, base) == [self.missing_failure]


def _report(single_vec=800_000.0, single_ref=600_000.0,
            mmwave_vec=700_000.0, mmwave_ref=400_000.0) -> dict:
    def cell(warm):
        return {"cold_slots_per_s": warm / 2, "warm_slots_per_s": warm}

    return {
        "bench": "slot_engine",
        "schema": bench.BENCH_SCHEMA_VERSION,
        "quick": True,
        "workloads": {
            "single_ue": {"vectorized": cell(single_vec),
                          "reference": cell(single_ref), "n_slots": 4000},
            "mmwave": {"vectorized": cell(mmwave_vec),
                       "reference": cell(mmwave_ref), "n_slots": 64000},
        },
        "speedup": {
            "single_ue_vectorized_vs_reference": round(single_vec / single_ref, 2),
            "mmwave_vectorized_vs_reference": round(mmwave_vec / mmwave_ref, 2),
        },
    }


class TestRegressionGate(_GateBehaviours):
    workload, bad_threshold = "slot", 1.5
    missing_row = "mmwave"
    missing_failure = "mmwave: missing from current report"
    slowdown_failures = ["single_ue"]

    def baseline(self):
        return _report()

    def gated_slowdown(self, base):
        return _halved(base, "single_ue", "vectorized")

    test_vectorized_only_slowdown_fails = _GateBehaviours.gated_only_slowdown_fails
    test_missing_workload_fails = _GateBehaviours.missing_row_reports_cleanly

    def test_vectorized_not_beating_reference_fails(self):
        # The vectorized engine's warm floor is the reference engine's
        # warm rate, in both modes.
        for quick in (True, False):
            report = _report(mmwave_vec=350_000.0, mmwave_ref=400_000.0)
            report["quick"] = quick
            failures = bench.regression_failures(report, report)
            assert [f.split(":")[0] for f in failures] == [
                "mmwave_vectorized_vs_reference"]

    def test_vectorized_matching_reference_passes(self):
        report = _report(single_vec=600_000.0, single_ref=600_000.0)
        assert bench.regression_failures(report, report) == []


def _campaign_report(jobs1_cold=50.0, jobs1_warm=400.0, pipe=90.0,
                     routed_cold=150.0, routed_warm=420.0,
                     shm_cold=65.0, cpu_count=4) -> dict:
    def cell(rate):
        return {"sessions_per_s": rate, "wall_s": round(12.0 / rate, 3)}

    return {
        "bench": "campaign",
        "schema": bench.BENCH_SCHEMA_VERSION,
        "quick": True,
        "config": {"profiles": ["V_Sp", "O_Sp_100", "T_Ge", "V_Ge"],
                   "n_sessions": 12, "jobs": 2, "seed": 2024,
                   "cpu_count": cpu_count},
        "pool": {"workers": 2, "pools_created": 1, "dispatches": 2,
                 "tasks_executed": 12, "tasks_routed": 12},
        "workloads": {
            "jobs1_cold": cell(jobs1_cold),
            "jobs1_warm": cell(jobs1_warm),
            "pipe_cold": cell(pipe),
            "store_routed_cold": cell(routed_cold),
            "store_routed_warm": cell(routed_warm),
            "shm_cold": {**cell(shm_cold), "jobs": 2},
        },
        "speedup": {
            "routed_cold_vs_pipe_cold": round(routed_cold / pipe, 2),
            "warm_vs_pre_pr_pipe": round(routed_warm / pipe, 2),
            "shm_cold_vs_jobs1_cold": round(shm_cold / jobs1_cold, 2),
            "shm_cold_vs_pipe_cold": round(shm_cold / pipe, 2),
        },
    }


class TestCampaignRegressionGate(_GateBehaviours):
    workload, bad_threshold = "campaign", 0.0
    missing_row = "jobs1_cold"
    missing_failure = "jobs1_cold: reference workload missing from a report"
    slowdown_failures = ["store_routed_cold"]

    def baseline(self):
        return _campaign_report()

    def gated_slowdown(self, base):
        return _halved(base, "store_routed_cold")

    test_routed_only_slowdown_fails = _GateBehaviours.gated_only_slowdown_fails
    test_missing_reference_reports_cleanly = \
        _GateBehaviours.missing_row_reports_cleanly

    def test_pipe_path_is_not_gated(self):
        # The legacy comparator may drift; only the tracked paths gate.
        base = _campaign_report()
        current = copy.deepcopy(base)
        current["workloads"]["pipe_cold"]["sessions_per_s"] /= 10.0
        assert bench.regression_failures(current, base) == []

    def test_missing_gated_workload_fails(self):
        base = _campaign_report()
        current = copy.deepcopy(base)
        del current["workloads"]["store_routed_warm"]
        failures = bench.regression_failures(current, base)
        assert failures == ["store_routed_warm: missing from current report"]

    def test_routed_cold_below_pipe_floor_fails(self):
        # Same report as baseline, so normalization passes; only the
        # intra-report routed-vs-pipe floor can fire.
        report = _campaign_report(routed_cold=70.0, pipe=90.0)
        report["quick"] = False
        failures = bench.regression_failures(report, report)
        assert len(failures) == 1
        assert failures[0].startswith("routed_cold_vs_pipe_cold:")

    def test_routed_cold_within_noise_floor_passes(self):
        report = _campaign_report(routed_cold=85.0, pipe=90.0)  # 0.94x
        report["quick"] = False
        assert bench.regression_failures(report, report) == []

    def test_shm_below_parallel_efficiency_floor_fails(self):
        # Full-mode, multi-core: shm with 2 workers must reach 1.2x serial.
        report = _campaign_report(shm_cold=55.0)  # 1.10x vs jobs1_cold
        report["quick"] = False
        failures = bench.regression_failures(report, report)
        assert len(failures) == 1
        assert failures[0].startswith("shm_cold_vs_jobs1_cold:")

    def test_shm_floor_relaxed_in_quick_mode(self):
        # Quick workloads are spawn-dominated; 1.10x clears the 0.85 floor.
        report = _campaign_report(shm_cold=55.0)
        assert bench.regression_failures(report, report) == []

    def test_shm_floor_relaxed_on_single_core(self):
        # Two workers timesharing one core cannot beat serial wall-clock;
        # the gate degrades to break-even there.
        report = _campaign_report(shm_cold=55.0, cpu_count=1)
        report["quick"] = False
        assert bench.regression_failures(report, report) == []

    def test_shm_losing_to_serial_fails_everywhere(self):
        # The pre-arena serialization tax (0.58x) must fail on any host.
        report = _campaign_report(shm_cold=29.0, cpu_count=1)
        report["quick"] = False
        failures = bench.regression_failures(report, report)
        assert any(f.startswith("shm_cold_vs_jobs1_cold:") for f in failures)

    def test_shm_unavailable_platform_skips_gate(self):
        report = _campaign_report()
        del report["workloads"]["shm_cold"]
        del report["speedup"]["shm_cold_vs_jobs1_cold"]
        del report["speedup"]["shm_cold_vs_pipe_cold"]
        report["shm_unavailable"] = True
        assert bench.regression_failures(report, report) == []

    def test_missing_shm_workload_fails_when_available(self):
        report = _campaign_report()
        del report["speedup"]["shm_cold_vs_jobs1_cold"]
        failures = bench.regression_failures(report, report)
        assert any("shm workload did not run" in f for f in failures)

    def test_quick_reports_get_pipe_floor_slack(self):
        # Pool spawn dominates a quick run's sub-second wall, so the
        # same 0.78x ratio passes in quick mode but not full mode.
        report = _campaign_report(routed_cold=70.0, pipe=90.0)  # quick
        assert bench.regression_failures(report, report) == []
        worse = _campaign_report(routed_cold=60.0, pipe=90.0)  # 0.67x
        failures = bench.regression_failures(worse, worse)
        assert any(f.startswith("routed_cold_vs_pipe_cold:")
                   for f in failures)

    def test_routed_warm_is_not_normalized_across_modes(self):
        # Memo-replay sessions/s is fixed-overhead-bound, so a warm
        # rate below the normalized floor must pass as long as it
        # still crushes its own cold run.
        base = _campaign_report(routed_warm=420.0)
        # Machine 2x faster (jobs1_cold 50 -> 100); warm replay only
        # reaches 520 < the 420 * 2 * 0.7 = 588 normalized floor, but
        # still beats its own cold run by 2x+.
        current = _campaign_report(jobs1_cold=100.0, jobs1_warm=800.0,
                                   pipe=180.0, routed_cold=250.0,
                                   routed_warm=520.0, shm_cold=130.0)
        assert bench.regression_failures(current, base) == []

    def test_serial_warm_below_5x_fails_in_quick_mode(self):
        # 240 / 50 = 4.8x: quick serial memo replay that slow is
        # recomputing; full mode keeps the 2x floor.
        report = _campaign_report(jobs1_warm=240.0)
        failures = bench.regression_failures(report, report)
        assert len(failures) == 1
        assert failures[0].startswith("jobs1_warm:")
        ok = _campaign_report(jobs1_warm=250.0)
        assert bench.regression_failures(ok, ok) == []
        report["quick"] = False
        assert bench.regression_failures(report, report) == []
        slow = _campaign_report(jobs1_warm=95.0)  # 1.9x
        slow["quick"] = False
        failures = bench.regression_failures(slow, slow)
        assert len(failures) == 1
        assert failures[0].startswith("jobs1_warm:")

    def test_routed_warm_below_intra_report_floor_fails(self):
        report = _campaign_report(routed_cold=150.0, routed_warm=200.0)
        failures = bench.regression_failures(report, report)
        assert any("memo replay is recomputing" in f for f in failures)



class TestCampaignRender:
    def test_render_lists_workloads_speedup_and_pool(self):
        text = bench.render(_campaign_report())
        assert "store_routed_cold" in text and "pipe_cold" in text
        assert "4.67x" in text  # 420 / 90 warm-vs-pipe speedup
        assert "workers=2" in text and "routed=12" in text


class TestCampaignWorkloadShape:
    def test_manifest_is_deterministic_and_covers_profiles(self):
        a = bench.campaign_tasks(quick=True, seed=2024)
        b = bench.campaign_tasks(quick=True, seed=2024)
        assert [t.label for t in a] == [t.label for t in b]
        assert [t.seed for t in a] == [t.seed for t in b]
        operators = {t.label.rsplit("/", 2)[0] for t in a}
        assert operators == {"V_Sp", "O_Sp_100", "T_Ge", "V_Ge"}

    def test_quick_mode_is_smaller(self):
        assert len(bench.campaign_tasks(quick=True)) <= \
            len(bench.campaign_tasks(quick=False))


def _reduce_report(exact=12.0, reduce_cold=12.5, store_cold=11.0,
                   store_warm=1200.0, exact_peak=10.0, reduce_peak=2.7,
                   kpi_ok=True, demo_peak=None) -> dict:
    def cell(rate, peak):
        return {"sessions_per_s": rate, "wall_s": round(12.0 / rate, 3),
                "peak_mb": peak}

    report = {
        "bench": "reduce",
        "schema": bench.BENCH_SCHEMA_VERSION,
        "quick": True,
        "config": {"profiles": ["V_Sp", "O_Sp_100", "T_Ge", "V_Ge"],
                   "n_sessions": 12, "jobs": 1, "cold_reps": 2, "seed": 2024},
        "workloads": {
            "exact_cold": cell(exact, exact_peak),
            "reduce_cold": cell(reduce_cold, reduce_peak),
            "reduce_store_cold": cell(store_cold, reduce_peak),
            "reduce_store_warm": cell(store_warm, 0.2),
        },
        "kpi_check": {"ok": kpi_ok, "groups": 8, "max_mean_rel_err": 0.0,
                      "max_std_rel_err": 0.0, "max_percentile_err": 1.9,
                      "percentile_tolerance": 4.0},
        "speedup": {"reduce_cold_vs_exact_cold": round(reduce_cold / exact, 2),
                    "memo_warm_vs_cold": round(store_warm / store_cold, 2)},
        "memory": {"reduce_vs_exact_peak": round(reduce_peak / exact_peak, 3)},
    }
    if demo_peak is not None:
        report["demo"] = {"sessions_per_s": 200.0, "wall_s": 50.0,
                          "peak_mb": demo_peak, "n_sessions": 10000,
                          "peak_vs_reduce_cold": round(demo_peak / reduce_peak, 3)}
    return report


class TestReduceRegressionGate(_GateBehaviours):
    workload, bad_threshold = "reduce", 2.0
    missing_row = "exact_cold"
    missing_failure = "exact_cold: reference workload missing from a report"
    slowdown_failures = ["reduce_cold"]

    def baseline(self):
        return _reduce_report()

    def identical(self):
        return _reduce_report(demo_peak=3.0)

    def gated_slowdown(self, base):
        return _halved(base, "reduce_cold")

    test_reduce_only_slowdown_fails = _GateBehaviours.gated_only_slowdown_fails
    test_missing_reference_reports_cleanly = \
        _GateBehaviours.missing_row_reports_cleanly

    def test_failed_kpi_oracle_fails(self):
        report = _reduce_report(kpi_ok=False)
        failures = bench.regression_failures(report, report)
        assert any(f.startswith("kpi_check:") for f in failures)

    def test_memo_warm_is_not_normalized_across_modes(self):
        # Memo-hit sessions/s tracks the manifest size, not machine
        # speed: a slow warm rate with a fast exact_cold must not trip
        # the normalized gate as long as it still crushes recompute.
        base = _reduce_report(store_warm=1200.0)
        current = _reduce_report(exact=20.0, reduce_cold=21.0,
                                 store_warm=500.0)
        assert bench.regression_failures(current, base) == []

    def test_memo_warm_below_intra_report_floor_fails(self):
        report = _reduce_report(store_cold=100.0, store_warm=300.0)  # 3x
        failures = bench.regression_failures(report, report)
        assert any(f.startswith("memo_warm_vs_cold:") for f in failures)

    def test_unbounded_reduce_peak_fails(self):
        report = _reduce_report(reduce_peak=8.0, exact_peak=10.0)
        failures = bench.regression_failures(report, report)
        assert any(f.startswith("reduce_cold peak") for f in failures)

    def test_demo_peak_must_track_chunk_size(self):
        report = _reduce_report(demo_peak=50.0)
        failures = bench.regression_failures(report, report)
        assert any(f.startswith("demo peak") for f in failures)



class TestReduceRender:
    def test_render_lists_workloads_oracle_and_demo(self):
        text = bench.render(_reduce_report(demo_peak=3.0))
        assert "reduce_store_warm" in text and "exact_cold" in text
        assert "PASS" in text and "10000 sessions" in text
        assert "0.27x exact peak" in text


class TestReduceWorkloadShape:
    def test_demo_manifest_is_campaign_shaped_and_large(self):
        manifest = bench.reduce_demo_tasks(seed=7)
        assert len(manifest) >= 10_000
        operators = {t.label.rsplit("/", 2)[0] for t in manifest}
        assert operators == {"V_Sp", "O_Sp_100", "T_Ge", "V_Ge"}


def _tensor_report(session_cold=150.0, session_warm=155.0,
                   tensor_cold=525.0, tensor_warm=550.0,
                   cohorts=8, quick=True) -> dict:
    def cell(rate):
        return {"sessions_per_s": rate, "wall_s": round(64.0 / rate, 3)}

    return {
        "bench": "tensor",
        "schema": bench.BENCH_SCHEMA_VERSION,
        "quick": quick,
        "config": {"profiles": ["V_Sp", "O_Sp_100"], "n_sessions": 64,
                   "cohort_size": 32, "cold_reps": 2, "seed": 2024},
        "workloads": {
            "session_cold": cell(session_cold),
            "session_warm": cell(session_warm),
            "tensor_cold": cell(tensor_cold),
            "tensor_warm": cell(tensor_warm),
        },
        "cohort": {"cohorts": cohorts, "columns": cohorts * 32,
                   "cells": 51200,
                   "dirty_periods": 28000,
                   "dirty_fraction": 0.5469,
                   "native_kernel": bool(cohorts),
                   "native_error": None if cohorts else
                   "RuntimeError: no C compiler on PATH (set CC to override)",
                   "tensor_slots_per_s": 1.4e6},
        "phases": {"predraw_s": 0.05, "tensor_pass_s": 0.09,
                   "batched_retx_s": 0.04, "flush_s": 0.13,
                   "total_s": 0.45},
        "speedup": {
            "tensor_cold_vs_session_cold": round(tensor_cold / session_cold, 2),
            "tensor_warm_vs_session_warm": round(tensor_warm / session_warm, 2),
        },
    }


class TestTensorRegressionGate(_GateBehaviours):
    workload, bad_threshold = "tensor", 1.0
    missing_row = "session_cold"
    missing_failure = "session_cold: reference workload missing from a report"
    # Fails both the normalized gate and the intra-report floor.
    slowdown_failures = ["tensor_cold", "tensor_cold_vs_session_cold"]

    def baseline(self):
        return _tensor_report()

    def gated_slowdown(self, base):
        return _tensor_report(tensor_cold=525.0 / 2.5, tensor_warm=220.0)

    test_tensor_only_slowdown_fails = _GateBehaviours.gated_only_slowdown_fails
    test_missing_reference_reports_cleanly = \
        _GateBehaviours.missing_row_reports_cleanly

    def test_speedup_below_floor_fails_intra_report(self):
        # 2.2x < the full-mode 2.5x floor even with itself as baseline.
        report = _tensor_report(tensor_cold=330.0, quick=False)
        failures = bench.regression_failures(report, report)
        assert any(f.startswith("tensor_cold_vs_session_cold:")
                   for f in failures)

    def test_quick_reports_get_floor_slack(self):
        # The same 2.2x passes in quick mode (floor 2.0x).
        report = _tensor_report(tensor_cold=330.0, quick=True)
        assert bench.regression_failures(report, report) == []

    def test_no_cohorts_run_fails(self):
        # A policy regression degrading every cohort to the per-session
        # engine gates red even at a 1.0x-ish honest ratio, and a host
        # without the retx kernel names the reason.
        report = _tensor_report(cohorts=0)
        failures = bench.regression_failures(report, report)
        cohort = [f for f in failures if f.startswith("cohort:")]
        assert len(cohort) == 1 and "no C compiler on PATH" in cohort[0]



class TestTensorRender:
    def test_render_lists_workloads_speedup_and_counters(self):
        text = bench.render(_tensor_report())
        assert "tensor_cold" in text and "session_cold" in text
        assert "3.50x" in text  # 525 / 150 cold speedup
        assert "cohorts=8 columns=256 dirty_periods=28000" in text

    def test_render_shows_dirty_split_and_phases(self):
        text = bench.render(_tensor_report())
        assert "dirty=54.7% of 51200 cells" in text
        assert "residual" not in text
        assert "phases:" in text and "batched_retx=0.04s" in text


class TestTensorWorkloadShape:
    def test_manifest_is_maximal_dl_cohorts(self):
        from repro.core.runner import group_tasks_by_shape

        manifest = bench.tensor_tasks(quick=True, seed=2024)
        groups = group_tasks_by_shape(manifest)
        assert len(groups) == 2  # one cohort per operator, no UL split
        assert all(len(g) == 32 for g in groups)
        assert all(t.kwargs["direction"] == "DL" for t in manifest)

    def test_manifest_is_deterministic(self):
        a = bench.tensor_tasks(quick=True, seed=2024)
        b = bench.tensor_tasks(quick=True, seed=2024)
        assert [t.label for t in a] == [t.label for t in b]
        assert [t.seed for t in a] == [t.seed for t in b]


class TestReportIo:
    def test_write_then_load_roundtrip(self, tmp_path):
        report = _report()
        path = tmp_path / "bench.json"
        bench.write_report(report, path)
        assert bench.load_report(path) == report
        # Stable output: diff-friendly, newline-terminated.
        text = path.read_text()
        assert text.endswith("\n")
        bench.write_report(report, path)
        assert path.read_text() == text

    def test_write_profile_dumps_stats_and_table(self, tmp_path):
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        sum(range(1000))
        profiler.disable()

        report_path = tmp_path / "BENCH_tensor.json"
        pstats_path, table_path = bench.write_profile(profiler, report_path,
                                                      top=5)
        assert pstats_path == tmp_path / "BENCH_tensor.pstats"
        assert table_path == tmp_path / "BENCH_tensor.profile.txt"
        # The dump reloads as pstats and the table lists hot functions
        # by cumulative time.
        pstats.Stats(str(pstats_path))
        table = table_path.read_text()
        assert "cumtime" in table
        assert "sum" in table


class TestRender:
    def test_render_lists_workloads_and_speedup(self):
        report = _report()
        report["quick"] = False
        report["config"] = {"profile": "V_Sp", "duration_s": 5.0,
                            "repetitions": 11, "seed": 2024}
        text = bench.render(report)
        assert "single_ue" in text and "mmwave" in text
        assert "vectorized" in text and "reference" in text
