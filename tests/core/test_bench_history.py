"""``repro bench --history``: folding BENCH_*.json into one trajectory."""

from __future__ import annotations

import json

from repro.core import bench


def _write(path, payload):
    path.write_text(json.dumps(payload))


def _campaign_report():
    return {
        "bench": "campaign", "schema": 1, "quick": False,
        "workloads": {
            "jobs1_cold": {"sessions_per_s": 40.0, "wall_s": 0.6},
            "shm_cold": {"sessions_per_s": 50.0, "wall_s": 0.48, "jobs": 2},
        },
        "speedup": {"shm_cold_vs_jobs1_cold": 1.25},
    }


def _reduce_report():
    return {
        "bench": "reduce", "schema": 1, "quick": True,
        "workloads": {"reduce_cold": {"sessions_per_s": 260.0, "wall_s": 0.5}},
        "speedup": {"reduce_cold_vs_exact_cold": 3.1},
    }


def _slot_report():
    def cell(warm):
        return {"cold_slots_per_s": warm / 2, "warm_slots_per_s": warm}

    return {
        "bench": "slot_engine", "schema": 1, "quick": False,
        "workloads": {
            "single_ue": {"policy": cell(800_000.0),
                          "reference": cell(600_000.0), "n_slots": 10000},
        },
    }


class TestHistoryReport:
    def test_folds_all_reports(self, tmp_path):
        _write(tmp_path / "BENCH_campaign.json", _campaign_report())
        _write(tmp_path / "BENCH_reduce.json", _reduce_report())
        _write(tmp_path / "BENCH_slot_engine.json", _slot_report())
        report = bench.history_report(tmp_path)
        assert report["bench"] == "history"
        kinds = {e["kind"]: e for e in report["reports"]}
        assert set(kinds) == {"campaign", "reduce", "slot_engine"}
        assert kinds["campaign"]["throughput"]["shm_cold"] == 50.0
        # Slot rows are nested per engine; each engine's warm rate folds.
        assert kinds["slot_engine"]["throughput"] == {
            "single_ue/policy": 800_000.0,
            "single_ue/reference": 600_000.0}
        assert kinds["campaign"]["speedup"]["shm_cold_vs_jobs1_cold"] == 1.25
        assert kinds["reduce"]["speedup"]["reduce_cold_vs_exact_cold"] == 3.1
        assert report["skipped"] == []

    def test_corrupt_file_is_skipped_not_fatal(self, tmp_path):
        _write(tmp_path / "BENCH_campaign.json", _campaign_report())
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        _write(tmp_path / "BENCH_other.json", {"no": "bench key"})
        _write(tmp_path / "BENCH_x.json", [])
        report = bench.history_report(tmp_path)
        assert [e["kind"] for e in report["reports"]] == ["campaign"]
        assert len(report["skipped"]) == 3

    def test_empty_directory(self, tmp_path):
        report = bench.history_report(tmp_path)
        assert report["reports"] == [] and report["skipped"] == []

    def test_committed_reports_fold(self):
        # The repo's own BENCH artifacts must always be foldable.
        report = bench.history_report(".")
        assert len(report["reports"]) >= 3
        assert report["skipped"] == []


class TestRenderHistory:
    def test_renders_table(self, tmp_path):
        _write(tmp_path / "BENCH_campaign.json", _campaign_report())
        _write(tmp_path / "BENCH_reduce.json", _reduce_report())
        text = bench.render_history(bench.history_report(tmp_path))
        assert "BENCH_campaign.json [campaign, full]" in text
        assert "BENCH_reduce.json [reduce, quick]" in text
        assert "shm_cold_vs_jobs1_cold" in text
        assert "reduce_cold_vs_exact_cold" in text and "3.10x" in text

    def test_renders_empty(self, tmp_path):
        text = bench.render_history(bench.history_report(tmp_path))
        assert "no BENCH_*.json reports found" in text

    def test_cli_flag(self, capsys):
        from repro.__main__ import main

        assert main(["bench", "--history"]) == 0
        out = capsys.readouterr().out
        assert "benchmark trajectory" in out
