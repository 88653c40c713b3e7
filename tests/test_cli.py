"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
from repro.experiments import EXPERIMENT_IDS
from repro.store import TraceStore


class TestList:
    def test_lists_all_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENT_IDS)


class TestRun:
    def test_runs_cheap_experiment(self, capsys):
        assert main(["run", "eq32"]) == 0
        out = capsys.readouterr().out
        assert "eq32" in out
        assert "1213.44" in out

    def test_unknown_id_fails(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_seed_flag(self, capsys):
        assert main(["run", "table2", "--seed", "5"]) == 0
        assert "N_RB= 245" in capsys.readouterr().out


class TestCampaign:
    def test_summary_only(self, capsys):
        assert main(["campaign", "--minutes", "0.1", "--session", "3"]) == 0
        out = capsys.readouterr().out
        assert "minutes" in out

    @pytest.mark.parametrize("flag, value, message", [
        ("--minutes", "0", "minutes_per_operator must be positive and finite, got 0.0"),
        ("--minutes", "nan", "minutes_per_operator must be positive and finite, got nan"),
        ("--session", "inf", "session_s must be positive and finite, got inf"),
        ("--ul-fraction", "2", "ul_fraction must lie in [0, 1], got 2.0"),
    ])
    def test_invalid_spec_rejected(self, capsys, flag, value, message):
        assert main(["campaign", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"invalid campaign: {message}\n"
        assert captured.out == ""

    def test_export(self, tmp_path, capsys):
        assert main(["campaign", "--minutes", "0.05", "--session", "3",
                     "--out", str(tmp_path)]) == 0
        assert "exported" in capsys.readouterr().out
        assert list(tmp_path.glob("*.csv"))

    def test_jobs_flag_matches_serial(self, tmp_path, capsys):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["campaign", "--minutes", "0.05", "--session", "3",
                     "--jobs", "1", "--out", str(serial)]) == 0
        assert main(["campaign", "--minutes", "0.05", "--session", "3",
                     "--jobs", "2", "--out", str(parallel)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in serial.glob("*.csv"))
        assert names == sorted(p.name for p in parallel.glob("*.csv"))
        for name in names:
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()


class TestCampaignFlags:
    def test_ul_fraction_flag(self, tmp_path, capsys):
        assert main(["campaign", "--minutes", "0.05", "--session", "3",
                     "--ul-fraction", "1.0", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        names = [p.name for p in tmp_path.glob("*.csv")]
        assert names
        assert all("_ul_" in name for name in names)

    def test_out_format_flag(self, tmp_path, capsys):
        for fmt in ("jsonl", "npz"):
            out = tmp_path / fmt
            assert main(["campaign", "--minutes", "0.05", "--session", "3",
                         "--out", str(out), "--out-format", fmt]) == 0
            assert list(out.glob(f"*.{fmt}"))
        capsys.readouterr()


class TestCacheFlag:
    def test_run_warm_cache_hits_and_stdout_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["run", "eq32", "--cache", cache]) == 0
        cold = capsys.readouterr()
        assert main(["run", "eq32", "--cache", cache]) == 0
        warm = capsys.readouterr()
        assert "misses=0" in warm.err
        assert "hits=0" in cold.err

    @pytest.mark.parametrize("reduce", [False, True], ids=["exact", "reduce"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cache_line_counts_every_lookup(self, tmp_path, capsys, jobs, reduce):
        """fig01 simulates 9 sessions.  Exact and reduced runs count one
        lookup per session; a reduced run also counts its memo lookup,
        and a warm one reads only the memo."""
        argv = ["run", "fig01", "--jobs", jobs, "--cache", str(tmp_path / "cache")]
        argv += ["--reduce"] if reduce else []
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert f"[cache] hits=0 misses={10 if reduce else 9} " in cold.err
        assert f"[cache] hits={1 if reduce else 9} misses=0 " in warm.err

        def rows(text):  # drop the wall-time lines
            return [line for line in text.splitlines() if not line.startswith("   [")]

        assert rows(cold.out) == rows(warm.out)

    def test_campaign_warm_cache_byte_identical_export(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        base = ["campaign", "--minutes", "0.05", "--session", "3", "--cache", cache]
        assert main(base + ["--out", str(cold_dir)]) == 0
        cold = capsys.readouterr()
        assert main(base + ["--out", str(warm_dir)]) == 0
        warm = capsys.readouterr()
        assert "misses=0" in warm.err and "hits=0" not in warm.err

        def summary(text):  # drop the "exported ... to DIR" line (paths differ)
            return [l for l in text.splitlines() if not l.startswith("exported")]

        assert summary(cold.out) == summary(warm.out)
        names = sorted(p.name for p in cold_dir.glob("*.csv"))
        assert names == sorted(p.name for p in warm_dir.glob("*.csv"))
        for name in names:
            assert (cold_dir / name).read_bytes() == (warm_dir / name).read_bytes()

    def test_cache_env_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env-cache"))
        assert main(["campaign", "--minutes", "0.05", "--session", "3"]) == 0
        first = capsys.readouterr()
        assert "[cache]" in first.err
        assert main(["campaign", "--minutes", "0.05", "--session", "3"]) == 0
        assert "misses=0" in capsys.readouterr().err

    def test_no_cache_no_report(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert main(["campaign", "--minutes", "0.05", "--session", "3"]) == 0
        assert "[cache]" not in capsys.readouterr().err


class TestExecutorPlumbing:
    def test_parallel_cached_run_reports_pool_and_bytes(self, tmp_path, capsys):
        base = ["campaign", "--minutes", "0.05", "--session", "3",
                "--jobs", "2", "--cache", str(tmp_path / "cache")]
        assert main(base) == 0
        cold = capsys.readouterr()
        assert "[pool]" in cold.err and "routed=" in cold.err
        assert "read_mb=" in cold.err and "written_mb=" in cold.err
        assert main(base) == 0
        warm = capsys.readouterr()
        assert "misses=0" in warm.err

    def test_serial_run_has_no_pool_line(self, tmp_path, capsys):
        assert main(["campaign", "--minutes", "0.05", "--session", "3",
                     "--cache", str(tmp_path / "cache")]) == 0
        assert "[pool]" not in capsys.readouterr().err


class TestBenchWorkloadFlag:
    def test_baseline_workload_mismatch_rejected(self, tmp_path, capsys):
        import json

        baseline = tmp_path / "BENCH_slot_engine.json"
        baseline.write_text(json.dumps({"bench": "slot_engine", "workloads": {}}))
        assert main(["bench", "--workload", "campaign", "--quick",
                     "--baseline", str(baseline)]) == 2
        assert "slot_engine" in capsys.readouterr().err

    @pytest.fixture
    def no_measure(self, monkeypatch):
        from repro.core import bench

        def refuse(**kwargs):
            raise AssertionError("bench measured despite bad input")

        monkeypatch.setattr(bench, "measure", refuse)

    @pytest.mark.parametrize("content", [None, "{not json", "[]"],
                             ids=["missing", "not-json", "not-object"])
    def test_bad_baseline_exits_2_before_measuring(self, tmp_path, capsys,
                                                   no_measure, content):
        baseline = tmp_path / "BENCH_slot_engine.json"
        if content is not None:
            baseline.write_text(content)
        assert main(["bench", "--quick", "--baseline", str(baseline)]) == 2
        err = capsys.readouterr().err
        assert str(baseline) in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("threshold", ["1.5", "0", "x"])
    def test_threshold_out_of_range_exits_2_before_measuring(
            self, capsys, no_measure, threshold):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick", "--threshold", threshold])
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--workload", "sessions"])

    def test_profile_flag_writes_artifacts_next_to_report(
            self, tmp_path, capsys, monkeypatch):
        from repro.core import bench

        report = {"bench": "slot_engine", "schema": bench.BENCH_SCHEMA_VERSION,
                  "quick": True, "workloads": {}}
        monkeypatch.setattr(bench, "measure", lambda **kwargs: report)
        monkeypatch.setattr(bench, "render", lambda r: "stub render")
        out = tmp_path / "BENCH_slot_engine.json"
        assert main(["bench", "--quick", "--profile",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert out.exists()
        assert (tmp_path / "BENCH_slot_engine.pstats").exists()
        table = (tmp_path / "BENCH_slot_engine.profile.txt").read_text()
        assert "cumtime" in table
        assert "BENCH_slot_engine.pstats" in printed


class TestCacheCommand:
    def _warm(self, cache, capsys):
        assert main(["campaign", "--minutes", "0.05", "--session", "3",
                     "--cache", cache]) == 0
        capsys.readouterr()

    def test_requires_store_dir(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "REPRO_CACHE" in capsys.readouterr().err

    @pytest.mark.parametrize("action", [["stats"], ["verify"], ["clear"], ["evict", "--max-mb", "1"]])
    def test_missing_store_is_an_error_and_creates_nothing(self, tmp_path, capsys, action):
        cache = tmp_path / "absent"
        assert main(["cache", *action, "--cache", str(cache)]) == 2
        assert capsys.readouterr().err == f"no store at {cache}\n"
        assert not cache.exists()

    def test_env_store_missing_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "absent"))
        assert main(["cache", "verify"]) == 2
        assert "no store at" in capsys.readouterr().err
        assert not (tmp_path / "absent").exists()

    def test_run_still_creates_the_store(self, tmp_path, capsys):
        cache = tmp_path / "fresh"
        assert main(["run", "eq32", "--cache", str(cache)]) == 0
        assert (cache / "objects").is_dir()
        assert main(["cache", "verify", "--cache", str(cache)]) == 0
        assert "verified 0 entries intact" in capsys.readouterr().out

    def test_stats(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        self._warm(cache, capsys)
        assert main(["cache", "stats", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "quarantined" in out
        # Nothing simulated in the stats process: no per-process counters.
        assert "tbs-matrix" not in out and "tensor cohorts" not in out

    def test_verify_clean_and_corrupt(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        self._warm(str(cache), capsys)
        assert main(["cache", "verify", "--cache", str(cache)]) == 0
        capsys.readouterr()
        victim = next((cache / "objects").rglob("*.npz"))
        victim.write_bytes(b"corrupt")
        assert main(["cache", "verify", "--cache", str(cache)]) == 1
        assert "quarantined" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        self._warm(cache, capsys)
        assert main(["cache", "clear", "--cache", cache]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache", cache]) == 0
        assert "0 entries" in capsys.readouterr().out
        assert main(["cache", "verify", "--cache", cache]) == 0
        assert "verified 0 entries intact" in capsys.readouterr().out

    def test_evict_needs_cap(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        self._warm(cache, capsys)
        assert main(["cache", "evict", "--cache", cache]) == 2
        assert "--max-mb" in capsys.readouterr().err
        # A negative cap is rejected, not read as "evict everything".
        entries = TraceStore(cache).stats().entries
        assert entries > 0
        assert main(["cache", "evict", "--cache", cache, "--max-mb", "-1"]) == 2
        assert capsys.readouterr().err == \
            "--max-mb must be a non-negative number of MB, got -1\n"
        assert TraceStore(cache).stats().entries == entries
        assert main(["cache", "evict", "--cache", cache, "--max-mb", "0"]) == 0
        assert "evicted" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, value", [
        (["run", "eq32"], "abc"),
        (["campaign", "--minutes", "0.05", "--session", "3"], "-5"),
    ])
    def test_invalid_max_mb_env_rejected(self, tmp_path, capsys, monkeypatch,
                                         argv, value):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", value)
        assert main(argv + ["--cache", str(tmp_path / "cache")]) == 2
        err = capsys.readouterr().err
        assert err == f"$REPRO_CACHE_MAX_MB must be a non-negative number " \
                      f"of MB, got {value!r}\n"


class TestEngineEnv:
    @pytest.mark.parametrize("argv", [
        ["run", "eq32"],
        ["campaign", "--minutes", "0.05", "--session", "3"],
        ["bench", "--quick"],
    ], ids=["run", "campaign", "bench"])
    @pytest.mark.parametrize("value", ["warp", "tensor", "auto"])
    def test_invalid_engine_env_rejected(self, capsys, monkeypatch, argv, value):
        # Only the reference engine can be pinned; "auto" names the
        # policy, which an unset variable already means, and "tensor" a
        # deleted cohort engine.
        monkeypatch.setenv("REPRO_ENGINE", value)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ("$REPRO_ENGINE must be unset or 'reference', "
                                f"got {value!r}\n")
        assert captured.out == ""

    def test_deleted_vectorized_engine_rejected(self, capsys, monkeypatch):
        # The segment-batched engine is gone; pinning it is one error
        # line before fig07 starts.
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        assert main(["run", "fig07"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("$REPRO_ENGINE must be unset or 'reference', "
                                "got 'vectorized'\n")
        assert captured.out == ""

    def test_pinned_engine_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert main(["run", "eq32"]) == 0
        assert "1213.44" in capsys.readouterr().out


class TestCacheJsonStats:
    def test_stats_json_machine_readable(self, tmp_path, capsys):
        import json

        cache = str(tmp_path / "cache")
        assert main(["campaign", "--minutes", "0.05", "--session", "3",
                     "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", "--cache", cache]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["entries"] > 0
        assert document["root"] == cache
        assert set(document) == {"root", "entries", "total_bytes",
                                 "quarantined", "hits", "misses",
                                 "bytes_read", "bytes_written", "quarantines"}


class TestTopLevelApi:
    def test_package_exports(self):
        import repro

        assert repro.__version__
        assert "fig01" in repro.EXPERIMENT_IDS
        profile = repro.get_profile("V_Sp")
        assert profile.primary_cell.n_rb == 245
