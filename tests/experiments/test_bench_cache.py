"""The persistent benchmark cache and the ``repro bench`` machinery."""

import json
import pickle

import pytest

from repro.config import DistillConfig
from repro.experiments import bench, cache
from repro.isa.asm import assemble

SMALL = 6  # tiny workload size so the pipeline stays fast in tests


@pytest.fixture()
def cache_root(tmp_path, monkeypatch):
    """Point the persistent cache at a private tmpdir."""
    root = tmp_path / "bench-cache"
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(root))
    return root


class TestCachePrimitives:
    def test_fetch_computes_then_hits(self, cache_root):
        calls = []

        def compute():
            calls.append(1)
            return {"answer": 42}

        value, hit = cache.fetch("unit", "k1", compute)
        assert value == {"answer": 42} and not hit
        value, hit = cache.fetch("unit", "k1", compute)
        assert value == {"answer": 42} and hit
        assert len(calls) == 1

    def test_corrupt_entry_is_a_miss_and_gets_overwritten(self, cache_root):
        cache.store("unit", "bad", [1, 2, 3])
        path = cache_root / "unit-bad.pkl"
        path.write_bytes(b"not a pickle")
        assert cache.load("unit", "bad") is None
        value, hit = cache.fetch("unit", "bad", lambda: "recomputed")
        assert value == "recomputed" and not hit
        assert pickle.loads(path.read_bytes()) == "recomputed"

    def test_disabled_cache_never_persists(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE", "off")
        assert cache.cache_dir() is None
        assert not cache.store("unit", "k", 1)
        calls = []
        for _ in range(2):
            value, hit = cache.fetch(
                "unit", "k", lambda: calls.append(1) or "fresh"
            )
            assert value == "fresh" and not hit
        assert len(calls) == 2

    def test_clear_by_kind(self, cache_root):
        cache.store("alpha", "x", 1)
        cache.store("alpha", "y", 2)
        cache.store("beta", "z", 3)
        assert cache.clear("alpha") == 2
        assert cache.load("beta", "z") == 3
        assert cache.clear() == 1


class TestDigests:
    def test_digest_sensitive_to_config(self):
        base = cache.digest("compress", SMALL, DistillConfig())
        tweaked = cache.digest(
            "compress", SMALL, DistillConfig(target_task_size=7)
        )
        assert base != tweaked
        assert base == cache.digest("compress", SMALL, DistillConfig())

    def test_program_digest_tracks_content(self):
        original = assemble(".text\nmain: li r1, 1\n halt\n")
        edited_code = assemble(".text\nmain: li r1, 2\n halt\n")
        edited_data = assemble(".text\nmain: li r1, 1\n halt\n.data\n.word 9")
        digests = {
            cache.program_digest(p)
            for p in (original, edited_code, edited_data)
        }
        assert len(digests) == 3
        twin = assemble(".text\nmain: li r1, 1\n halt\n")
        assert cache.program_digest(twin) == cache.program_digest(original)


class TestCachedPipeline:
    def test_second_invocation_hits_persistent_cache(self, cache_root):
        """Acceptance: rerunning an E-suite benchmark skips the pipeline."""
        ready, result, hit = bench.cached_functional_run(
            "compress", size=SMALL
        )
        assert not hit
        again_ready, again_result, hit = bench.cached_functional_run(
            "compress", size=SMALL
        )
        assert hit
        # The disk round-trip must be observationally lossless.
        assert again_result.final_state == result.final_state
        assert again_result.counters == result.counters
        assert again_ready.seq_instrs == ready.seq_instrs
        # And the prepare stage was cached independently.
        _, prepared_hit = bench.cached_prepare("compress", size=SMALL)
        assert prepared_hit

    def test_distinct_configs_do_not_collide(self, cache_root):
        _, _, hit = bench.cached_functional_run("compress", size=SMALL)
        assert not hit
        _, _, hit = bench.cached_functional_run(
            "compress", size=SMALL,
            distill_config=DistillConfig(target_task_size=9),
        )
        assert not hit


class TestRunBench:
    def test_summary_shape_and_baseline_gate(
        self, cache_root, short_serve_stage, tmp_path
    ):
        summary = bench.run_bench(
            workloads=["compress"], scale=0.02, jobs=1, micro_repeats=1
        )
        assert summary["schema"] == cache.CACHE_SCHEMA
        micro = summary["microbenchmark"]
        assert micro["decoded_instrs_per_sec"] > 0
        assert set(micro) == MICRO_KEYS
        assert micro["e2e_instrs_per_sec"] > 0
        assert len(summary["suite"]) == 1
        row = summary["suite"][0]
        assert row["workload"] == "compress"
        assert row["simulated_instrs"] > 0 and row["wall_seconds"] >= 0

        out = tmp_path / "BENCH_summary.json"
        bench.write_summary(summary, str(out))
        assert json.loads(out.read_text())["suite"][0]["workload"] == (
            "compress"
        )

        passing = tmp_path / "baseline-pass.json"
        passing.write_text(json.dumps(
            {"decoded_instrs_per_sec": 1, "min_speedup": 0.0}
        ))
        assert bench.check_baseline(summary, str(passing)) == []

        failing = tmp_path / "baseline-fail.json"
        failing.write_text(json.dumps(
            {"decoded_instrs_per_sec": 10 ** 15, "min_speedup": 10 ** 6}
        ))
        problems = bench.check_baseline(summary, str(failing))
        assert len(problems) == 2
        assert any("throughput regressed" in p for p in problems)
        assert any("speedup regressed" in p for p in problems)

    def test_calibration_loop_is_the_e2e_benchmarks(self):
        """``calibration_cpu_seconds`` times the work the end-to-end
        benchmark's machine-speed loop does, so the two read speed on
        one scale."""
        from benchmarks.e2e import speed

        assert bench.CALIBRATION_STEPS == speed._STEPS
        ours, theirs = ([0] * 8, {}), ([0] * 8, {})
        for i in range(bench.CALIBRATION_STEPS):
            assert bench._calibration_step(*ours, i) == speed._step(
                *theirs, i
            )
        assert ours == theirs
        assert bench.calibration_seconds() > 0

    def test_low_episode_throughput_is_flagged(self, tmp_path):
        summary = {"microbenchmark": {"e2e_instrs_per_sec": 690.0}}
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"e2e_instrs_per_sec": 1000}))
        problems = bench.check_baseline(summary, str(baseline))
        assert len(problems) == 1
        assert "episode throughput regressed" in problems[0]
        summary["microbenchmark"]["e2e_instrs_per_sec"] = 700.0
        assert bench.check_baseline(summary, str(baseline)) == []

    def test_missing_baseline_is_an_error(self, cache_root, tmp_path):
        summary = {"microbenchmark": {}}
        problems = bench.check_baseline(
            summary, str(tmp_path / "nope.json")
        )
        assert problems and "not found" in problems[0]


#: Every microbenchmark-stage key, and nothing else.
MICRO_KEYS = {
    "workload", "dynamic_instrs", "legacy_instrs_per_sec",
    "decoded_instrs_per_sec", "speedup", "e2e_instrs_per_sec",
}

#: Every key ``repro bench`` writes, and nothing else.
SUMMARY_KEYS = {
    "schema", "commit", "dirty", "calibration_cpu_seconds", "scale", "jobs",
    "runtime", "exec_tier", "cpu_count",
    "serve_bench", "microbenchmark", "suite", "suite_wall_seconds",
    "cache_hits", "adaptive_cache_hits", "cache_dir", "sim_bench",
}


class TestCliBench:
    def test_bench_command_smoke(
        self, cache_root, short_serve_stage, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "BENCH_summary.json"
        # A stale summary: one run writes all four stages and keeps
        # nothing an earlier run left in the file.
        out.write_text(json.dumps(
            {"schema": 4, "mem_backend": "flat", "sim_bench": {"sweep": []}}
        ))
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"decoded_instrs_per_sec": 1, "min_speedup": 0.0}
        ))
        argv = [
            "bench", "--quick", "--scale", "0.02",
            "--workloads", "compress",
            "--output", str(out), "--baseline", str(baseline),
        ]
        assert main(argv) == 0
        summary = json.loads(out.read_text())
        assert set(summary) == SUMMARY_KEYS
        assert summary["schema"] == cache.CACHE_SCHEMA
        assert summary["suite"][0]["cache_hit"] is False
        # --workloads selects suite rows only.
        assert summary["serve_bench"]["workloads"] == [
            "compress", "crc", "branchy"
        ]
        assert summary["serve_bench"]["open_loop"]
        sim = summary["sim_bench"]
        assert set(sim) == {
            "workload", "tasks_replayed", "records_replayed",
            "total_instrs", "baseline_cycles", "sweep", "scenarios",
        }
        assert sim["workload"] == "compress"
        assert [
            (row["n_slaves"], row["sim_cycles"]) for row in sim["sweep"]
        ] == [(2, 45032.0), (8, 17580.0), (16, 17580.0), (64, 17580.0)]
        assert [
            (row["scenario"], row["n_slaves"], row["sim_cycles"])
            for row in sim["scenarios"]
        ] == [
            ("contended-link", 16, 40225.0),
            ("heterogeneous-slaves", 16, 17691.5),
            ("slave-failure", 16, 17580.0),
        ]
        captured = capsys.readouterr().out
        for heading in (
            "warm vs cold", "open-loop Poisson arrivals", "instrs/sec",
            "E-suite", "slave-count sweep", "cluster scenarios",
        ):
            assert heading in captured

        # Second CLI invocation: everything expensive comes from disk.
        assert main(argv) == 0
        summary = json.loads(out.read_text())
        assert summary["suite"][0]["cache_hit"] is True
        # Each run appended its headline numbers beside the summary.
        history = [
            json.loads(line) for line in
            (tmp_path / "BENCH_history.jsonl").read_text().splitlines()
        ]
        assert len(history) == 2
        assert set(history[-1]) == {
            "commit", "dirty", "calibration_cpu_seconds", "date", "scale",
            "runtime", "speedup_vs_cold", "decoded_instrs_per_sec",
            "suite_wall_seconds",
        }
        assert history[-1]["commit"] == summary["commit"]
        assert history[-1]["dirty"] == summary["dirty"]
        calibration = summary["calibration_cpu_seconds"]
        assert set(calibration) == {"start", "end"}
        assert all(seconds > 0 for seconds in calibration.values())
        assert history[-1]["calibration_cpu_seconds"] == calibration
        assert summary["dirty"] in (True, False, None)
        assert history[-1]["scale"] == 0.02

    def test_bench_fails_on_regression(
        self, cache_root, short_serve_stage, tmp_path
    ):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"decoded_instrs_per_sec": 10 ** 15}
        ))
        assert main([
            "bench", "--quick", "--scale", "0.02",
            "--workloads", "compress",
            "--output", str(tmp_path / "s.json"),
            "--baseline", str(baseline),
        ]) == 1
