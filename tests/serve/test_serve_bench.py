"""RT004, the serving benchmark, and the serve front-ends."""

import json
import time

import pytest

from repro.analysis.checker import (
    check_server_events,
    check_server_execution,
)
from repro.config import MsspConfig, ServeConfig
from repro.experiments import cache as artifact_cache
from repro.experiments.bench import cached_prepare
from repro.mssp.engine import run_mssp
from repro.mssp.runtime import EventLog
from repro.mssp.runtime.events import (
    EpisodeAccepted,
    EpisodeCompleted,
    EpisodeDispatched,
    EpisodeShed,
)
from repro.serve import EpisodeRequest, EpisodeServer
from repro.serve.bench import (
    cold_baseline,
    percentile,
    poisson_arrivals,
    run_serve_bench,
)

SMALL = 6


@pytest.fixture()
def cache_root(tmp_path, monkeypatch):
    root = tmp_path / "bench-cache"
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(root))
    return root


def error_ids(report):
    return {f.check_id for f in report.errors}


def _accept(rid):
    return EpisodeAccepted(request_id=rid, digest=f"d{rid}")


def _dispatch(rid, worker=0, capacity=2, batched=False):
    return EpisodeDispatched(
        request_id=rid, worker=worker, capacity=capacity, batched=batched
    )


def _complete(rid, worker=0, ok=True):
    return EpisodeCompleted(request_id=rid, worker=worker, ok=ok)


def _shed(rid):
    return EpisodeShed(request_id=rid, why="queue-full")


class TestCheckServerEvents:
    """RT004 over hand-built streams: the mutation-negative cases."""

    def test_clean_stream_is_ok(self):
        report = check_server_events([
            _accept(0), _dispatch(0), _accept(1), _dispatch(1),
            _complete(0), _complete(1),
            _accept(2), _shed(2),
        ])
        assert report.ok and not report.findings

    def test_batched_redispatch_is_ok(self):
        # A folded episode re-announces its dispatch with batched=True
        # on the same worker; that must not double-count the slot.
        report = check_server_events([
            _accept(0), _dispatch(0), _accept(1), _dispatch(1),
            _dispatch(1, batched=True),
            _complete(0), _complete(1),
        ])
        assert report.ok

    def test_redispatch_releases_previous_worker_slot(self):
        report = check_server_events([
            _accept(0), _dispatch(0, worker=0, capacity=1),
            _dispatch(0, worker=1, capacity=1),
            _accept(1), _dispatch(1, worker=0, capacity=1),
            _complete(0, worker=1), _complete(1, worker=0),
        ])
        assert report.ok

    def test_lost_request_is_rt004(self):
        report = check_server_events([
            _accept(0), _dispatch(0), _accept(1), _dispatch(1),
            _complete(0),
        ])
        assert "RT004" in error_ids(report)

    def test_double_terminal_is_rt004(self):
        report = check_server_events([
            _accept(0), _dispatch(0), _complete(0), _complete(0),
        ])
        assert "RT004" in error_ids(report)

    def test_completed_then_shed_is_rt004(self):
        report = check_server_events([
            _accept(0), _dispatch(0), _complete(0), _shed(0),
        ])
        assert "RT004" in error_ids(report)

    def test_duplicate_accept_is_rt004(self):
        report = check_server_events([
            _accept(0), _accept(0), _dispatch(0), _complete(0),
        ])
        assert "RT004" in error_ids(report)

    def test_dispatch_without_accept_is_rt004(self):
        report = check_server_events([_dispatch(7)])
        assert "RT004" in error_ids(report)

    def test_over_capacity_worker_is_rt004(self):
        report = check_server_events([
            _accept(0), _dispatch(0, capacity=1),
            _accept(1), _dispatch(1, capacity=1),
            _complete(0), _complete(1),
        ])
        assert "RT004" in error_ids(report)

    def test_engine_events_interleave_cleanly(self):
        from repro.mssp.runtime.events import TaskForked

        report = check_server_events([
            _accept(0), _dispatch(0),
            TaskForked(tid=0, start_pc=0, end_pc=None),
            _complete(0),
        ])
        assert report.ok

    def test_real_server_stream_is_clean(self, cache_root):
        """A live burst — dispatch, queueing, sheds — lints clean."""
        config = MsspConfig(runtime="eager")
        log = EventLog()
        server = EpisodeServer(ServeConfig(
            workers=2, worker_capacity=1, max_queue_depth=2,
        ))
        server.events.subscribe(log)
        with server:
            handles = [
                server.submit(EpisodeRequest(
                    workload="crc", size=SMALL, config=config,
                    tenant=f"t{i}",
                ))
                for i in range(8)
            ]
            for handle in handles:
                handle.result(60)
        kinds = {event.kind for event in log.events}
        assert "episode_accepted" in kinds
        report = check_server_events(log.events)
        assert report.ok, [f.message for f in report.errors]

    def test_check_server_execution_on_prepared_workload(self, cache_root):
        """The ``repro lint`` entry point: serve a burst, audit RT004."""
        ready, _ = cached_prepare("crc", size=SMALL)
        report = check_server_execution(
            "crc", ready.instance.program, ready.distillation,
            subject="crc: server", profile=ready.profile, size=SMALL,
        )
        assert report.ok, [f.message for f in report.errors]


class TestBenchPrimitives:
    def test_poisson_arrivals_are_seeded_and_monotonic(self):
        first = poisson_arrivals(8.0, 32, seed=3)
        again = poisson_arrivals(8.0, 32, seed=3)
        other = poisson_arrivals(8.0, 32, seed=4)
        assert first == again
        assert first != other
        assert all(b > a for a, b in zip(first, first[1:]))
        # Mean inter-arrival of a rate-8 process is 1/8 s; 32 samples
        # land within a loose factor-of-3 band around it.
        mean_gap = first[-1] / len(first)
        assert 1 / 24 < mean_gap < 3 / 8

    def test_percentile_nearest_rank(self):
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99.9) == 7.0
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 4.0
        assert percentile(values, 1) == 1.0

    def test_cold_baseline_counts_fresh_pipelines(self, cache_root):
        cold = cold_baseline(
            ("crc",), 2, sizes={"crc": SMALL},
            config=MsspConfig(runtime="eager"),
        )
        assert cold["episodes"] == 2
        assert cold["wall_seconds"] > 0
        assert cold["episodes_per_sec"] > 0
        # Fresh `prepare` per episode must not touch the artifact cache.
        assert not cache_root.exists() or not list(cache_root.iterdir())


class TestRunServeBench:
    def test_summary_shape_and_accounting(self, cache_root):
        summary = run_serve_bench(
            workloads=("compress", "crc"), rates=(60.0,),
            requests_per_rate=6, burst_requests=6, cold_episodes=2,
            size=SMALL, seed=1,
            serve_config=ServeConfig(workers=2),
            mssp_config=MsspConfig(runtime="eager"),
        )
        assert summary["schema"] == artifact_cache.CACHE_SCHEMA
        assert summary["workloads"] == ["compress", "crc"]
        assert summary["sizes"] == {"compress": SMALL, "crc": SMALL}
        assert summary["warm"]["episodes"] == 6
        assert summary["speedup_vs_cold"] > 0
        stage = summary["open_loop"][0]
        assert stage["rate"] == 60.0
        assert stage["offered"] == 6
        assert stage["completed"] + stage["shed"] == 6
        assert stage["latency_p50_ms"] <= stage["latency_p99_ms"]
        assert stage["latency_p99_ms"] <= stage["latency_p999_ms"]
        # Warmup + burst + open loop over two programs: the stream is
        # dominated by shared-cache hits.
        assert summary["cache_hit_rate"] > 0
        assert summary["stats"]["completed"] >= 6
        assert summary["stats"]["warmup_episodes"] == 2


class TestServeSmoke:
    """The CI `serve-smoke` contract, in-process."""

    def test_warm_server_beats_cold_sequential_2x_on_mixed_stream(
        self, cache_root
    ):
        """Acceptance: ~50 mixed requests on the thread backend — every
        result bit-identical to a fresh run, nonzero shared-cache hit
        rate, and warm throughput at least 2x the cold baseline."""
        workloads = ("compress", "crc", "branchy")
        config = MsspConfig(runtime="thread", num_slaves=2)
        cold = cold_baseline(
            workloads, len(workloads),
            sizes={name: SMALL for name in workloads}, config=config,
        )
        log = EventLog()
        # Deep enough a 48-request closed-loop burst never sheds.
        server = EpisodeServer(ServeConfig(workers=2, max_queue_depth=48))
        server.events.subscribe(log)
        with server:
            for name in workloads:
                server.warm_workload(name, size=SMALL)
            start = time.perf_counter()
            handles = [
                server.submit(EpisodeRequest(
                    workload=workloads[i % 3], size=SMALL, config=config,
                    tenant=f"tenant-{i % 3}",
                ))
                for i in range(48)
            ]
            responses = [handle.result(120) for handle in handles]
            wall = time.perf_counter() - start
            cache = server.cache_summary()
        assert all(response.ok for response in responses)

        # Bit-identity, one sample per workload.
        for name in workloads:
            sample = next(r for r in responses if r.workload == name)
            ready, _ = cached_prepare(name, size=SMALL)
            fresh = run_mssp(
                ready.instance.program, ready.distillation, config=config
            )
            assert sample.result.counters == fresh.counters
            assert sample.result.final_state.diff(fresh.final_state) == []

        # Shared warm caches actually carried the stream.
        hits = cache["prepared_hits"] + cache["engine_hits"]
        misses = cache["prepared_misses"] + cache["engine_misses"]
        assert hits > 0 and hits / (hits + misses) > 0.5

        # The event stream of the whole smoke burst satisfies RT004.
        assert check_server_events(log.events).ok

        warm_eps = len(responses) / wall
        cold_eps = cold["episodes_per_sec"]
        assert warm_eps >= 2 * cold_eps, (
            f"warm {warm_eps:.2f} eps vs cold {cold_eps:.2f} eps"
        )


class TestBenchCacheAggregation:
    """Satellite: the suite's top-level cache flags derive from rows."""

    def test_rerun_reports_suite_wide_hits(
        self, cache_root, short_serve_stage
    ):
        from repro.experiments.bench import run_bench

        first = run_bench(workloads=["compress"], scale=0.02)
        again = run_bench(workloads=["compress"], scale=0.02)
        assert first["cache_hits"] == 0
        assert first["adaptive_cache_hits"] == 0
        assert again["cache_hits"] == len(again["suite"]) == 1
        assert again["adaptive_cache_hits"] == 1
        assert again["suite"][0]["cache_hit"] is True
        assert again["suite"][0]["adaptive_cache_hit"] is True


class TestCliServe:
    def test_jsonl_round_trip(self, cache_root, tmp_path, capsys):
        from repro.cli import main

        requests = tmp_path / "requests.jsonl"
        requests.write_text("\n".join([
            json.dumps({"workload": "crc", "size": SMALL, "tenant": "a"}),
            "# a comment line",
            json.dumps({"workload": "crc", "size": SMALL, "tenant": "b"}),
            json.dumps({"workload": "no-such-workload"}),
            "{not json",
        ]) + "\n")
        assert main([
            "serve", "--requests", str(requests),
            "--workers", "1", "--runtime", "eager",
        ]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line
        ]
        served = [line for line in lines if line.get("status") == "ok"]
        rejected = [
            line for line in lines if "bad request line" in
            str(line.get("error", ""))
        ]
        assert len(served) == 2 and len(rejected) == 2
        assert served[0]["tenant"] == "a" and served[1]["tenant"] == "b"
        # Same program, same configuration: same architected outcome.
        assert served[0]["state_digest"] == served[1]["state_digest"]
        assert served[1]["cache"]["prepared"] is True

    def test_unknown_warmup_is_an_error(self, capsys):
        from repro.cli import main

        assert main([
            "serve", "--warmup", "no-such-workload",
            "--requests", "/dev/null",
        ]) == 2
        assert "unknown warmup" in capsys.readouterr().err
