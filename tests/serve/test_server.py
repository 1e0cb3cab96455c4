"""The persistent multi-tenant episode server (`repro.serve`)."""

import threading

import pytest

from repro.config import MsspConfig, ServeConfig
from repro.errors import MsspError
from repro.experiments import cache as artifact_cache
from repro.experiments.bench import cached_prepare
from repro.mssp.engine import run_mssp
from repro.mssp.runtime import EventLog
from repro.mssp.runtime.procpool import _PipePool
from repro.serve import (
    EpisodeRequest,
    EpisodeServer,
    ServedProgram,
    ServerBusy,
    state_digest,
)

SMALL = 6  # tiny workload size so served episodes stay fast in tests


@pytest.fixture()
def cache_root(tmp_path, monkeypatch):
    """Point the persistent artifact cache at a private tmpdir."""
    root = tmp_path / "bench-cache"
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(root))
    return root


def assert_identical(reference, candidate):
    """The whole observable MsspResult must match, bit for bit."""
    assert candidate.records == reference.records
    assert candidate.counters == reference.counters
    assert candidate.device_trace == reference.device_trace
    assert candidate.halted == reference.halted
    assert candidate.final_state.pc == reference.final_state.pc
    assert candidate.final_state.diff(reference.final_state) == []


def gate_engine_acquire(server):
    """Park the server's engine checkout; returns ``(gate, entered)``.

    Engine acquisition runs on the worker thread after admission, so
    holding the worker there deterministically keeps it busy while the
    test piles up queued/shed requests.  ``entered`` sets once a worker
    is parked; ``gate.set()`` lets it proceed.
    """
    gate = threading.Event()
    entered = threading.Event()
    original = server.engines.acquire

    def gated(key, build):
        entered.set()
        gate.wait(60)
        return original(key, build)

    server.engines.acquire = gated
    return gate, entered


class TestBitIdentity:
    @pytest.mark.parametrize("runtime", ["eager", "process"])
    def test_served_result_identical_to_fresh_run(self, cache_root, runtime):
        """Acceptance: every served MsspResult is bit-identical to a
        fresh ``run_mssp`` of the same request, on every backend."""
        config = MsspConfig(runtime=runtime, num_slaves=2)
        with EpisodeServer(ServeConfig(workers=2)) as server:
            responses = [
                server.serve(EpisodeRequest(
                    workload=name, size=SMALL, config=config,
                ))
                for name in ("compress", "crc", "compress")
            ]
        for response in responses:
            assert response.ok and response.worker is not None
            ready, _ = cached_prepare(response.workload, size=SMALL)
            fresh = run_mssp(
                ready.instance.program, ready.distillation, config=config
            )
            assert_identical(fresh, response.result)
            assert state_digest(fresh.final_state) == state_digest(
                response.result.final_state
            )

    def test_batched_episodes_identical_to_unbatched(self, cache_root):
        """Folded episodes run through the same engine path: identical,
        and ``max_batch`` bounds every service turn."""
        config = MsspConfig(runtime="eager")
        server = EpisodeServer(
            ServeConfig(workers=1, worker_capacity=4, max_batch=3)
        )
        gate, _ = gate_engine_acquire(server)
        with server:
            handles = [
                server.submit(EpisodeRequest(
                    workload="crc", size=SMALL, config=config,
                ))
                for _ in range(4)
            ]
            gate.set()
            responses = [handle.result(60) for handle in handles]
        # max_batch=3 bounds the first turn: one direct + two folded;
        # the fourth episode starts a fresh turn.
        assert [r.batched for r in responses] == [False, True, True, False]
        assert server.stats.batched == 2
        ready, _ = cached_prepare("crc", size=SMALL)
        fresh = run_mssp(
            ready.instance.program, ready.distillation, config=config
        )
        for response in responses:
            assert response.ok
            assert_identical(fresh, response.result)


class TestWarmSharing:
    def test_tenant_n_warms_tenant_n_plus_1(self, cache_root):
        """The tentpole cache property: one tenant's compile is the next
        tenant's hit, reported per request."""
        config = MsspConfig(runtime="eager")
        with EpisodeServer(ServeConfig(workers=1)) as server:
            cold = server.serve(EpisodeRequest(
                workload="compress", size=SMALL, config=config, tenant="a",
            ))
            warm = server.serve(EpisodeRequest(
                workload="compress", size=SMALL, config=config, tenant="b",
            ))
            other = server.serve(EpisodeRequest(
                workload="crc", size=SMALL, config=config, tenant="c",
            ))
            summary = server.cache_summary()
        assert cold.cache == {"prepared": False, "engine": False}
        assert warm.cache["prepared"] and warm.cache["engine"]
        assert not other.cache["prepared"]  # different program content
        assert summary["prepared_hits"] >= 1
        assert summary["engine_hits"] >= 1

    def test_cold_request_counts_nothing(self, cache_root, monkeypatch):
        """A request that misses the warm cache profiles and distills,
        but runs neither standalone count of the evaluation input."""
        from repro.experiments import harness

        calls = []
        for name in ("count_instructions_and_loads",
                     "distilled_dynamic_length"):
            original = getattr(harness, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness, name, spy)
        with EpisodeServer(ServeConfig(workers=1)) as server:
            cold = server.serve(EpisodeRequest(
                workload="crc", size=SMALL,
                config=MsspConfig(runtime="eager"),
            ))
        assert cold.ok and not cold.cache["prepared"]
        assert server.warm.counters.prepared_misses == 1
        assert calls == []

    def test_warm_hit_generates_nothing(self, cache_root, monkeypatch):
        """A repeated (workload, size) request returns the resolved entry
        without rebuilding or re-digesting the program."""
        from repro.serve import WarmCache
        from repro.workloads.base import WorkloadSpec

        warm = WarmCache()
        first, hit = warm.resolve("crc", size=SMALL)
        assert not hit
        calls = []
        original = WorkloadSpec.instance

        def counting(self, size=None):
            calls.append(size)
            return original(self, size)

        monkeypatch.setattr(WorkloadSpec, "instance", counting)
        second, hit = warm.resolve("crc", size=SMALL)
        assert hit and second is first
        assert calls == []
        assert warm.counters.prepared_hits == 1
        assert warm.counters.prepared_misses == 1

    def test_digest_addressing(self, cache_root):
        """A tenant can name a warm program by bare content digest; an
        unknown digest is an error response, never a recompile."""
        config = MsspConfig(runtime="eager")
        with EpisodeServer(ServeConfig(workers=1)) as server:
            first = server.serve(EpisodeRequest(
                workload="crc", size=SMALL, config=config,
            ))
            by_digest = server.serve(EpisodeRequest(
                digest=first.digest, config=config,
            ))
            assert by_digest.ok and by_digest.cache["prepared"]
            assert_identical(first.result, by_digest.result)
            unknown = server.submit(EpisodeRequest(
                digest="no-such-digest", config=config,
            )).result(60)
        assert unknown.status == "error"
        assert "unknown program digest" in unknown.error

    def test_request_requires_workload_or_digest(self):
        with pytest.raises(MsspError):
            EpisodeRequest()

    def test_preload_skips_distillation(self, cache_root):
        """``preload`` (the lint path's seam) makes the first digest
        request a prepared-cache hit."""
        ready, _ = cached_prepare("crc", size=SMALL)
        program = ready.instance.program
        digest = artifact_cache.program_digest(program)
        entry = ServedProgram(
            name="crc", size=SMALL,
            key=artifact_cache.digest("crc", SMALL, digest, None),
            digest=digest, program=program,
            distillation=ready.distillation, profile=ready.profile,
        )
        with EpisodeServer(ServeConfig(workers=1)) as server:
            server.preload(entry)
            response = server.serve(EpisodeRequest(
                digest=digest, config=MsspConfig(runtime="eager"),
            ))
        assert response.ok and response.cache["prepared"]
        assert server.warm.counters.prepared_misses == 0


class TestWarmup:
    def test_warmup_makes_the_first_request_a_warm_hit(self, cache_root):
        """A warmed workload's first request finds both its prepared
        artifact and the warm engine the warmup episode ran on."""
        config = MsspConfig(runtime="eager")
        server = EpisodeServer(
            ServeConfig(workers=1, warmup=("compress",)), mssp_config=config,
        )
        with server:
            response = server.serve(EpisodeRequest(
                workload="compress", config=config, tenant="late",
            ))
        assert server.stats.warmup_episodes == 1
        assert response.ok
        assert response.cache == {"prepared": True, "engine": True}

    def test_warmup_emits_no_episode_events(self, cache_root):
        """Warmup bypasses the scheduler: RT004 audits tenants only."""
        log = EventLog()
        server = EpisodeServer(ServeConfig(workers=1, warmup=("crc",)))
        server.events.subscribe(log)
        with server:
            pass
        assert server.stats.warmup_episodes == 1
        assert [event.kind for event in log.events] == []


class TestAdmission:
    def test_wait_queues_then_sheds_beyond_depth(self, cache_root):
        config = MsspConfig(runtime="eager")
        server = EpisodeServer(ServeConfig(
            workers=1, worker_capacity=1, max_queue_depth=2,
            admission="wait",
        ))
        log = EventLog()
        server.events.subscribe(log)
        gate, _ = gate_engine_acquire(server)
        with server:
            # 1 dispatched + 2 queued + 2 shed, deterministically: the
            # worker slot is held until the engine gate opens.
            handles = [
                server.submit(EpisodeRequest(
                    workload="crc", size=SMALL, config=config,
                ))
                for _ in range(5)
            ]
            assert server.stats.queue_depth == 2
            assert sum(h.done() for h in handles) == 2  # sheds are sync
            gate.set()
            responses = [handle.result(60) for handle in handles]
        statuses = [r.status for r in responses]
        assert statuses == ["ok", "ok", "ok", "shed", "shed"]
        shed = [e for e in log.events if e.kind == "episode_shed"]
        assert len(shed) == 2 and all(e.why == "queue-full" for e in shed)
        assert server.stats.max_queue_depth == 2

    def test_shed_mode_and_typed_server_busy(self, cache_root):
        config = MsspConfig(runtime="eager")
        server = EpisodeServer(ServeConfig(
            workers=1, worker_capacity=1, admission="shed",
        ))
        gate, _ = gate_engine_acquire(server)
        with server:
            first = server.submit(EpisodeRequest(
                workload="crc", size=SMALL, config=config,
            ))
            with pytest.raises(ServerBusy) as excinfo:
                server.serve(EpisodeRequest(
                    workload="crc", size=SMALL, config=config,
                ))
            assert excinfo.value.response.status == "shed"
            assert excinfo.value.response.error == "all-workers-busy"
            gate.set()
            assert first.result(60).ok

    def test_shed_leaves_caches_and_counters_consistent(self, cache_root):
        """Satellite: a shed request touches no warm-cache state, and a
        follow-up request for the same content still serves warm."""
        config = MsspConfig(runtime="eager")
        server = EpisodeServer(ServeConfig(
            workers=1, worker_capacity=1, admission="shed",
        ))
        gate, entered = gate_engine_acquire(server)
        with server:
            first = server.submit(EpisodeRequest(
                workload="compress", size=SMALL, config=config,
            ))
            # The worker has resolved the program and parked in engine
            # acquisition: every counter is now stable until the gate
            # opens, so the shed's (non-)effect is exactly observable.
            assert entered.wait(30)
            before = server.cache_summary()
            shed = server.submit(EpisodeRequest(
                workload="compress", size=SMALL, config=config,
            )).result(60)
            assert server.cache_summary() == before
            gate.set()
            assert first.result(60).ok
            follow_up = server.serve(EpisodeRequest(
                workload="compress", size=SMALL, config=config,
            ))
        assert shed.status == "shed"
        assert follow_up.ok and follow_up.cache["prepared"]
        assert follow_up.cache["engine"]
        assert server.stats.shed == 1 and server.stats.completed == 2

    def test_close_drains_assigned_and_sheds_queued(self, cache_root):
        config = MsspConfig(runtime="eager")
        server = EpisodeServer(ServeConfig(workers=1, worker_capacity=1))
        gate, entered = gate_engine_acquire(server)
        server.start()
        running = server.submit(EpisodeRequest(
            workload="crc", size=SMALL, config=config,
        ))
        queued = server.submit(EpisodeRequest(
            workload="crc", size=SMALL, config=config,
        ))
        assert entered.wait(30)
        closer = threading.Thread(target=server.close)
        closer.start()
        # close() sheds the backlog before draining the fleet, so the
        # queued tenant's answer never waits on the running episode.
        response = queued.result(60)
        assert response.status == "shed"
        assert response.error == "server-closed"
        gate.set()
        closer.join(60)
        assert not closer.is_alive()
        assert running.result(60).ok  # assigned work drains, not sheds

    def test_submit_after_close_raises(self, cache_root):
        server = EpisodeServer(ServeConfig(workers=1))
        server.start()
        server.close()
        with pytest.raises(MsspError):
            server.submit(EpisodeRequest(
                workload="crc", size=SMALL,
                config=MsspConfig(runtime="eager"),
            ))


class TestFaultPaths:
    def test_worker_death_degrades_without_poisoning_tenants(
        self, cache_root, monkeypatch
    ):
        """Satellite: a slave pool dying mid-episode degrades that
        episode to local re-execution (``pool_degraded``), still
        bit-identical — and queued tenants are untouched."""

        def refuse(self, worker, payload):
            raise OSError("worker pool forced down (test)")

        monkeypatch.setattr(_PipePool, "submit", refuse)
        config = MsspConfig(runtime="process", num_slaves=2)
        with EpisodeServer(ServeConfig(workers=2)) as server:
            handles = [
                server.submit(EpisodeRequest(
                    workload=name, size=SMALL, config=config,
                    tenant=f"t{i}",
                ))
                for i, name in enumerate(("compress", "crc", "compress"))
            ]
            responses = [handle.result(60) for handle in handles]
        assert [r.status for r in responses] == ["ok"] * 3
        for response in responses:
            ready, _ = cached_prepare(response.workload, size=SMALL)
            fresh = run_mssp(
                ready.instance.program, ready.distillation, config=config
            )
            assert_identical(fresh, response.result)

    def test_raising_engine_is_discarded_not_reused(
        self, cache_root, monkeypatch
    ):
        """An engine that dies mid-episode answers that one tenant with
        an error, is discarded from the pool, and every other queued
        tenant is served by a fresh engine."""
        from repro.mssp.engine import MsspEngine

        real_run = MsspEngine.run
        calls = {"n": 0}

        def flaky(self):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("worker died mid-episode (test)")
            return real_run(self)

        monkeypatch.setattr(MsspEngine, "run", flaky)
        config = MsspConfig(runtime="eager")
        log = EventLog()
        server = EpisodeServer(ServeConfig(workers=1))
        server.events.subscribe(log)
        with server:
            handles = [
                server.submit(EpisodeRequest(
                    workload="crc", size=SMALL, config=config,
                    tenant=f"t{i}",
                ))
                for i in range(3)
            ]
            responses = [handle.result(60) for handle in handles]
            assert len(server.engines) == 1  # fresh pooled, dead one gone
        assert [r.status for r in responses] == ["error", "ok", "ok"]
        assert "worker died mid-episode" in responses[0].error
        completed = [e for e in log.events if e.kind == "episode_completed"]
        assert sorted(e.ok for e in completed) == [False, True, True]
        ready, _ = cached_prepare("crc", size=SMALL)
        fresh = run_mssp(
            ready.instance.program, ready.distillation, config=config
        )
        for response in responses[1:]:
            assert_identical(fresh, response.result)


    def test_requeued_batch_entries_are_not_counted_batched(
        self, cache_root, monkeypatch
    ):
        """The engine raises on the first claimed batch entry, so the
        rest of the batch goes back to the worker's queue.
        ``stats.batched`` counts exactly the responses that say
        ``batched``."""
        from repro.mssp.engine import MsspEngine

        real_run = MsspEngine.run
        calls = {"n": 0}

        def flaky(self):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("engine died on a batched episode (test)")
            return real_run(self)

        monkeypatch.setattr(MsspEngine, "run", flaky)
        config = MsspConfig(runtime="eager")
        server = EpisodeServer(
            ServeConfig(workers=1, worker_capacity=4, max_batch=4)
        )
        gate, _ = gate_engine_acquire(server)
        with server:
            handles = [
                server.submit(EpisodeRequest(
                    workload="crc", size=SMALL, config=config,
                ))
                for _ in range(4)
            ]
            gate.set()
            responses = [handle.result(60) for handle in handles]
        # Turn 1: #0 direct, #1-#3 claimed; #1 raises, #2-#3 requeue.
        # Turn 2 (fresh engine): #2 direct, #3 claimed.
        assert [r.status for r in responses] == ["ok", "error", "ok", "ok"]
        assert [r.batched for r in responses] == [False, False, False, True]
        assert server.stats.batched == sum(r.batched for r in responses)
        stats = server.stats
        assert (stats.accepted, stats.completed, stats.errors) == (4, 3, 1)


class TestEngineReuse:
    def test_engine_pool_reuses_one_engine_serially(self, cache_root):
        """Repeated same-key requests reuse one pooled engine (the
        per-run reset inside ``MsspEngine.run`` makes that sound)."""
        config = MsspConfig(runtime="eager")
        with EpisodeServer(ServeConfig(workers=1)) as server:
            for _ in range(3):
                assert server.serve(EpisodeRequest(
                    workload="crc", size=SMALL, config=config,
                )).ok
            assert len(server.engines) == 1
        assert server.engines.counters.engine_misses == 1
        assert server.engines.counters.engine_hits == 2

    def test_distinct_configs_get_distinct_engines(self, cache_root):
        with EpisodeServer(ServeConfig(workers=1)) as server:
            server.serve(EpisodeRequest(
                workload="crc", size=SMALL,
                config=MsspConfig(runtime="eager"),
            ))
            server.serve(EpisodeRequest(
                workload="crc", size=SMALL,
                config=MsspConfig(runtime="eager", num_slaves=3),
            ))
            assert len(server.engines) == 2
        assert server.engines.counters.engine_misses == 2
