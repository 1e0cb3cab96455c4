"""Runtime-core tests: one pipeline, three executors, one event seam.

The tentpole invariant of :mod:`repro.mssp.runtime` is that the
executor backend (``MsspConfig.runtime`` ∈ eager/thread/process) is
*unobservable*: every backend drives the same
:class:`~repro.mssp.runtime.pipeline.TaskPipeline` and produces a
bit-identical :class:`~repro.mssp.engine.MsspResult`.  These tests hold
that over every workload, over hypothesis-generated programs, under
event-seam fault injection (forced squashes with successors in flight),
and under pool failure — plus the structural guarantees around the
seam itself: records are rebuilt from events (any subscriber can
reconstruct the exact stream) and pipelined backends release their
workers deterministically on close.
"""

import dataclasses
import multiprocessing
import threading
import time

import pytest
from hypothesis import given, settings

from repro.config import DistillConfig, MsspConfig
from repro.distill import Distiller
from repro.experiments.harness import prepare
from repro.isa.asm import assemble
from repro.isa.registers import NUM_REGS
from repro.mssp import MsspEngine
from repro.mssp.engine import create_engine, run_mssp
from repro.mssp.faults import corrupt_live_in
from repro.mssp.regions import ProtectedRegions
from repro.mssp.runtime.events import EventLog
from repro.mssp.runtime.executors import (
    InlineExecutor,
    ProcessExecutor,
    ThreadExecutor,
    resolve_runtime,
)
from repro.mssp.runtime.procpool import _ChainMemory, _execute_tasks
from repro.mssp.task import Checkpoint, Task, TaskStatus
from repro.mssp.trace import TraceRecorder
from repro.profiling import profile_program
from repro.workloads import get_workload, workload_names

from tests.strategies import terminating_programs

#: Small chunks + a narrow window keep many chunk boundaries even at
#: test-sized workloads (mirrors test_parallel_runtime.PARALLEL_CONFIG).
THREAD_CONFIG = MsspConfig(
    runtime="thread", num_slaves=2, parallel_chunk_tasks=4,
    max_inflight_tasks=16,
)
PROCESS_CONFIG = dataclasses.replace(THREAD_CONFIG, runtime="process")
EAGER_CONFIG = dataclasses.replace(THREAD_CONFIG, runtime="eager")

FAST_THREAD_CONFIG = dataclasses.replace(
    THREAD_CONFIG, max_task_instrs=2_000, max_master_instrs_per_task=2_000,
    max_total_instrs=5_000_000,
)

_PREPARED = {}


def prepared(name):
    """Profile + distill one workload at test size, once per session."""
    if name not in _PREPARED:
        spec = get_workload(name)
        _PREPARED[name] = prepare(spec, size=max(4, spec.default_size // 8))
    return _PREPARED[name]


def assert_identical(reference, candidate):
    """The whole observable MsspResult must match, bit for bit."""
    assert candidate.records == reference.records
    assert candidate.counters == reference.counters
    assert candidate.device_trace == reference.device_trace
    assert candidate.halted == reference.halted
    assert candidate.final_state.pc == reference.final_state.pc
    assert candidate.final_state.diff(reference.final_state) == []


def run_backend(program, distillation, config, fault_tid=None):
    """One run under ``config.runtime``; returns (result, dispatch stats)."""
    with create_engine(program, distillation, config) as engine:
        if fault_tid is not None:
            engine.events.subscribe(corrupt_live_in(fault_tid))
        result = engine.run()
        return result, result.counters.dispatch


class TestThreadDifferential:
    @pytest.mark.parametrize("name", workload_names())
    def test_thread_bit_identical_on_workload(self, name):
        ready = prepared(name)
        reference, _ = run_backend(
            ready.instance.program, ready.distillation, EAGER_CONFIG
        )
        candidate, stats = run_backend(
            ready.instance.program, ready.distillation, THREAD_CONFIG
        )
        assert_identical(reference, candidate)
        # A silently-degraded run (pool never started) would make this
        # test vacuous; require that chunks really crossed the pool.
        assert stats.dispatched > 0
        assert stats.adopted + stats.stale + stats.missing > 0


@pytest.mark.parallel
class TestThreeBackendDifferential:
    @pytest.mark.parametrize("name", ("fib_memo", "compress", "stringops"))
    def test_all_backends_identical_on_workload(self, name):
        """The strongest form of the tentpole invariant: all three
        executor substrates agree with one another on one run."""
        ready = prepared(name)
        program, distillation = ready.instance.program, ready.distillation
        reference, _ = run_backend(program, distillation, EAGER_CONFIG)
        for config in (THREAD_CONFIG, PROCESS_CONFIG):
            candidate, stats = run_backend(program, distillation, config)
            assert_identical(reference, candidate)
            assert stats.dispatched > 0


class TestThreadPropertyDifferential:
    @given(terminating_programs())
    @settings(max_examples=10, deadline=None)
    def test_any_program_bit_identical(self, program):
        profile = profile_program(program, max_steps=2_000_000)
        result = Distiller(DistillConfig(target_task_size=8)).distill(
            program, profile
        )
        distillation = (result.distilled, result.pc_map)
        reference, _ = run_backend(
            program, distillation,
            dataclasses.replace(FAST_THREAD_CONFIG, runtime="eager"),
        )
        candidate, _ = run_backend(program, distillation, FAST_THREAD_CONFIG)
        assert_identical(reference, candidate)


#: Tid at which the injected event-seam fault forces a live-in mismatch.
_CORRUPT_TID = 5


class TestForcedSquashPerBackend:
    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(THREAD_CONFIG, id="thread"),
            pytest.param(
                PROCESS_CONFIG, id="process", marks=pytest.mark.parallel
            ),
        ],
    )
    def test_forced_squash_identical(self, config):
        """Satellite: a verification failure injected through the event
        seam while successors are in flight must discard them and leave
        records/counters identical to the eager engine under the same
        fault."""
        ready = prepared("fib_memo")
        program, distillation = ready.instance.program, ready.distillation
        reference, _ = run_backend(
            program, distillation, EAGER_CONFIG, fault_tid=_CORRUPT_TID
        )
        candidate, stats = run_backend(
            program, distillation, config, fault_tid=_CORRUPT_TID
        )
        assert_identical(reference, candidate)
        squashed = [
            r for r in reference.task_records
            if r.tid == _CORRUPT_TID and not r.committed
        ]
        assert squashed and squashed[0].squash_reason == "register-live-in"
        # The pipelined engine had produced/forked successors of task k;
        # the squash must have thrown them away unjudged.
        assert stats.discarded > 0
        assert any(r.tid > _CORRUPT_TID for r in reference.task_records)


class TestPoolDegradation:
    def test_broken_thread_pool_degrades_to_eager_results(self, monkeypatch):
        """A thread backend whose pool never comes up must fall back to
        local re-execution of every produced chunk — same results, one
        pool_degraded announcement."""

        def refuse(self):
            self.mark_broken("thread pool forced down (test)")
            return None

        monkeypatch.setattr(ThreadExecutor, "_ensure_pool", refuse)
        ready = prepared("stringops")
        reference, _ = run_backend(
            ready.instance.program, ready.distillation, EAGER_CONFIG
        )
        with create_engine(
            ready.instance.program, ready.distillation, THREAD_CONFIG
        ) as engine:
            log = EventLog()
            engine.events.subscribe(log)
            candidate = engine.run()
        stats = candidate.counters.dispatch
        assert_identical(reference, candidate)
        assert stats.dispatched == 0
        assert stats.missing > 0 and stats.reexecuted == stats.missing
        degraded = [e for e in log.events if e.kind == "pool_degraded"]
        assert len(degraded) == 1 and degraded[0].executor == "thread"


class TestEventSeam:
    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(EAGER_CONFIG, id="eager"),
            pytest.param(THREAD_CONFIG, id="thread"),
        ],
    )
    def test_records_rebuilt_from_subscription(self, config):
        """An independently subscribed TraceRecorder must reconstruct
        ``MsspResult.records`` and ``MsspResult.counters`` exactly —
        both *are* a fold over the event stream, under every backend."""
        ready = prepared("fib_memo")
        with create_engine(
            ready.instance.program, ready.distillation, config
        ) as engine:
            recorder = TraceRecorder()
            log = EventLog()
            engine.events.subscribe(recorder)
            engine.events.subscribe(log)
            result = engine.run()
        assert recorder.records == result.records
        assert recorder.counters == result.counters
        assert recorder.counters.dispatch == result.counters.dispatch
        # Every judged task announced task_executed exactly once before
        # its verdict, on the pipelined backends too.
        executed = [e for e in log.events if e.kind == "task_executed"]
        assert len(executed) == len(result.task_records)
        assert any(e.kind == "task_forked" for e in log.events)

    def test_unsubscribe_stops_delivery(self):
        ready = prepared("fib_memo")
        with create_engine(
            ready.instance.program, ready.distillation, EAGER_CONFIG
        ) as engine:
            log = EventLog()
            unsubscribe = engine.events.subscribe(log)
            unsubscribe()
            engine.run()
        assert log.events == []


class TestRuntimeResolution:
    def test_resolve_runtime_names(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNTIME", raising=False)
        assert resolve_runtime(None) == "eager"
        assert resolve_runtime("eager") == "eager"
        assert resolve_runtime("thread") == "thread"
        assert resolve_runtime("process") == "process"
        for unknown in ("warp", "parallel", "sim"):
            with pytest.raises(ValueError):
                resolve_runtime(unknown)

    def test_env_selects_backend_when_config_defers(self, monkeypatch):
        ready = prepared("fib_memo")
        monkeypatch.setenv("REPRO_RUNTIME", "thread")
        deferred = create_engine(
            ready.instance.program, ready.distillation, MsspConfig()
        )
        explicit = create_engine(
            ready.instance.program, ready.distillation, EAGER_CONFIG
        )
        assert deferred.runtime == "thread"
        assert explicit.runtime == "eager"  # explicit beats environment

    def test_backend_types_match_runtime(self):
        ready = prepared("fib_memo")
        for config, expected in (
            (EAGER_CONFIG, InlineExecutor),
            (THREAD_CONFIG, ThreadExecutor),
            (PROCESS_CONFIG, ProcessExecutor),
        ):
            engine = create_engine(
                ready.instance.program, ready.distillation, config
            )
            executor = engine._make_executor()
            try:
                assert type(executor) is expected
            finally:
                executor.close()

    def test_env_runtime_bit_identical(self, monkeypatch):
        ready = prepared("stringops")
        reference, _ = run_backend(
            ready.instance.program, ready.distillation, EAGER_CONFIG
        )
        monkeypatch.setenv("REPRO_RUNTIME", "thread")
        candidate = run_mssp(
            ready.instance.program, ready.distillation,
            dataclasses.replace(THREAD_CONFIG, runtime=None),
        )
        assert_identical(reference, candidate)


class TestChunkLoop:
    """The one slave chunk loop the thread and process backends share."""

    PROGRAM = assemble("""
    main:   lw r1, 100(zero)
            addi r1, r1, 1
            sw r1, 100(zero)
            lw r2, 100(zero)
            addi r2, r2, 1
            sw r2, 100(zero)
            lw r3, 200(zero)
            halt
    """)
    #: Address 200 is a device: a slave touching it aborts the task.
    REGIONS = ProtectedRegions.from_config(((200, 201),))

    @staticmethod
    def task(tid, start_pc, end_pc):
        checkpoint = Checkpoint(regs=(0,) * NUM_REGS, mem={})
        return Task(
            tid=tid, start_pc=start_pc, checkpoint=checkpoint, end_pc=end_pc,
        )

    def run_chunk(self, tasks):
        return _execute_tasks(
            self.PROGRAM, iter(tasks), _ChainMemory({100: 5}),
            4, self.REGIONS, "decoded",
        )

    def test_chains_live_outs_and_times_every_task(self):
        tasks = [self.task(0, 0, 3), self.task(1, 3, 6), self.task(2, 0, 3)]
        results = self.run_chunk(tasks)
        assert len(results) == 3
        # Each task reads the cell its predecessor in the chunk wrote.
        assert [t.live_in_mem for t in tasks] == [
            {100: 5}, {100: 6}, {100: 7},
        ]
        assert [t.live_out_mem for t in tasks] == [
            {100: 6}, {100: 7}, {100: 8},
        ]
        assert all(t.exec_seconds > 0.0 for t in tasks)

    @pytest.mark.parametrize(
        "start_pc, end_pc, flag",
        [
            (99, None, "faulted"),          # pc outside the program
            (0, 6, "overrun"),              # 6 steps past the 4-step cap
            (6, None, "protected_access"),  # loads the device cell
        ],
    )
    def test_stops_after_the_first_failed_task(self, start_pc, end_pc, flag):
        tasks = [
            self.task(0, 0, 3), self.task(1, start_pc, end_pc),
            self.task(2, 3, 6),
        ]
        results = self.run_chunk(tasks)
        assert len(results) == 2
        assert getattr(tasks[1], flag)
        assert tasks[1].exec_seconds > 0.0
        # The successor never ran: in-order verify squashes the failed
        # task, so nothing after it in the chunk can be consumed.
        assert tasks[2].status is TaskStatus.OPEN
        assert tasks[2].n_instrs == 0


def _settle(done, timeout=5.0):
    """Poll ``done()`` until true or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while not done() and time.monotonic() < deadline:
        time.sleep(0.05)
    return done()


class TestPoolLifecycle:
    @pytest.mark.parallel
    def test_no_orphan_worker_processes(self):
        """Satellite: closing a process-backend engine must leave no
        live slave workers behind (deterministic lifecycle, not GC
        luck)."""
        baseline = set(multiprocessing.active_children())
        ready = prepared("fib_memo")
        run_mssp(ready.instance.program, ready.distillation, PROCESS_CONFIG)
        assert _settle(
            lambda: set(multiprocessing.active_children()) <= baseline
        ), "worker processes outlived engine close"

    def test_no_orphan_worker_threads(self):
        def slave_threads():
            return {
                t for t in threading.enumerate()
                if t.name.startswith("mssp-slave") and t.is_alive()
            }

        # Other engines in the test session (e.g. run with
        # REPRO_RUNTIME=thread as the default backend) may still hold
        # pools awaiting GC; only *this* run's threads must be gone.
        baseline = slave_threads()
        ready = prepared("fib_memo")
        run_mssp(ready.instance.program, ready.distillation, THREAD_CONFIG)
        assert _settle(lambda: slave_threads() <= baseline), (
            "slave threads outlived engine close"
        )

    def test_close_is_idempotent_and_engine_reusable(self):
        ready = prepared("fib_memo")
        reference, _ = run_backend(
            ready.instance.program, ready.distillation, EAGER_CONFIG
        )
        engine = create_engine(
            ready.instance.program, ready.distillation, THREAD_CONFIG
        )
        first = engine.run()
        engine.close()
        engine.close()  # idempotent
        second = engine.run()  # a fresh executor is built transparently
        engine.close()
        assert_identical(reference, first)
        assert_identical(reference, second)
