"""Runtime-core tests: one pipeline, two executors, one event seam.

The tentpole invariant of :mod:`repro.mssp.runtime` is that the
executor backend (``MsspConfig.runtime`` ∈ eager/process) is
*unobservable*: both backends drive the same
:class:`~repro.mssp.runtime.pipeline.TaskPipeline` and produce a
bit-identical :class:`~repro.mssp.engine.MsspResult` (the differentials
over workloads, generated programs, forced squashes and pool failure
live in ``test_parallel_runtime.py``).  These tests hold the structural
guarantees around the seam: records are rebuilt from events (any
subscriber can reconstruct the exact stream), the runtime resolves from
config or environment, the slave chunk loop stops where verify would,
and the process backend releases its workers deterministically on
close.
"""

import dataclasses
import multiprocessing
import time
import types

import pytest

from repro.config import MsspConfig
from repro.experiments.harness import prepare
from repro.isa.asm import assemble
from repro.isa.registers import NUM_REGS
from repro.mssp import DispatchStats
from repro.mssp.engine import create_engine, run_mssp
from repro.mssp.regions import ProtectedRegions
from repro.mssp.runtime import executors
from repro.mssp.runtime.events import EventLog
from repro.mssp.runtime.executors import (
    InlineExecutor,
    ProcessExecutor,
    resolve_runtime,
)
from repro.mssp.runtime.procpool import (
    _OPEN_ENDS,
    _ChainMemory,
    _execute_tasks,
)
from repro.mssp.task import Checkpoint, Task, TaskStatus
from repro.mssp.trace import TraceRecorder
from repro.workloads import get_workload

#: Small chunks + a narrow window keep many chunk boundaries even at
#: test-sized workloads (mirrors test_parallel_runtime.PARALLEL_CONFIG).
PROCESS_CONFIG = MsspConfig(
    runtime="process", num_slaves=2, parallel_chunk_tasks=4,
    max_inflight_tasks=16,
)
EAGER_CONFIG = dataclasses.replace(PROCESS_CONFIG, runtime="eager")

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


def run_backend(program, distillation, config):
    """One run under ``config.runtime``; returns (result, dispatch stats)."""
    with create_engine(program, distillation, config) as engine:
        result = engine.run()
        return result, result.counters.dispatch


class _RefusedThread:
    """A thread the OS will not start: ``Thread.start`` raises
    ``RuntimeError`` once the process can have no more threads."""

    def __init__(self, *args, **kwargs):
        pass

    def start(self):
        raise RuntimeError("can't start new thread")


class TestPoolDegradation:
    def test_broken_thread_pool_degrades_to_eager_results(self, monkeypatch):
        """A process backend whose pool's start-up thread is refused
        must run every task locally — same results, nothing dispatched,
        one pool_degraded announcement — and leave no pool pipe open."""
        monkeypatch.setattr(
            executors, "threading", types.SimpleNamespace(Thread=_RefusedThread)
        )
        ready = prepared("stringops")
        reference, _ = run_backend(
            ready.instance.program, ready.distillation, EAGER_CONFIG
        )
        open_ends = set(_OPEN_ENDS)
        with create_engine(
            ready.instance.program, ready.distillation, PROCESS_CONFIG
        ) as engine:
            log = EventLog()
            engine.events.subscribe(log)
            candidate = engine.run()
        assert_identical(reference, candidate)
        assert candidate.counters.dispatch.summary() == DispatchStats().summary()
        degraded = [e for e in log.events if e.kind == "pool_degraded"]
        assert len(degraded) == 1 and degraded[0].executor == "process"
        assert _OPEN_ENDS <= open_ends


class TestEventSeam:
    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(EAGER_CONFIG, id="eager"),
            pytest.param(
                PROCESS_CONFIG, id="process", marks=pytest.mark.parallel
            ),
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
        # its verdict, on the pipelined backend too.
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
        assert resolve_runtime("process") == "process"
        for unknown in ("warp", "parallel", "sim", "thread"):
            with pytest.raises(ValueError):
                resolve_runtime(unknown)

    def test_env_selects_backend_when_config_defers(self, monkeypatch):
        ready = prepared("fib_memo")
        monkeypatch.setenv("REPRO_RUNTIME", "process")
        deferred = create_engine(
            ready.instance.program, ready.distillation, MsspConfig()
        )
        explicit = create_engine(
            ready.instance.program, ready.distillation, EAGER_CONFIG
        )
        assert deferred.runtime == "process"
        assert explicit.runtime == "eager"  # explicit beats environment

    def test_backend_types_match_runtime(self):
        ready = prepared("fib_memo")
        for config, expected in (
            (EAGER_CONFIG, InlineExecutor),
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
        monkeypatch.setenv("REPRO_RUNTIME", "process")
        candidate = run_mssp(
            ready.instance.program, ready.distillation,
            dataclasses.replace(PROCESS_CONFIG, runtime=None),
        )
        assert_identical(reference, candidate)


class TestChunkLoop:
    """The slave chunk loop a process worker runs for each chunk."""

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

    def test_close_is_idempotent_and_engine_reusable(self):
        ready = prepared("fib_memo")
        reference, _ = run_backend(
            ready.instance.program, ready.distillation, EAGER_CONFIG
        )
        engine = create_engine(
            ready.instance.program, ready.distillation, PROCESS_CONFIG
        )
        first = engine.run()
        engine.close()
        engine.close()  # idempotent
        second = engine.run()  # a fresh executor is built transparently
        engine.close()
        assert_identical(reference, first)
        assert_identical(reference, second)
