"""Differential tests: the process runtime against the eager reference.

The guarantee of ``runtime="process"`` is that pipelining the master
ahead of a process pool of slaves is *unobservable*: for any program,
any distillation (however corrupted), and any configuration, the engine
produces a bit-identical :class:`~repro.mssp.engine.MsspResult` — same
task records, counters, device trace, and final architected state.
These tests enforce that over every workload, over hypothesis-generated
programs, under fault injection (mid-flight squashes), and under pool
failure (the degradation paths must degrade to the eager result, not to
a different one).
"""

import dataclasses
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DistillConfig, MsspConfig
from repro.distill import Distiller
from repro.experiments.harness import prepare
from repro.isa.asm import assemble
from repro.mssp import DispatchStats, MsspEngine, create_engine
from repro.mssp.faults import (
    corrupt_distilled,
    corrupt_live_in,
    random_garbage_master,
)
from repro.mssp.runtime.executors import ProcessExecutor
from repro.mssp.runtime.procpool import (
    _WORKER_BASES,
    _ChainMemory,
    _episode_base,
    _wire_tasks,
)
from repro.profiling import profile_program
from repro.workloads import get_workload, workload_names

from tests.strategies import terminating_programs

pytestmark = pytest.mark.parallel

#: Small chunks + a narrow window keep many chunk boundaries (the
#: interesting coordination points) even at test-sized workloads.
PARALLEL_CONFIG = MsspConfig(
    runtime="process", num_slaves=2, parallel_chunk_tasks=4,
    max_inflight_tasks=16,
)

#: Budgets small enough that adversarial masters (infinite loops etc.)
#: fail fast; mirrors test_properties.FAST_CONFIG.
FAST_PARALLEL_CONFIG = dataclasses.replace(
    PARALLEL_CONFIG, max_task_instrs=2_000, max_master_instrs_per_task=2_000,
    max_total_instrs=5_000_000,
)

_PREPARED = {}


def prepared(name):
    """Profile + distill one workload at test size, once per session."""
    if name not in _PREPARED:
        spec = get_workload(name)
        size = max(4, spec.default_size // 8)
        _PREPARED[name] = prepare(spec, size=size)
    return _PREPARED[name]


def assert_identical(eager, parallel):
    """The whole observable MsspResult must match, bit for bit."""
    assert parallel.records == eager.records
    assert parallel.counters == eager.counters
    assert parallel.device_trace == eager.device_trace
    assert parallel.halted == eager.halted
    assert parallel.final_state.pc == eager.final_state.pc
    assert parallel.final_state.diff(eager.final_state) == []


class _ExternalPoolEngine(MsspEngine):
    """The process runtime on an externally owned pool: the program
    ships with every chunk, nothing is preloaded, and the engine never
    shuts the pool down."""

    def __init__(self, *args, pool, **kwargs):
        super().__init__(*args, **kwargs)
        self.pool = pool

    def _make_executor(self):
        return ProcessExecutor(self, self.events, external=self.pool)


def run_differential(program, distillation, config, executor=None,
                     fault_tid=None):
    eager_engine = create_engine(
        program, distillation, dataclasses.replace(config, runtime="eager")
    )
    if fault_tid is not None:
        eager_engine.events.subscribe(corrupt_live_in(fault_tid))
    eager_result = eager_engine.run()
    if executor is None:
        engine = create_engine(program, distillation, config)
    else:
        engine = _ExternalPoolEngine(
            program, distillation, config, pool=executor
        )
    assert engine.runtime == "process"
    if fault_tid is not None:
        engine.events.subscribe(corrupt_live_in(fault_tid))
    try:
        parallel_result = engine.run()
    finally:
        engine.close()
    assert_identical(eager_result, parallel_result)
    return eager_result, parallel_result, parallel_result.counters.dispatch


class TestWorkloadDifferential:
    @pytest.mark.parametrize("name", workload_names())
    def test_bit_identical_on_workload(self, name):
        ready = prepared(name)
        _, _, stats = run_differential(
            ready.instance.program, ready.distillation, PARALLEL_CONFIG
        )
        # A silently-degraded run (pool never started) would make this
        # test vacuous; require that tasks really crossed the pipe.
        assert stats.dispatched > 0
        assert stats.adopted + stats.stale + stats.missing > 0


@pytest.fixture(scope="module")
def shared_pool():
    """One executor shared by many engines (see
    :class:`_ExternalPoolEngine`)."""
    pool = ProcessPoolExecutor(max_workers=2)
    yield pool
    pool.shutdown(wait=False, cancel_futures=True)


class TestPropertyDifferential:
    @given(terminating_programs())
    @settings(max_examples=12, deadline=None)
    def test_any_program_bit_identical(self, shared_pool, program):
        profile = profile_program(program, max_steps=2_000_000)
        result = Distiller(DistillConfig(target_task_size=8)).distill(
            program, profile
        )
        run_differential(
            program, (result.distilled, result.pc_map),
            FAST_PARALLEL_CONFIG, executor=shared_pool,
        )

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_corrupted_distilled_bit_identical(self, shared_pool, seed):
        """Fault injection: valid-but-wrong masters squash mid-flight;
        the squash/cancel path must be as unobservable as the happy
        path."""
        ready = prepared("fib_memo")
        program = ready.instance.program
        corrupted = corrupt_distilled(
            ready.distillation.distilled, len(program.code), seed,
            severity=0.25,
        )
        run_differential(
            program, (corrupted, ready.distillation.pc_map),
            FAST_PARALLEL_CONFIG, executor=shared_pool,
        )

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_garbage_master_bit_identical(self, shared_pool, seed):
        ready = prepared("stringops")
        program = ready.instance.program
        garbage, pc_map = random_garbage_master(program, seed)
        run_differential(
            program, (garbage, pc_map), FAST_PARALLEL_CONFIG,
            executor=shared_pool,
        )


#: Tid at which the injected event-seam fault forces a live-in mismatch.
_CORRUPT_TID = 5


class TestSquashWhileInFlight:
    def test_forced_squash_discards_inflight_successors(self):
        """Satellite: inject a verification failure on task k (via the
        event seam's ``task_executed`` hook) and assert tasks k+1.. are
        discarded with identical records/counters under both runtimes."""
        ready = prepared("fib_memo")
        eager_result, _, stats = run_differential(
            ready.instance.program, ready.distillation, PARALLEL_CONFIG,
            fault_tid=_CORRUPT_TID,
        )
        squashed = [
            r for r in eager_result.task_records
            if r.tid == _CORRUPT_TID and not r.committed
        ]
        assert squashed and squashed[0].squash_reason == "register-live-in"
        # The parallel engine had already produced/forked successors of
        # task k; the squash must have thrown them away unjudged.
        assert stats.discarded > 0
        later = [
            r.tid for r in eager_result.task_records
            if r.tid > _CORRUPT_TID
        ]
        assert later, "the machine recovered and kept going past the squash"


IO_BASE = 0x8000
IO_REGIONS = ((IO_BASE, IO_BASE + 4),)

IO_PROGRAM = f"""
main:   li r1, 60
        li r4, 0
loop:   addi r1, r1, -1
        add r4, r4, r1
        andi r2, r1, 7
        bne r2, zero, skip       # every 8th iteration: device write
        sw r1, {IO_BASE + 1}(zero)
skip:   bne r1, zero, loop
        sw r4, 0x900(zero)
        lw r5, {IO_BASE}(zero)   # final device read
        sw r5, 0x901(zero)
        halt
"""


class TestDeviceTraceDifferential:
    def test_protected_regions_identical_device_trace(self):
        program = assemble(IO_PROGRAM)
        profile = profile_program(program)
        distillation = Distiller(DistillConfig(target_task_size=8)).distill(
            program, profile
        )
        config = dataclasses.replace(
            PARALLEL_CONFIG, protected_regions=IO_REGIONS,
            parallel_chunk_tasks=2,
        )
        eager_result, _, _ = run_differential(
            program, distillation, config
        )
        assert eager_result.device_trace, "the scenario must exercise I/O"


class _RefusingExecutor:
    """An executor whose submissions always fail (sandbox stand-in)."""

    def submit(self, fn, *args):
        raise OSError("subprocesses forbidden")


class TestPoolFailureFallback:
    def test_broken_executor_degrades_to_eager_results(self):
        ready = prepared("stringops")
        _, _, stats = run_differential(
            ready.instance.program, ready.distillation, PARALLEL_CONFIG,
            executor=_RefusingExecutor(),
        )
        assert stats.dispatched == 0
        assert stats.missing > 0 and stats.reexecuted == stats.missing

    def test_unstartable_pool_degrades_to_eager_results(self, monkeypatch):
        monkeypatch.setattr(
            ProcessExecutor, "_create_pool", lambda self: None
        )
        ready = prepared("stringops")
        _, _, stats = run_differential(
            ready.instance.program, ready.distillation, PARALLEL_CONFIG
        )
        assert stats.summary() == DispatchStats().summary()


class _CapturingExecutor(ProcessExecutor):
    """Record every encoded chunk next to the tasks it encodes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.captured = []

    def submit_chunk(self, batch):
        self.captured.append(
            (self._encode_chunk(batch),
             [dict(entry.task.checkpoint.mem) for entry in batch])
        )
        return super().submit_chunk(batch)


class _CapturingEngine(MsspEngine):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.captured = []

    def _make_executor(self):
        executor = _CapturingExecutor(self, self.events)
        executor.captured = self.captured  # shared accumulator
        return executor


class TestWireEncoding:
    def test_delta_encoding_reconstructs_every_checkpoint(self):
        """``mem_k == mem_{k-1} | delta_k``: the worker-side reconstruction
        (:func:`_wire_tasks`) must recover exactly the checkpoint memory
        the eager engine would have used."""
        ready = prepared("compress")
        engine = _CapturingEngine(
            ready.instance.program, ready.distillation, PARALLEL_CONFIG
        )
        with engine:
            engine.run()
        assert engine.captured
        saw_delta = False
        for payload, checkpoint_mems in engine.captured:
            wire_tasks = payload[6]
            saw_delta |= any(wire[5] is None for wire in wire_tasks)
            rebuilt = [task.checkpoint.mem for task in _wire_tasks(wire_tasks)]
            assert rebuilt == checkpoint_mems
        assert saw_delta, "no chunk exercised the delta encoding"

    def test_chain_memory_zero_values(self):
        chain = _ChainMemory({5: 9, 6: 4})
        assert chain.load(5) == 9
        assert chain.load(7) == 0        # absent cells read as zero
        chain.apply({5: 0, 7: 3})
        assert chain.load(5) == 0        # overlay zero shadows the base
        assert chain.load(6) == 4
        assert chain.load(7) == 3

    def test_episode_base_zero_delta_deletes_boot_cell(self):
        ready = prepared("stringops")
        program = ready.instance.program
        boot_address = next(
            a for a, v in program.memory.items() if v != 0
        )
        _WORKER_BASES.clear()
        base = _episode_base(
            ("test", 0), {boot_address: 0, 1 << 30: 17}, program
        )
        try:
            assert base.get(boot_address, 0) == 0
            assert base[1 << 30] == 17
        finally:
            _WORKER_BASES.clear()
