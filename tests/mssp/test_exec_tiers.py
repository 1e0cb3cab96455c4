"""Execution-tier differential tests: oracle / decoded / jit end to end.

The execution tier (``MsspConfig.exec_tier`` / ``REPRO_EXEC``) selects
how slaves and recovery step the original program — it must never select
*what* they compute.  These tests hold the whole observable
:class:`~repro.mssp.engine.MsspResult` bit-identical across tiers, under
both runtimes, through squashes injected while JIT-executed chunks are
in flight, and down at the :func:`~repro.mssp.slave.execute_task` level
where the superblock guards (arrival counting at leaders, non-leader
deopt, budget overrun) are easiest to corner.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DistillConfig, MsspConfig
from repro.distill import Distiller
from repro.experiments.harness import prepare
from repro.isa.asm import assemble
from repro.machine.decoded import decode
from repro.machine.jit import block_leaders
from repro.machine.state import ArchState
from repro.mssp import MsspEngine, create_engine
from repro.mssp.faults import corrupt_live_in
from repro.mssp.slave import execute_task
from repro.mssp.task import Checkpoint, Task
from repro.profiling import profile_program
from repro.workloads import get_workload, workload_names

from tests.strategies import terminating_programs

_PREPARED = {}


def prepared(name):
    if name not in _PREPARED:
        spec = get_workload(name)
        _PREPARED[name] = prepare(spec, size=max(4, spec.default_size // 8))
    return _PREPARED[name]


def assert_identical(reference, candidate):
    assert candidate.records == reference.records
    assert candidate.counters == reference.counters
    assert candidate.device_trace == reference.device_trace
    assert candidate.halted == reference.halted
    assert candidate.final_state.pc == reference.final_state.pc
    assert candidate.final_state.diff(reference.final_state) == []


def eager_result(program, distillation, tier=None, config=None):
    config = config or MsspConfig()
    if tier is not None:
        config = dataclasses.replace(config, exec_tier=tier)
    return MsspEngine(program, distillation, config).run()


class TestEagerTierDifferential:
    @pytest.mark.parametrize("name", workload_names())
    def test_jit_bit_identical_on_workload(self, name):
        ready = prepared(name)
        reference = eager_result(ready.instance.program, ready.distillation)
        jit = eager_result(
            ready.instance.program, ready.distillation, tier="jit"
        )
        assert_identical(reference, jit)

    @pytest.mark.parametrize("name", ("fib_memo", "compress"))
    def test_oracle_bit_identical_on_workload(self, name):
        ready = prepared(name)
        reference = eager_result(ready.instance.program, ready.distillation)
        oracle = eager_result(
            ready.instance.program, ready.distillation, tier="oracle"
        )
        assert_identical(reference, oracle)

    def test_verify_fast_path_is_exercised(self):
        """The version-stamped skip must actually fire on a real run —
        otherwise the tier differentials above prove nothing about it."""
        ready = prepared("fib_memo")
        engine = MsspEngine(
            ready.instance.program, ready.distillation, MsspConfig()
        )
        engine.run()
        assert engine._versions.skipped > 0

    def test_env_tier_matches_config_tier(self, monkeypatch):
        ready = prepared("stringops")
        explicit = eager_result(
            ready.instance.program, ready.distillation, tier="jit"
        )
        monkeypatch.setenv("REPRO_EXEC", "jit")
        via_env = eager_result(ready.instance.program, ready.distillation)
        assert_identical(explicit, via_env)

    def test_bad_exec_tier_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            MsspConfig(exec_tier="warp")
        for tier in (None, "oracle", "decoded", "jit"):
            assert MsspConfig(exec_tier=tier).exec_tier == tier


#: Small tasks force many fork/verify/commit cycles even at test sizes.
FAST_DISTILL = DistillConfig(target_task_size=8)
FAST_CONFIG = MsspConfig(
    max_task_instrs=2_000, max_master_instrs_per_task=2_000,
    max_total_instrs=5_000_000,
)


class TestEagerTierProperty:
    @given(terminating_programs())
    @settings(max_examples=10, deadline=None)
    def test_any_program_bit_identical_across_tiers(self, program):
        profile = profile_program(program, max_steps=2_000_000)
        result = Distiller(FAST_DISTILL).distill(program, profile)
        distillation = (result.distilled, result.pc_map)
        reference = eager_result(program, distillation, config=FAST_CONFIG)
        for tier in ("oracle", "jit"):
            assert_identical(
                reference,
                eager_result(
                    program, distillation, tier=tier, config=FAST_CONFIG
                ),
            )


PARALLEL_JIT_CONFIG = MsspConfig(
    runtime="process", num_slaves=2, parallel_chunk_tasks=4,
    max_inflight_tasks=16, exec_tier="jit",
)


def run_parallel_differential(program, distillation, config, fault_tid=None):
    """Process-with-tier vs eager-decoded: the strongest cross check
    (different runtime *and* different stepper must agree).  With
    ``fault_tid``, both engines get the same event-seam live-in
    sabotage subscribed (see :func:`repro.mssp.faults.corrupt_live_in`)."""
    reference_engine = create_engine(
        program, distillation,
        dataclasses.replace(config, runtime="eager", exec_tier=None),
    )
    if fault_tid is not None:
        reference_engine.events.subscribe(corrupt_live_in(fault_tid))
    reference = reference_engine.run()
    engine = create_engine(program, distillation, config)
    assert engine.runtime == "process"
    if fault_tid is not None:
        engine.events.subscribe(corrupt_live_in(fault_tid))
    try:
        candidate = engine.run()
    finally:
        engine.close()
    assert_identical(reference, candidate)
    return engine.dispatch_stats


@pytest.mark.parallel
class TestParallelTierDifferential:
    @pytest.mark.parametrize("name", ("fib_memo", "compress", "stringops"))
    def test_jit_workers_bit_identical_on_workload(self, name):
        ready = prepared(name)
        stats = run_parallel_differential(
            ready.instance.program, ready.distillation, PARALLEL_JIT_CONFIG
        )
        # JIT-executed slave results must genuinely be adopted — a run
        # that degraded to local re-execution would prove nothing.
        assert stats.dispatched > 0
        assert stats.adopted > 0


#: Tid at which the injected fault forces a live-in mismatch.
_CORRUPT_TID = 5


@pytest.mark.parallel
class TestSquashDuringJitChunk:
    def test_forced_squash_bit_identical_under_jit(self):
        """Satellite: squash during a JIT-executed slave chunk.  The
        discarded in-flight work, the recovery walk (itself JIT-stepped),
        and everything after must match the eager decoded reference."""
        ready = prepared("fib_memo")
        stats = run_parallel_differential(
            ready.instance.program, ready.distillation, PARALLEL_JIT_CONFIG,
            fault_tid=_CORRUPT_TID,
        )
        assert stats.discarded > 0


HOT_TASK_PROGRAM = """
        .data
acc:    .word 0
        .text
main:   li r1, 48
        li r2, 0
loop:   add r2, r2, r1
        andi r3, r1, 3
        bne r3, r0, skip
        jal leaf
skip:   sw r2, acc(r0)
        lw r4, acc(r0)
        addi r1, r1, -1
        bne r1, r0, loop
        halt
leaf:   addi r2, r2, 7
        jr r31
"""


def run_task(program, tier, end_pc=None, end_arrivals=1, max_instrs=10_000):
    arch = ArchState.initial(program)
    task = Task(
        tid=0, start_pc=program.entry,
        checkpoint=Checkpoint(regs=tuple(arch.regs)),
        end_pc=end_pc, end_arrivals=end_arrivals,
    )
    execute_task(program, task, arch, max_instrs, tier=tier)
    return (
        task.live_in_regs, task.live_in_mem, task.live_out_regs,
        task.live_out_mem, task.n_instrs, task.n_loads, task.end_state_pc,
        task.halted, task.overrun, task.faulted,
    )


def visited_pcs(program):
    counts = {}

    def observer(pc, instr, effect, state):
        counts[pc] = counts.get(pc, 0) + 1

    decode(program).run(ArchState.initial(program), 1_000_000, observer)
    return counts


class TestExecuteTaskTiers:
    def test_leader_end_pc_with_arrival_counting(self):
        """JIT tasks ending at a hot leader must stop at exactly the
        k-th arrival, with identical recorded live-ins/live-outs."""
        program = assemble(HOT_TASK_PROGRAM)
        counts = visited_pcs(program)
        leaders = block_leaders(program)
        hot = [pc for pc, n in counts.items() if pc in leaders and n >= 4]
        assert hot, "fixture must revisit a leader"
        for end_pc in hot:
            for arrivals in (1, 2, 3):
                reference = run_task(
                    program, "decoded", end_pc=end_pc, end_arrivals=arrivals
                )
                for tier in ("oracle", "jit"):
                    assert run_task(
                        program, tier, end_pc=end_pc, end_arrivals=arrivals
                    ) == reference

    def test_non_leader_end_pc_deopts_identically(self):
        program = assemble(HOT_TASK_PROGRAM)
        counts = visited_pcs(program)
        leaders = block_leaders(program)
        mid_block = [pc for pc, n in counts.items()
                     if pc not in leaders and n >= 2]
        assert mid_block, "fixture must revisit a non-leader"
        for end_pc in mid_block[:3]:
            assert run_task(program, "jit", end_pc=end_pc) == run_task(
                program, "decoded", end_pc=end_pc
            )

    def test_budget_overrun_identical_inside_superblock(self):
        program = assemble(HOT_TASK_PROGRAM)
        total = run_task(program, "decoded")[4]
        for cut in (1, 2, 3, total // 3, total - 1):
            reference = run_task(program, "decoded", max_instrs=cut)
            assert reference[8], "cut must overrun"
            assert run_task(program, "jit", max_instrs=cut) == reference

    @given(terminating_programs(), st.sampled_from((5, 60, 10_000)))
    @settings(max_examples=15, deadline=None)
    def test_random_run_to_halt_tasks_identical(self, program, budget):
        reference = run_task(program, "decoded", max_instrs=budget)
        for tier in ("oracle", "jit"):
            assert run_task(program, tier, max_instrs=budget) == reference
