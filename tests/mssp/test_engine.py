"""Integration tests for the MSSP engine on hand-built scenarios."""

import pytest

from repro.config import DistillConfig, MsspConfig
from repro.distill import Distiller
from repro.distill.pc_map import PcMap
from repro.errors import InvalidPcError, StepLimitExceeded
from repro.experiments.harness import prepare
from repro.isa.asm import assemble
from repro.machine.interpreter import run_to_halt
from repro.mssp import MsspEngine, TaskAttemptRecord, create_engine
from repro.profiling import profile_program
from repro.workloads import get_workload

AGGRESSIVE = DistillConfig(
    target_task_size=25, branch_bias_threshold=0.99, min_branch_count=8,
    value_spec_min_count=4,
)

LOOP_SOURCE = """
main:   li r1, 300
        li r3, 11
loop:   addi r1, r1, -1
        seq r9, r1, r3
        bne r9, zero, rare
back:   lw r5, 500(zero)
        add r6, r6, r5
        # never-firing overflow guard (assertion + DCE fodder)
        srli r10, r6, 20
        slli r11, r1, 2
        add r10, r10, r11
        slti r12, r10, 100000
        beq r12, zero, panic
        bne r1, zero, loop
        sw r6, 600(zero)
        halt
rare:   addi r2, r2, 1
        j back
panic:  li r6, -1
        sw r6, 600(zero)
        halt
        .data 500
        .word 13
"""


def distilled_loop(config=AGGRESSIVE):
    program = assemble(LOOP_SOURCE, name="loop")
    profile = profile_program(program)
    return program, Distiller(config).distill(program, profile)


class TestHappyPath:
    def test_equivalence_and_jumping_refinement(self):
        program, distillation = distilled_loop()
        engine = MsspEngine(program, distillation)
        result = engine.run_and_check()
        reference = run_to_halt(program)
        # Jumping refinement: committed + recovery instructions account
        # for exactly the sequential path length.
        assert result.counters.total_instrs == reference.steps
        assert result.final_state.pc == reference.state.pc

    def test_speculation_dominates_on_trained_input(self):
        program, distillation = distilled_loop()
        result = MsspEngine(program, distillation).run()
        assert result.counters.speculative_coverage > 0.9
        assert result.counters.tasks_committed > 10

    def test_master_runs_fewer_instructions(self):
        program, distillation = distilled_loop()
        result = MsspEngine(program, distillation).run()
        reference = run_to_halt(program)
        assert result.counters.master_instrs < reference.steps

    def test_trace_is_complete(self):
        program, distillation = distilled_loop()
        result = MsspEngine(program, distillation).run()
        committed = [r for r in result.task_records if r.committed]
        assert sum(r.n_instrs for r in committed) == (
            result.counters.committed_instrs
        )
        assert result.counters.tasks_committed == len(committed)

    def test_first_task_is_exact(self):
        program, distillation = distilled_loop()
        result = MsspEngine(program, distillation).run()
        assert result.task_records[0].exact

    def test_result_record_views(self):
        program, distillation = distilled_loop()
        result = MsspEngine(program, distillation).run()
        assert all(
            isinstance(r, TaskAttemptRecord) for r in result.task_records
        )
        assert len(result.records) >= len(result.task_records)


class TestMisprediction:
    def test_changed_input_squashes_but_stays_correct(self):
        """Profile on one data image, evaluate on another: the distilled
        program's value specialization goes stale, tasks squash, recovery
        kicks in, and the final state still matches SEQ."""
        program, distillation = distilled_loop()
        changed = program.updated_memory({500: 999})
        engine = MsspEngine(changed, (distillation.distilled.with_memory(
            changed.memory
        ), distillation.pc_map))
        result = engine.run()
        reference = run_to_halt(changed)
        assert result.final_state.diff(reference.state) == []
        assert result.counters.total_instrs == reference.steps

    def test_squash_reasons_recorded(self):
        program, distillation = distilled_loop()
        changed = program.updated_memory({500: 999})
        engine = MsspEngine(changed, (distillation.distilled.with_memory(
            changed.memory
        ), distillation.pc_map))
        result = engine.run()
        if result.counters.tasks_squashed:
            assert result.counters.squash_reasons
            assert any(not r.committed for r in result.task_records)


class TestDegenerateMaps:
    def test_entry_only_map_degrades_to_sequential(self):
        """A pc map with no real anchors: everything runs as recovery."""
        program = assemble(LOOP_SOURCE, name="loop")
        distilled = assemble("halt", name="empty")
        pc_map = PcMap(resume={program.entry: 0}, entry_orig=program.entry)
        result = MsspEngine(program, (distilled, pc_map)).run()
        reference = run_to_halt(program)
        assert result.final_state.diff(reference.state) == []
        assert result.counters.total_instrs == reference.steps

    def test_resume_pc_out_of_range_traps_master(self):
        program = assemble(LOOP_SOURCE, name="loop")
        distilled = assemble("halt", name="empty")
        pc_map = PcMap(resume={program.entry: 500}, entry_orig=program.entry)
        result = MsspEngine(program, (distilled, pc_map)).run()
        reference = run_to_halt(program)
        assert result.final_state.diff(reference.state) == []
        assert result.counters.master_failures >= 1

    def test_looping_master_times_out(self):
        program = assemble(LOOP_SOURCE, name="loop")
        distilled = assemble("main: j main\nhalt", name="spin")
        pc_map = PcMap(resume={program.entry: 0}, entry_orig=program.entry)
        config = MsspConfig(max_master_instrs_per_task=100)
        result = MsspEngine(program, (distilled, pc_map), config).run()
        reference = run_to_halt(program)
        assert result.final_state.diff(reference.state) == []
        assert result.counters.master_failures >= 1
        assert "master-timeout" in result.counters.squash_reasons


class TestFaultingPrograms:
    def test_real_program_fault_surfaces(self):
        """A program that genuinely jumps off its text must raise, exactly
        as it does under sequential execution (not be masked by MSSP)."""
        program = assemble("li r1, 999\njr r1\nhalt")
        distilled = assemble("halt")
        pc_map = PcMap(resume={0: 0}, entry_orig=0)
        with pytest.raises(InvalidPcError):
            MsspEngine(program, (distilled, pc_map)).run()
        with pytest.raises(InvalidPcError):
            run_to_halt(program)


class TestBudgets:
    def test_tiny_task_budget_forces_overruns_not_errors(self):
        program, distillation = distilled_loop()
        config = MsspConfig(max_task_instrs=2)
        result = MsspEngine(program, distillation, config).run()
        reference = run_to_halt(program)
        assert result.final_state.diff(reference.state) == []
        assert result.counters.squash_reasons.get("overrun", 0) > 0

    @pytest.mark.parametrize("runtime", ["eager", "thread", "process"])
    def test_total_budget_stops_where_the_sequential_machine_does(
        self, runtime
    ):
        # compress at size 350 retires 7,477 instructions and ends in a
        # committed halting task: budgets L - 1 and L must raise there
        # as run_to_halt does, and L + 1 must complete.
        ready = prepare(get_workload("compress"), size=350)
        program = ready.instance.program
        length = run_to_halt(program).steps
        for budget in (length - 1, length, length + 1):
            config = MsspConfig(
                runtime=runtime, num_slaves=2, max_total_instrs=budget
            )
            with create_engine(program, ready.distillation, config) as engine:
                if budget > length:
                    result = engine.run()
                    assert result.counters.total_instrs == length
                    assert result.task_records[-1].halted
                    assert result.task_records[-1].committed
                    assert run_to_halt(program, max_steps=budget).halted
                    continue
                with pytest.raises(StepLimitExceeded):
                    engine.run()
                with pytest.raises(StepLimitExceeded):
                    run_to_halt(program, max_steps=budget)
