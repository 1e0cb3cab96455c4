"""Tests for the sequential interpreter (run / seq / step)."""

import pytest
from hypothesis import given, settings

from repro.errors import InvalidPcError, StepLimitExceeded
from repro.isa.asm import assemble
from repro.machine.interpreter import (
    count_dynamic_instructions,
    count_instructions_and_loads,
    run,
    run_to_halt,
    seq,
    step,
)
from repro.machine.state import ArchState

from tests.strategies import terminating_programs

COUNTDOWN = """
main:   li r1, 4
loop:   addi r1, r1, -1
        bne r1, zero, loop
        halt
"""

SUM_LOOP = """
main:   li r1, 0        # sum
        li r2, 1        # i
        li r3, 11       # limit
loop:   add r1, r1, r2
        addi r2, r2, 1
        bne r2, r3, loop
        sw r1, 100(zero)
        halt
"""


class TestRun:
    def test_countdown(self):
        result = run_to_halt(assemble(COUNTDOWN))
        assert result.halted
        assert result.state.regs[1] == 0
        # li + 4 * (addi + bne) = 9 executed instructions
        assert result.steps == 9

    def test_sum_loop_result_in_memory(self):
        result = run_to_halt(assemble(SUM_LOOP))
        assert result.state.load(100) == sum(range(1, 11))

    def test_step_limit(self):
        infinite = assemble("main: j main\nhalt")
        with pytest.raises(StepLimitExceeded):
            run(infinite, max_steps=100)

    def test_invalid_pc_detected(self):
        # jr into nowhere
        program = assemble("li r1, 999\njr r1\nhalt")
        with pytest.raises(InvalidPcError):
            run(program)

    def test_observer_sees_every_step_and_the_halt(self):
        seen = []
        run(
            assemble(COUNTDOWN),
            observer=lambda pc, instr, effect, state: seen.append(pc),
        )
        assert seen == [0, 1, 2, 1, 2, 1, 2, 1, 2, 3]

    def test_halt_not_counted_as_step(self):
        assert run_to_halt(assemble("halt")).steps == 0

    def test_run_uses_given_state(self):
        program = assemble(COUNTDOWN)
        state = ArchState(pc=program.entry)
        result = run(program, state=state)
        assert result.state is state


class TestStep:
    def test_single_step(self):
        program = assemble(COUNTDOWN)
        state = ArchState(pc=0)
        effect = step(program, state)
        assert not effect.halted
        assert state.pc == 1
        assert state.regs[1] == 4

    def test_step_out_of_range(self):
        program = assemble("halt")
        with pytest.raises(InvalidPcError):
            step(program, ArchState(pc=5))


class TestSeq:
    def test_seq_zero_is_identity(self):
        program = assemble(COUNTDOWN)
        state = ArchState(pc=0)
        state.write_reg(9, 7)
        advanced = seq(program, state, 0)
        assert advanced == state
        assert advanced is not state

    def test_seq_matches_stepping(self):
        program = assemble(SUM_LOOP)
        state = ArchState(pc=program.entry)
        manual = state.copy()
        for _ in range(7):
            step(program, manual)
        assert seq(program, state, 7) == manual

    def test_seq_does_not_mutate_input(self):
        program = assemble(COUNTDOWN)
        state = ArchState(pc=0)
        seq(program, state, 5)
        assert state == ArchState(pc=0)

    def test_seq_past_halt_is_fixed_point(self):
        program = assemble("halt")
        state = ArchState(pc=0)
        assert seq(program, state, 100) == state

    def test_seq_composes(self):
        """seq(S, a+b) == seq(seq(S, a), b) — determinism of SEQ."""
        program = assemble(SUM_LOOP)
        state = ArchState(pc=program.entry)
        assert seq(program, state, 12) == seq(program, seq(program, state, 5), 7)

    @given(terminating_programs())
    @settings(max_examples=20, deadline=None)
    def test_seq_composition_random(self, program):
        state = ArchState.initial(program)
        whole = seq(program, state, 30)
        split = seq(program, seq(program, state, 13), 17)
        assert whole == split


class TestCounting:
    def test_count_dynamic_instructions(self):
        assert count_dynamic_instructions(assemble(COUNTDOWN)) == 9

    @given(terminating_programs())
    @settings(max_examples=15, deadline=None)
    def test_random_programs_terminate(self, program):
        result = run_to_halt(program, max_steps=1_000_000)
        assert result.halted


def observed_count(program, max_steps):
    """The observer-based (instructions, loads) count: the reference."""
    loads = 0

    def observer(pc, instr, effect, state):
        nonlocal loads
        if effect.mem_addr is not None and not effect.is_store:
            loads += 1

    result = run(program, max_steps=max_steps, observer=observer)
    return result.steps, loads


def assert_count_matches_observer(program):
    """Equal counts, and the same StepLimitExceeded at the boundary."""
    expected = observed_count(program, 50_000_000)
    assert count_instructions_and_loads(program) == expected
    steps = expected[0]
    assert count_instructions_and_loads(program, steps + 1) == expected
    for budget in {steps, max(1, steps // 2)}:
        with pytest.raises(StepLimitExceeded):
            observed_count(program, budget)
        with pytest.raises(StepLimitExceeded):
            count_instructions_and_loads(program, budget)


class TestCountInstructionsAndLoads:
    def test_workload_evaluation_programs(self):
        from repro.workloads import WORKLOADS, get_workload

        for name in WORKLOADS:
            spec = get_workload(name)
            assert_count_matches_observer(
                spec.instance(max(4, spec.default_size // 10)).program
            )

    @given(terminating_programs())
    @settings(max_examples=25, deadline=None)
    def test_random_programs(self, program):
        assert_count_matches_observer(program)

    def test_oracle_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "oracle")
        assert_count_matches_observer(assemble(SUM_LOOP))
        assert count_instructions_and_loads(
            assemble("main: lw r1, 5(zero)\nlw r0, 6(zero)\nhalt")
        ) == (2, 2)
