"""Differential tests: the pre-decoded engine vs the semantic oracle.

:func:`repro.machine.semantics.execute` is the one true definition of
instruction semantics; :mod:`repro.machine.decoded` re-derives it at
decode time.  These tests hold the two bit-identical — final states,
step counts, and per-step effect streams, with and without observers —
over hand-written corner cases and random terminating programs.
"""

import pickle
import sys
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import given, settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from strategies import terminating_programs  # noqa: E402

from repro.errors import InvalidPcError, StepLimitExceeded
from repro.isa.asm import assemble
from repro.machine.decoded import (
    EFFECT_FALL,
    EFFECT_HALT,
    EFFECT_TAKEN,
    DecodedProgram,
    decode,
)
from repro.machine.interpreter import run, run_to_halt, seq
from repro.machine.semantics import execute
from repro.machine.state import ArchState


def snapshot(effect):
    """Value snapshot of a StepEffect (they may be interned singletons)."""
    return (
        effect.halted, effect.taken, effect.mem_addr, effect.mem_value,
        effect.is_store,
    )


def oracle_run(program, state, max_steps=1_000_000, observer=None):
    """The seed interpreter loop, verbatim (per-step execute dispatch)."""
    code = program.code
    size = len(code)
    steps = 0
    while True:
        pc = state.pc
        if not 0 <= pc < size:
            raise InvalidPcError(pc, size)
        instr = code[pc]
        effect = execute(instr, state)
        if effect.halted:
            if observer is not None:
                observer(pc, instr, effect, state)
            return steps, True
        steps += 1
        if observer is not None:
            observer(pc, instr, effect, state)
        if steps >= max_steps:
            raise StepLimitExceeded(max_steps)


def assert_equivalent(program, max_steps=1_000_000):
    """Run both engines from boot; compare states, counts, and effects."""
    oracle_state = ArchState.initial(program)
    oracle_trace = []

    def oracle_observer(pc, instr, effect, state):
        oracle_trace.append((pc, instr, snapshot(effect)))

    oracle_steps, oracle_halted = oracle_run(
        program, oracle_state, max_steps, oracle_observer
    )

    # Decoded, observer attached (per-step path).
    observed_state = ArchState.initial(program)
    observed_trace = []
    result = run(
        program, observed_state, max_steps=max_steps,
        observer=lambda pc, instr, effect, state: observed_trace.append(
            (pc, instr, snapshot(effect))
        ),
    )
    assert result.steps == oracle_steps
    assert result.halted == oracle_halted
    assert observed_state == oracle_state
    assert observed_trace == oracle_trace

    # Decoded, no observer (superstep fast path).
    fast_state = ArchState.initial(program)
    fast = run(program, fast_state, max_steps=max_steps)
    assert fast.steps == oracle_steps
    assert fast.halted == oracle_halted
    assert fast_state == oracle_state


FIXTURE = """
        .data
value:  .word 7
        .text
main:   li r1, 10
        li r2, 0
loop:   add r2, r2, r1
        addi r1, r1, -1
        bne r1, r0, loop
        lw r3, value(r0)
        mul r2, r2, r3
        sw r2, value(r0)
        jal leaf
        sll r0, r2, r2      # folded: writes the ZERO register
        halt
leaf:   addi r2, r2, 1
        jr r31
"""


class TestDifferentialFixtures:
    def test_fixture_program_equivalent(self):
        assert_equivalent(assemble(FIXTURE))

    def test_every_workload_boot_run_equivalent(self):
        from repro.workloads import WORKLOADS, get_workload

        for name in WORKLOADS:
            spec = get_workload(name)
            program = spec.instance(max(4, spec.default_size // 10)).program
            assert_equivalent(program, max_steps=2_000_000)

    def test_step_limit_fires_at_identical_instruction(self):
        program = assemble(FIXTURE)
        for limit in (1, 2, 3, 5, 8, 13, 21):
            oracle_state = ArchState.initial(program)
            with pytest.raises(StepLimitExceeded):
                oracle_run(program, oracle_state, max_steps=limit)
            fast_state = ArchState.initial(program)
            with pytest.raises(StepLimitExceeded):
                run(program, fast_state, max_steps=limit)
            # The budget must fire after exactly the same instruction,
            # leaving bit-identical states (superstep may not overshoot).
            assert fast_state == oracle_state

    def test_running_off_the_text_matches_oracle(self):
        """A text without a final terminator leaves the pc at its end."""
        program = assemble(".text\nmain: li r1, 3\n sw r1, 9(r0)\n")
        for oracle in (False, True):
            state = ArchState.initial(program)
            with pytest.raises(InvalidPcError):
                decode(program, oracle=oracle).run(state, 100)
            assert state.pc == 2 and state.load(9) == 3

    def test_register_corner_cases_equivalent(self):
        """Wraps at every bound, srl of negatives, and r0 writes."""
        assert_equivalent(assemble(
            ".text\nmain: li r1, -8\n li r2, 1\n srl r3, r1, r2\n"
            " srli r4, r1, 0\n li r5, 9223372036854775807\n"
            " addi r6, r5, 1\n mul r7, r5, r5\n muli r8, r5, 3\n"
            " li r9, -9223372036854775808\n sub r10, r9, r2\n"
            " div r11, r9, r1\n li r12, 0x10000000000000005\n"
            " andi r13, r1, 0x1ffffffffffffffff\n mov r0, r5\n"
            " add r0, r5, r5\n sll r14, r5, r2\n slt r15, r9, r5\n"
            " sw r7, 0x7fffffffffffffff(r2)\n"
            " lw r16, 0x7fffffffffffffff(r2)\n halt\n"
        ))

    def test_invalid_pc_parity(self):
        program = assemble(".text\nmain: j end\nend: halt\n")
        state = ArchState.initial(program)
        state.pc = 99
        with pytest.raises(InvalidPcError):
            run(program, state, max_steps=10)

    def test_seq_matches_oracle_prefixes(self):
        program = assemble(FIXTURE)
        reference = ArchState.initial(program)
        for n in range(0, 40, 7):
            advanced = seq(program, ArchState.initial(program), n)
            oracle = ArchState.initial(program)
            for _ in range(n):
                if execute(program.code[oracle.pc], oracle).halted:
                    break
            assert advanced == oracle
        assert ArchState.initial(program) == reference  # seq copies


class TestDifferentialRandom:
    @settings(max_examples=60, deadline=None)
    @given(terminating_programs())
    def test_random_programs_equivalent(self, program):
        assert_equivalent(program)

    @settings(max_examples=30, deadline=None)
    @given(terminating_programs())
    def test_stepwise_effect_stream_identical(self, program):
        """Manual stepping: one stepper call vs one execute call, lockstep."""
        decoded = decode(program)
        a = ArchState.initial(program)
        b = ArchState.initial(program)
        for _ in range(3_000):
            assert a.pc == b.pc
            effect_fast = decoded.steppers[a.pc](a)
            effect_oracle = execute(program.code[b.pc], b)
            assert snapshot(effect_fast) == snapshot(effect_oracle)
            assert a == b
            if effect_oracle.halted:
                break

    @settings(max_examples=20, deadline=None)
    @given(terminating_programs())
    def test_oracle_mode_decoding_matches_fast_mode(self, program):
        """DecodedProgram(oracle=True) is plumbing-identical to fast mode."""
        fast_state = ArchState.initial(program)
        fast = decode(program).run(fast_state, 1_000_000)
        oracle_state = ArchState.initial(program)
        oracle = decode(program, oracle=True).run(oracle_state, 1_000_000)
        assert fast == oracle
        assert fast_state == oracle_state


class TestInternedEffects:
    def test_common_effects_are_singletons(self):
        program = assemble(
            ".text\nmain: addi r1, r0, 1\n beq r1, r0, main\n j skip\n"
            "skip: halt\n"
        )
        decoded = decode(program)
        state = ArchState.initial(program)
        assert decoded.steppers[0](state) is EFFECT_FALL   # ALU
        assert decoded.steppers[1](state) is EFFECT_FALL   # branch not taken
        assert decoded.steppers[2](state) is EFFECT_TAKEN  # jump
        assert decoded.steppers[3](state) is EFFECT_HALT   # halt
        state.pc = 1
        state.write_reg(1, 0)
        assert decoded.steppers[1](state) is EFFECT_TAKEN  # branch taken

    def test_memory_effects_are_fresh(self):
        program = assemble(".text\nmain: lw r1, 5(r0)\n sw r1, 6(r0)\n halt\n")
        decoded = decode(program)
        state = ArchState.initial(program)
        load_effect = decoded.steppers[0](state)
        store_effect = decoded.steppers[1](state)
        assert load_effect.mem_addr == 5 and not load_effect.is_store
        assert store_effect.mem_addr == 6 and store_effect.is_store
        assert load_effect is not store_effect


class TestZeroRegisterFolding:
    def test_zero_writes_folded_but_reads_still_observed(self):
        """rd == ZERO closures skip the write yet perform operand reads."""
        program = assemble(
            ".text\nmain: li r1, 3\n add r0, r1, r1\n lw r0, 0(r1)\n"
            " li r0, 9\n mov r0, r1\n halt\n"
        )
        assert_equivalent(program)
        state = ArchState.initial(program)
        run(program, state, max_steps=100)
        assert state.read_reg(0) == 0

    def test_zero_read_recording_matches_on_slave_view(self):
        """Recording views see identical live-in sets both ways."""
        from repro.mssp.slave import SlaveView
        from repro.mssp.task import Checkpoint

        program = assemble(
            ".text\nmain: add r2, r1, r3\n lw r4, 16(r2)\n"
            " add r0, r5, r6\n sw r4, 0(r2)\n halt\n"
        )
        decoded = decode(program)
        arch = ArchState(mem={16: 42})

        def run_on_view(stepper_for):
            view = SlaveView(
                Checkpoint(regs=tuple(range(32)), mem={}), arch, 0
            )
            while True:
                if stepper_for(view).halted:
                    break
            return view

        fast = run_on_view(lambda view: decoded.steppers[view.pc](view))
        oracle = run_on_view(
            lambda view: execute(program.code[view.pc], view)
        )
        assert fast.live_in_regs == oracle.live_in_regs
        assert fast.live_in_mem == oracle.live_in_mem
        assert fast.live_out_regs() == oracle.live_out_regs()
        assert fast.live_out_mem() == oracle.live_out_mem()


class TestDecodeCache:
    def test_decode_is_cached_per_program_identity(self):
        program = assemble(".text\nmain: halt\n")
        assert decode(program) is decode(program)
        twin = assemble(".text\nmain: halt\n")
        assert decode(twin) is not decode(program)

    def test_oracle_and_fast_cached_separately(self):
        program = assemble(".text\nmain: halt\n")
        assert decode(program) is not decode(program, oracle=True)
        assert decode(program, oracle=True) is decode(program, oracle=True)

    def test_pickle_and_deepcopy_exclude_decode_cache(self):
        program = assemble(".text\nmain: li r1, 1\n halt\n")
        decode(program)  # populate the cache attachment
        revived = pickle.loads(pickle.dumps(program))
        assert "_decoded_cache" not in revived.__dict__
        assert revived == program
        cloned = deepcopy(program)
        assert "_decoded_cache" not in cloned.__dict__
        # And the revived program still decodes and runs.
        assert run_to_halt(revived).steps == run_to_halt(program).steps

    def test_chain_structure_covers_whole_text(self):
        program = assemble(FIXTURE)
        decoded = decode(program)
        assert len(decoded.steppers) == len(program.code)
        assert len(decoded.chains) == len(program.code)
        for pc, chain in enumerate(decoded.chains):
            assert 1 <= len(chain) <= len(program.code) - pc

    def test_chain_register_tables(self):
        program = assemble(
            ".text\nmain: add r3, r5, r4\n addi r5, r5, 1\n"
            " add r0, r6, r3\n lw r7, 0(r5)\n sw r7, 4(r8)\n"
            " bne r7, r9, main\n jal leaf\n halt\n"
            "leaf: mov r1, r31\n jr r1\n"
        )
        decoded = decode(program)
        assert decoded.chain_reads[:6] == (
            (5, 4, 6, 8, 9), (5, 6, 3, 8, 9), (6, 3, 5, 8, 9), (5, 8, 9),
            (8, 7, 9), (7, 9),
        )
        assert decoded.chain_writes[:6] == (
            (3, 5, 7), (5, 7), (7,), (7,), (), (),
        )
        assert decoded.chain_reads[6:] == ((), (), (31,), (1,))
        assert decoded.chain_writes[6:] == ((31,), (), (1,), ())

    def test_direct_construction_matches_cached(self):
        program = assemble(FIXTURE)
        direct = DecodedProgram(program)
        cached = decode(program)
        assert direct.meta == cached.meta
