"""Differential tests: the pre-decoded engine vs the semantic oracle.

:func:`repro.machine.semantics.execute` is the one true definition of
instruction semantics; :mod:`repro.machine.decoded` re-derives it at
decode time.  These tests hold the two bit-identical — final states,
step counts, and per-step effect streams, with and without observers —
over hand-written corner cases and random terminating programs.
"""

import pickle
import sys
import threading
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import given, settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from strategies import terminating_programs  # noqa: E402

from repro.errors import InvalidPcError, StepLimitExceeded
from repro.isa.asm import assemble
from repro.machine import decoded as decoded_module
from repro.machine.decoded import (
    EFFECT_FALL,
    EFFECT_HALT,
    EFFECT_TAKEN,
    EXEC_TIERS,
    DecodedProgram,
    decode,
    resolve_exec_tier,
)
from repro.machine.interpreter import run, run_to_halt, seq
from repro.machine.semantics import execute
from repro.machine.state import ArchState
from repro.workloads import WORKLOADS, get_workload


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
            " lw r16, 0x7fffffffffffffff(r2)\n"
            " li r17, -1\n div r18, r9, r17\n mod r19, r9, r17\n"
            " mod r20, r1, r6\n sra r21, r9, r17\n srli r22, r9, 63\n"
            " slti r23, r9, 0x8000000000000000\n xori r24, r5, -1\n"
            " sub r25, r5, r9\n lw r0, -1(r9)\n sw r5, -1(r9)\n"
            " lw r26, 9223372036854775807(r0)\n"
            " blt r9, r5, bounds\n halt\n"
            "bounds: bge r5, r9, done\n halt\n"
            "done: add r0, r0, r0\n halt\n"
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


class TestExecTierPlumbing:
    def test_resolve_defaults_to_decoded(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        assert resolve_exec_tier() == "decoded"

    def test_resolve_reads_env_with_normalization(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "  ORACLE ")
        assert resolve_exec_tier() == "oracle"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "oracle")
        assert resolve_exec_tier("decoded") == "decoded"

    def test_unknown_tier_rejected(self, monkeypatch):
        for unknown in ("warp", "turbo", "jit"):
            monkeypatch.setenv("REPRO_EXEC", unknown)
            with pytest.raises(ValueError):
                resolve_exec_tier()
            with pytest.raises(ValueError):
                resolve_exec_tier(unknown)

    @pytest.mark.parametrize("tier", EXEC_TIERS)
    def test_interpreter_run_identical_under_every_tier(
        self, monkeypatch, tier
    ):
        program = assemble(FIXTURE)
        ref_state = ArchState.initial(program)
        ref = oracle_run(program, ref_state)
        monkeypatch.setenv("REPRO_EXEC", tier)
        state = ArchState.initial(program)
        result = run(program, state, max_steps=1_000_000)
        assert (result.steps, result.halted) == ref
        assert state == ref_state


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

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("derive", [
        lambda p: p.with_memory({64: 7}),
        lambda p: p.updated_memory({64: 7}),
        lambda p: p.with_name("child"),
        lambda p: p.with_name("child").with_memory({}),
    ], ids=["with_memory", "updated_memory", "with_name", "grandchild"])
    def test_derived_programs_share_the_decoding(self, derive, oracle):
        parent = assemble(".text\nmain: li r1, 1\n halt\n")
        child = derive(parent)
        assert child is not parent and child.code is parent.code
        assert decode(child, oracle=oracle) is decode(parent, oracle=oracle)
        # Whichever member decodes first, the family holds one decoding.
        decoded_parent = assemble(".text\nmain: li r1, 1\n halt\n")
        first = decode(decoded_parent, oracle=oracle)
        assert decode(derive(decoded_parent), oracle=oracle) is first
        assert decode(child, oracle=oracle) is not first

    def test_workload_instance_decodes_once(self):
        instance = get_workload("crc").instance(40)
        decoded = decode(instance.program)
        for train in instance.train_programs:
            assert train is not instance.program
            assert decode(train) is decoded
        assert decode(get_workload("crc").instance(40).program) is not decoded

    def test_cold_prepare_and_run_build_two_decodings(self, monkeypatch):
        from repro.experiments import prepare
        from repro.mssp import create_engine

        built = []
        original = DecodedProgram.__init__

        def counting(self, program, oracle=False):
            built.append(program.code)
            original(self, program, oracle)

        monkeypatch.setattr(DecodedProgram, "__init__", counting)
        ready = prepare(get_workload("compress"), size=300)
        with create_engine(
            ready.instance.program, ready.distillation
        ) as engine:
            engine.run()
        assert len(built) == 2
        assert built[0] is ready.instance.program.code
        assert built[1] is ready.distillation.distilled.code
        ready.distillation_ratio  # both counts reuse the two decodings
        assert len(built) == 2

    def test_pickle_and_deepcopy_of_a_child_exclude_shared_decodings(self):
        parent = assemble(".text\nmain: li r1, 1\n halt\n")
        child = parent.with_memory({64: 7})
        decode(child)
        revived = pickle.loads(pickle.dumps(child))
        assert "_decoded_cache" not in revived.__dict__
        assert revived == child
        cloned = deepcopy(child)
        assert "_decoded_cache" not in cloned.__dict__
        assert decode(revived) is not decode(child)
        assert run_to_halt(revived).steps == run_to_halt(child).steps

    def test_chain_structure_covers_whole_text(self):
        program = assemble(FIXTURE)
        decoded = decode(program)
        assert len(decoded.steppers) == len(program.code)
        assert len(decoded.chain_spans) == len(program.code)
        for pc, n in enumerate(decoded.chain_spans):
            assert 1 <= n <= len(program.code) - pc

    def test_chain_register_tables(self):
        program = assemble(
            ".text\nmain: add r3, r5, r4\n addi r5, r5, 1\n"
            " add r0, r6, r3\n lw r7, 0(r5)\n sw r7, 4(r8)\n"
            " bne r7, r9, main\n jal leaf\n halt\n"
            "leaf: mov r1, r31\n jr r1\n"
        )
        decoded = decode(program)
        # The traces from 0-5 run through the bne to the jal, which
        # writes r31.
        assert decoded.chain_reads[:6] == (
            (5, 4, 6, 8, 9), (5, 6, 3, 8, 9), (6, 3, 5, 8, 9), (5, 8, 9),
            (8, 7, 9), (7, 9),
        )
        assert decoded.chain_writes[:6] == (
            (3, 5, 7, 31), (5, 7, 31), (7, 31), (7, 31), (31,), (31,),
        )
        assert decoded.chain_reads[6:] == ((), (), (31,), (1,))
        assert decoded.chain_writes[6:] == ((31,), (), (1,), ())

    def test_direct_construction_matches_cached(self):
        program = assemble(FIXTURE)
        direct = DecodedProgram(program)
        cached = decode(program)
        assert direct.meta == cached.meta


@pytest.fixture
def chain_cache(monkeypatch):
    """An empty process-wide chain cache for one test."""
    cache = {}
    monkeypatch.setattr(decoded_module, "_chain_cache", cache)
    return cache


#: Entered from main: the traces at 0 (li through halt, left at the bne
#: while the loop runs) and 1 (the loop body through halt, which the
#: last iteration reaches).  Nothing enters ``cold`` or the lone halt.
LOOP = """
main:   li r1, 5
loop:   addi r1, r1, -1
        bne r1, r0, loop
        halt
cold:   addi r2, r2, 1
        halt
"""


def run_fast(program, max_steps=1_000_000):
    state = ArchState.initial(program)
    decode(program).run(state, max_steps)
    return state


class TestChainCompilePolicy:
    """Chains compile at first entry into a bounded, content-keyed
    process-wide cache."""

    def test_never_entered_pc_is_never_compiled(self, chain_cache):
        program = assemble(LOOP)
        run_fast(program)
        decoded = decode(program)
        assert set(decoded.chains) == {0, 1}
        assert sorted(key[0] for key in chain_cache) == [0, 1]

    def test_equal_texts_share_chain_functions(self, chain_cache):
        first, second = assemble(LOOP), assemble(LOOP)
        assert run_fast(first) == run_fast(second)
        a, b = decode(first), decode(second)
        assert a is not b and set(a.chains) == set(b.chains)
        assert all(a.chains[pc] is b.chains[pc] for pc in a.chains)
        assert len(chain_cache) == 2

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_training_and_evaluation_instances_share_chains(
        self, chain_cache, name
    ):
        spec = get_workload(name)
        instance = spec.instance(max(4, spec.default_size // 10))
        programs = (instance.program,) + tuple(instance.train_programs)
        for program in programs:
            run_fast(program, max_steps=2_000_000)
        compiled = len(chain_cache)
        entered = [decode(program).chains for program in programs]
        for chains in entered[1:]:
            for pc in set(chains) & set(entered[0]):
                assert chains[pc] is entered[0][pc]
        assert compiled == len(set().union(*entered))

    def test_engine_rerun_compiles_nothing(self, chain_cache, monkeypatch):
        from repro.config import MsspConfig
        from repro.experiments import prepare
        from repro.mssp import create_engine

        compiled = []
        compile_chain = decoded_module._compile_chain

        def counting(pc, span, recording=None):
            compiled.append((pc, recording is not None))
            return compile_chain(pc, span, recording)

        monkeypatch.setattr(decoded_module, "_compile_chain", counting)
        ready = prepare(get_workload("compress"), size=40)
        # In-process slaves: worker processes compile out of the spy's
        # sight.
        config = MsspConfig(runtime="eager")
        with create_engine(
            ready.instance.program, ready.distillation, config
        ) as engine:
            first = engine.run()
            master = engine._master
            entered = dict(master._supersteps)
            count = len(compiled)
            assert engine.run().counters == first.counters
            # One master per distillation: a warm run builds no entry of
            # its trace table.
            assert engine._master is master
            assert master._supersteps == entered
        assert count and len(compiled) == count
        # The slaves entered recording chains, compiled once each too.
        recorded = [pc for pc, recording in compiled if recording]
        assert recorded and len(set(recorded)) == len(recorded)

    @staticmethod
    def run_slave_task(program, tier="decoded"):
        """One task from the entry to halt on a recording view."""
        from repro.mssp.slave import execute_task
        from repro.mssp.task import Checkpoint, Task

        task = Task(
            tid=0, start_pc=program.entry,
            checkpoint=Checkpoint(regs=(0,) * 32),
        )
        arch = ArchState.initial(program)
        return execute_task(program, task, arch, 1_000_000, tier=tier)

    def test_recording_chains_compile_only_where_a_slave_enters(
        self, chain_cache
    ):
        program = assemble(LOOP)
        task = self.run_slave_task(program)
        assert task.halted and task.live_out_regs == {1: 0}
        decoded = decode(program)
        assert set(decoded.recording_chains) == {0, 1}
        assert not decoded.chains  # the slave runs no plain chain
        assert sorted(key[0] for key in chain_cache) == [0, 1]
        assert all(key[-1] for key in chain_cache)
        # A twin program's slave compiles nothing more.
        self.run_slave_task(assemble(LOOP))
        assert len(chain_cache) == 2

    def test_recording_cache_stops_at_its_bound(
        self, chain_cache, monkeypatch
    ):
        monkeypatch.setattr(decoded_module, "CHAIN_CACHE_LIMIT", 2)
        program = assemble(FIXTURE)
        decoded_task = self.run_slave_task(program)
        oracle_task = self.run_slave_task(assemble(FIXTURE), "oracle")
        assert len(decode(program).recording_chains) > 2
        assert len(chain_cache) == 2
        for name in (
            "live_in_regs", "live_in_mem", "live_out_regs", "live_out_mem",
            "n_instrs", "n_loads", "end_state_pc", "halted",
        ):
            assert getattr(decoded_task, name) == getattr(oracle_task, name)

    def test_texts_differing_in_one_immediate_share_none(self, chain_cache):
        three = assemble(".text\nmain: li r1, 5\n addi r2, r1, 3\n halt\n")
        four = assemble(".text\nmain: li r1, 5\n addi r2, r1, 4\n halt\n")
        assert run_fast(three).regs[2] == 8
        assert run_fast(four).regs[2] == 9
        assert set(decode(three).chains) == set(decode(four).chains) == {0}
        assert decode(three).chains[0] is not decode(four).chains[0]
        assert len(chain_cache) == 2

    def test_cache_stops_at_its_bound_and_eviction_changes_nothing(
        self, chain_cache, monkeypatch
    ):
        monkeypatch.setattr(decoded_module, "CHAIN_CACHE_LIMIT", 2)
        program = assemble(FIXTURE)
        expected = ArchState.initial(program)
        oracle_run(program, expected)
        assert run_fast(program) == expected
        assert len(decode(program).chains) > 2
        assert len(chain_cache) == 2
        # A twin decodes afresh and recompiles the evicted spans; the
        # first decoding keeps running the chains it already holds.
        assert run_fast(assemble(FIXTURE)) == expected
        assert run_fast(program) == expected
        assert len(chain_cache) == 2

    def test_threads_entering_an_uncompiled_chain_match_the_oracle(
        self, chain_cache
    ):
        expected = ArchState.initial(assemble(FIXTURE))
        oracle_run(assemble(FIXTURE), expected)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                chain_cache.clear()
                program = assemble(FIXTURE)
                decode(program)
                barrier = threading.Barrier(4)
                results = []

                def enter():
                    barrier.wait(timeout=10)
                    results.append(run_fast(program))

                threads = [threading.Thread(target=enter) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert len(results) == 4
                assert all(state == expected for state in results)
        finally:
            sys.setswitchinterval(switch)
