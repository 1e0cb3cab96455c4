"""Superstep differentials: the decoded slave and master run whole
basic-block chains, the oracle tier steps every instruction through
``semantics.execute``.  Every Task field and every MasterEvent must
match between the two, at the places a chain boundary could leak:
an end pc inside a block, arrivals, budgets that fall mid-chain, and
the master's intercepted ``fork``/``jr``.  Chains run on the register
list, and the slave records a chain's live-ins at entry, so the
register-file cases — reads after writes, r0, wraps — are pinned too.
"""

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from strategies import terminating_programs  # noqa: E402

from repro.config import MsspConfig
from repro.isa.asm import assemble
from repro.isa.registers import NUM_REGS
from repro.machine.state import ArchState
from repro.mssp.master import Master, MasterEventKind
from repro.mssp.slave import execute_task
from repro.mssp.task import Checkpoint, Task

TIERS = ("decoded", "oracle")

SLAVE_PROGRAM = assemble(
    """
    main:   li r1, 3            # 0
    loop:   addi r1, r1, -1     # 1  block 1..5
            lw r3, 100(r1)      # 2
            add r2, r2, r3      # 3
            sw r2, 200(r1)      # 4
            bne r1, zero, loop  # 5
            sw r2, 300(zero)    # 6
            halt                # 7
            .data 100
            .word 5, 6, 7
    """
)


def task_facts(task):
    """Every Task field; dicts as item lists so record order counts."""
    facts = {}
    for field in dataclasses.fields(Task):
        value = getattr(task, field.name)
        if isinstance(value, dict):
            value = list(value.items())
        facts[field.name] = value
    return facts


def run_slave(
    tier, start_pc, end_pc, regs, max_instrs, end_arrivals=1,
    program=SLAVE_PROGRAM,
):
    values = [0] * NUM_REGS
    for index, value in regs.items():
        values[index] = value
    task = Task(
        tid=0, start_pc=start_pc, checkpoint=Checkpoint(regs=tuple(values)),
        end_pc=end_pc, end_arrivals=end_arrivals,
    )
    arch = ArchState(mem=program.memory, pc=start_pc)
    return execute_task(program, task, arch, max_instrs, tier=tier)


class TestSlaveSupersteps:
    @pytest.mark.parametrize("case", [
        # end pc strictly inside the loop block (and at the halt, inside
        # the final block): the per-step loop must catch the arrival
        dict(start_pc=1, end_pc=3, regs={1: 3}, max_instrs=100),
        dict(start_pc=0, end_pc=7, regs={}, max_instrs=100),
        # end pc at a block's successor, and at the loop head
        dict(start_pc=1, end_pc=6, regs={1: 3}, max_instrs=100),
        dict(start_pc=1, end_pc=1, regs={1: 3}, max_instrs=100),
        # several arrivals before the task ends
        dict(start_pc=1, end_pc=1, regs={1: 3}, max_instrs=100,
             end_arrivals=2),
        dict(start_pc=1, end_pc=3, regs={1: 3}, max_instrs=100,
             end_arrivals=3),
    ], ids=[
        "end-inside-block", "end-at-halt-inside-block", "end-at-successor",
        "end-at-loop-head", "two-arrivals", "three-arrivals-inside-block",
    ])
    def test_end_pc_and_arrivals(self, case):
        decoded, oracle = (run_slave(tier, **case) for tier in TIERS)
        assert task_facts(decoded) == task_facts(oracle)
        assert not decoded.overrun and not decoded.halted

    @pytest.mark.parametrize("max_instrs", range(1, 13))
    def test_overrun_budget_anywhere_in_a_block(self, max_instrs):
        decoded, oracle = (
            run_slave(tier, 1, 6, {1: 1000}, max_instrs) for tier in TIERS
        )
        assert task_facts(decoded) == task_facts(oracle)
        assert decoded.overrun and decoded.n_instrs == max_instrs

    @pytest.mark.parametrize("max_instrs", [16, 17, 18, 19, 100])
    def test_task_ending_at_halt(self, max_instrs):
        # 17 non-halt instructions to the halt: the budget falls before,
        # at, and just past the final chain.
        decoded, oracle = (
            run_slave(tier, 0, None, {}, max_instrs) for tier in TIERS
        )
        assert task_facts(decoded) == task_facts(oracle)
        assert decoded.halted == (max_instrs > 17)
        assert decoded.n_loads == oracle.n_loads


#: Arrival pcs 1, 3 and 9 sit inside chains the master must cut before
#: the ``fork`` at 4 and the ``jr`` at 11.  The return address is an
#: original-program pc (40) that only the master's jr table maps back
#: into this text, as in a distilled program.
MASTER_PROGRAM = assemble(
    """
    main:   li r1, 3            # 0
    loop:   addi r1, r1, -1     # 1  arrival (anchor 50)
            lw r2, 100(zero)    # 2
            sw r1, 200(r1)      # 3  arrival (anchor 60)
            fork 50             # 4
            bne r1, zero, loop  # 5
            li r31, 40          # 6
            j sub               # 7
            halt                # 8
    sub:    addi r5, r5, 1      # 9  arrival (anchor 70)
            lw r6, 100(zero)    # 10
            jr r31              # 11
            .data 100
            .word 9
    """
)
ARRIVALS = {1: 50, 3: 60, 9: 70}
JR_TABLE = {40: 8}


def master_trace(tier, budget):
    """Every event (and the master's state after it) until a terminal one."""
    master = Master(
        MASTER_PROGRAM,
        MsspConfig(max_master_instrs_per_task=budget),
        arrival_pcs=ARRIVALS, jr_table=JR_TABLE, tier=tier,
    )
    master.restart(ArchState(mem=MASTER_PROGRAM.memory), 0)
    trace = []
    while True:
        event = master.run_until_fork()
        trace.append((event, dict(master._arrivals), master.total_instrs))
        if event.kind is not MasterEventKind.FORK:
            return trace


class TestMasterSupersteps:
    def test_chains_stop_before_fork_and_jr(self):
        decoded, oracle = (master_trace(tier, 1000) for tier in TIERS)
        assert decoded == oracle
        kinds = [event.kind for event, _, _ in decoded]
        assert kinds == [MasterEventKind.FORK] * 3 + [MasterEventKind.HALT]
        assert [event.arrivals for event, _, _ in decoded[:3]] == [1, 1, 1]
        assert decoded[-1][0].loads == 1  # the lw in sub, before jr

    @pytest.mark.parametrize("budget", range(1, 9))
    def test_budget_falls_mid_chain(self, budget):
        decoded, oracle = (master_trace(tier, budget) for tier in TIERS)
        assert decoded == oracle


#: Register-file corner cases, one chain boundary at each terminator.
#: The checkpoint below sets r0 to 77, which no tier may observe.
REGISTER_PROGRAM = assemble(
    """
    main:   li r1, 5            # 0  r1 written, then read: no live-in
            add r2, r1, r1      # 1
            add r3, r5, r4      # 2  live-ins r5 then r4 (not sorted)
            add r0, r7, r6      # 3  r0 destinations still read ...
            lw r0, 0(r8)        # 4  ... r8 (and memory cell 100)
            mov r0, r9          # 5  ... and r9
            add r21, r0, r0     # 6  r0 reads 0, not the checkpoint's 77
            beq r4, r10, next   # 7
    next:   add r11, r4, r10    # 8  r4, r10 again: recorded once
            srl r12, r13, r14   # 9  srl of a negative value
            mul r15, r16, r16   # 10 mul overflow
            li r17, 9223372036854775807   # 11
            li r18, -9223372036854775808  # 12
            addi r17, r17, 1    # 13 wraps to the minimum
            addi r18, r18, -1   # 14 wraps to the maximum
            li r19, 0x8000000000000000    # 15 a non-canonical immediate
            jal leaf            # 16
            sw r3, 104(r0)      # 17
            halt                # 18
    leaf:   add r22, r31, r20   # 19 r31 written by jal: no live-in
            addi r20, r20, 1    # 20
            jr r31              # 21
            .data 100
            .word 123
    """
)
REGISTER_CHECKPOINT = {
    0: 77, 4: 40, 5: 50, 6: 60, 7: 70, 8: 100, 9: 90, 10: 41, 13: -8,
    14: 1, 16: 1 << 40, 20: 200,
}


class TestRegisterFileChains:
    @pytest.mark.parametrize("end_pc", [None, 8, 19, 17])
    def test_task_fields_match_oracle(self, end_pc):
        decoded, oracle = (
            run_slave(
                tier, 0, end_pc, REGISTER_CHECKPOINT, 100,
                program=REGISTER_PROGRAM,
            )
            for tier in TIERS
        )
        assert task_facts(decoded) == task_facts(oracle)

    def test_live_ins_recorded_once_in_first_read_order(self):
        task = run_slave(
            "decoded", 0, None, REGISTER_CHECKPOINT, 100,
            program=REGISTER_PROGRAM,
        )
        assert task.halted
        assert list(task.live_in_regs.items()) == [
            (5, 50), (4, 40), (7, 70), (6, 60), (8, 100), (9, 90),
            (10, 41), (13, -8), (14, 1), (16, 1 << 40), (20, 200),
        ]
        assert task.live_in_mem == {100: 123}

    def test_register_results(self):
        out = run_slave(
            "decoded", 0, None, REGISTER_CHECKPOINT, 100,
            program=REGISTER_PROGRAM,
        ).live_out_regs
        assert 0 not in out and out[21] == 0
        assert out[12] == (-8 & ((1 << 64) - 1)) >> 1
        assert out[15] == 0  # 2**80 wraps to zero
        assert out[17] == -(1 << 63) and out[18] == (1 << 63) - 1
        assert out[19] == -(1 << 63)
        assert out[31] == 17 and out[22] == 217 and out[20] == 201
        assert out[11] == 81

    @settings(max_examples=40, deadline=None)
    @given(
        terminating_programs(),
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=1, max_value=3),
        st.lists(
            st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
            min_size=32, max_size=32,
        ),
    )
    def test_random_programs_match_oracle(
        self, program, end_seed, arrivals, values
    ):
        end_pc = None if end_seed % 4 == 0 else end_seed % len(program.code)
        regs = dict(enumerate(values))
        decoded, oracle = (
            run_slave(
                tier, program.entry, end_pc, regs, 5_000,
                end_arrivals=arrivals, program=program,
            )
            for tier in TIERS
        )
        assert task_facts(decoded) == task_facts(oracle)


MASTER_REGISTER_PROGRAM = assemble(
    """
    main:   li r1, -8           # 0
            li r2, 1            # 1
            srl r3, r1, r2      # 2  srl of a negative value
            li r4, 4611686018427387904    # 3  2**62
            mul r5, r4, r4      # 4  overflows to zero
            add r0, r1, r2      # 5
            lw r0, 100(zero)    # 6
            mov r0, r1          # 7
            li r6, 9223372036854775807    # 8
            addi r6, r6, 1      # 9
            fork 50             # 10
            jal sub             # 11
            fork 60             # 12
            halt                # 13
    sub:    add r7, r31, r6     # 14
            sw r7, 200(zero)    # 15
            jr r31              # 16
            .data 100
            .word 5
    """
)


class TestMasterRegisterFile:
    @pytest.mark.parametrize("budget", [1000, 3, 7, 12])
    def test_events_match_oracle(self, budget):
        traces = []
        for tier in TIERS:
            master = Master(
                MASTER_REGISTER_PROGRAM,
                MsspConfig(max_master_instrs_per_task=budget),
                arrival_pcs={2: 70}, jr_table={12: 12}, tier=tier,
            )
            master.restart(ArchState(mem=MASTER_REGISTER_PROGRAM.memory), 0)
            trace = []
            while True:
                event = master.run_until_fork()
                trace.append((event, dict(master._arrivals)))
                if event.kind is not MasterEventKind.FORK:
                    break
            traces.append(trace)
        assert traces[0] == traces[1]
        if budget == 1000:
            regs = traces[0][0][0].checkpoint.regs
            assert regs[3] == (1 << 63) - 4 and regs[5] == 0
            assert regs[6] == -(1 << 63) and regs[0] == 0
