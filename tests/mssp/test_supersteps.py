"""Superstep differentials: the decoded slave and master run whole
basic-block chains, the oracle tier steps every instruction through
``semantics.execute``.  Every Task field and every MasterEvent must
match between the two, at the places a chain boundary could leak:
an end pc inside a block, arrivals, budgets that fall mid-chain, and
the master's intercepted ``fork``/``jr``.
"""

import dataclasses

import pytest

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


def run_slave(tier, start_pc, end_pc, regs, max_instrs, end_arrivals=1):
    values = [0] * NUM_REGS
    for index, value in regs.items():
        values[index] = value
    task = Task(
        tid=0, start_pc=start_pc, checkpoint=Checkpoint(regs=tuple(values)),
        end_pc=end_pc, end_arrivals=end_arrivals,
    )
    arch = ArchState(mem=SLAVE_PROGRAM.memory, pc=start_pc)
    return execute_task(SLAVE_PROGRAM, task, arch, max_instrs, tier=tier)


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
