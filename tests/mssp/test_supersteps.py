"""Trace differentials: the decoded slave, master and recovery run
whole fall-through traces, the oracle tier steps every instruction
through ``semantics.execute``.  Every Task field, every MasterEvent and
every recovery must match between the two, at the places a trace
boundary could leak: side exits, an end pc or an anchor inside a trace,
arrivals, budgets and caps that fall mid-trace, and the master's
intercepted ``fork``/``jr``.  Traces run on the register list, and the
slave's recording traces record each segment's live-ins at its entry,
so the register-file cases — reads after writes, r0, wraps, traces
entered again — are pinned too.
"""

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from strategies import terminating_programs  # noqa: E402

from repro.config import DistillConfig, MsspConfig
from repro.distill import Distiller
from repro.distill.pc_map import PcMap
from repro.errors import StepLimitExceeded
from repro.isa.asm import assemble
from repro.isa.registers import NUM_REGS
from repro.machine.decoded import decode
from repro.machine.state import ArchState
from repro.mssp.engine import MsspEngine
from repro.mssp.master import Master, MasterEventKind
from repro.mssp.slave import execute_task
from repro.mssp.task import Checkpoint, Task
from repro.profiling import profile_program
from repro.workloads import workload_names

from tests.mssp.test_runtime_matrix import prepared

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

    def test_standalone_count_at_every_budget(self):
        """Forks fall through and jr translates; a budget that falls
        inside a chain raises exactly where stepping does."""
        full = standalone(MASTER_PROGRAM, JR_TABLE, "oracle", 10_000)
        # The halt chain runs whole from a budget of full + 2 on.
        for budget in range(1, full + 3):
            assert standalone(
                MASTER_PROGRAM, JR_TABLE, "decoded", budget
            ) == standalone(MASTER_PROGRAM, JR_TABLE, "oracle", budget)

    @pytest.mark.parametrize("name", workload_names())
    def test_standalone_count_on_workload(self, name):
        ready = prepared(name)
        distilled = ready.distillation.distilled.with_memory(
            ready.instance.program.memory
        )
        jr_table = ready.distillation.pc_map.jr_table
        n = standalone(distilled, jr_table, "oracle", 50_000_000)
        assert standalone(distilled, jr_table, "decoded", 50_000_000) == n
        for budget in sorted({1, 2, 3, 7, 50, 123, n // 3, n // 2, n - 1,
                              n, n + 1} - {0}):
            assert standalone(
                distilled, jr_table, "decoded", budget
            ) == standalone(distilled, jr_table, "oracle", budget)

    @given(terminating_programs(), st.sampled_from((1, 5, 60, 10_000)))
    @settings(max_examples=15, deadline=None)
    def test_standalone_count_on_random_programs(self, program, budget):
        profile = profile_program(program, max_steps=2_000_000)
        result = Distiller(DistillConfig(target_task_size=8)).distill(
            program, profile
        )
        distilled = result.distilled.with_memory(program.memory)
        jr_table = result.pc_map.jr_table
        assert standalone(
            distilled, jr_table, "decoded", budget
        ) == standalone(distilled, jr_table, "oracle", budget)


def standalone(distilled, jr_table, tier, max_steps):
    """``Master.run_standalone``'s count on ``tier``, or the limit of
    the :class:`StepLimitExceeded` it raised."""
    master = Master(distilled, MsspConfig(), jr_table=jr_table, tier=tier)
    try:
        return master.run_standalone(
            ArchState(mem=distilled.memory, pc=distilled.entry), max_steps
        )
    except StepLimitExceeded as exc:
        return ("limit", exc.limit)


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
            and r23, r24, r24   # 21 checkpoint values outside int64:
            mov r25, r26        # 22 every result wraps ...
            slt r27, r24, r26   # 23 ... compares see the raw values
            sw r24, 0(r26)      # 24 wrapped address and value
            lw r28, 0(r26)      # 25
            jr r31              # 26
    tail:   add r29, r24, r24   # 27 the text ends without a terminator
            .data 100
            .word 123
    """
)
REGISTER_CHECKPOINT = {
    0: 77, 4: 40, 5: 50, 6: 60, 7: 70, 8: 100, 9: 90, 10: 41, 13: -8,
    14: 1, 16: 1 << 40, 20: 200, 24: (1 << 64) + 7, 26: -(1 << 64) - 100,
}


class TestRegisterFileChains:
    @pytest.mark.parametrize("start_pc, end_pc", [
        pytest.param(0, None, id="None"),
        pytest.param(0, 8, id="8"),
        pytest.param(0, 19, id="19"),
        pytest.param(0, 17, id="17"),
        pytest.param(27, None, id="off-the-text"),
    ])
    def test_task_fields_match_oracle(self, start_pc, end_pc):
        decoded, oracle = (
            run_slave(
                tier, start_pc, end_pc, REGISTER_CHECKPOINT, 100,
                program=REGISTER_PROGRAM,
            )
            for tier in TIERS
        )
        assert task_facts(decoded) == task_facts(oracle)
        assert decoded.faulted == (start_pc == 27)

    def test_live_ins_recorded_once_in_first_read_order(self):
        task = run_slave(
            "decoded", 0, None, REGISTER_CHECKPOINT, 100,
            program=REGISTER_PROGRAM,
        )
        assert task.halted
        assert list(task.live_in_regs.items()) == [
            (5, 50), (4, 40), (7, 70), (6, 60), (8, 100), (9, 90),
            (10, 41), (13, -8), (14, 1), (16, 1 << 40), (20, 200),
            (24, (1 << 64) + 7), (26, -(1 << 64) - 100),
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
        assert out[23] == 7 and out[25] == -100 and out[27] == 0
        assert out[28] == 7

    #: A loop whose body re-enters the chain at 1 with r1, r2 and r4
    #: written and r3 and r5 recorded by the previous iteration; the
    #: chain at 0 writes r2 before the loop reads it.
    REENTRY_PROGRAM = assemble(
        """
        main:   li r2, 7            # 0
        loop:   add r4, r3, r2      # 1  r3 live-in once; r2 written at 0
                addi r1, r1, -1     # 2  r1 live-in in iteration one only
                add r2, r2, r5      # 3  r5 live-in once
                bne r1, zero, loop  # 4
                sw r4, 100(zero)    # 5
                halt                # 6
        """
    )

    @pytest.mark.parametrize("start_pc, end_pc, arrivals, live_ins", [
        pytest.param(0, None, 1, [(3, 13), (1, 3), (5, 17)],
                     id="whole-loop"),
        pytest.param(1, 1, 2, [(3, 13), (2, 11), (1, 3), (5, 17)],
                     id="second-iteration"),
        pytest.param(1, 5, 1, [(3, 13), (2, 11), (1, 3), (5, 17)],
                     id="loop-to-exit"),
    ])
    def test_reentered_chains_match_oracle(
        self, start_pc, end_pc, arrivals, live_ins
    ):
        regs = {1: 3, 2: 11, 3: 13, 5: 17}
        decoded, oracle = (
            run_slave(
                tier, start_pc, end_pc, regs, 100, end_arrivals=arrivals,
                program=self.REENTRY_PROGRAM,
            )
            for tier in TIERS
        )
        assert task_facts(decoded) == task_facts(oracle)
        assert list(decoded.live_in_regs.items()) == live_ins

    def test_recording_chain_skips_written_and_recorded_registers(self):
        # The chain at 1 run directly, as a second iteration finds it:
        # r2 already written, r3 already recorded (with an older value).
        # r1 reaches 0, so the trace runs through the bne to the halt.
        from repro.mssp.slave import SlaveView

        program = self.REENTRY_PROGRAM
        view = SlaveView(
            Checkpoint(regs=tuple(range(NUM_REGS))), ArchState(), 1
        )
        view._reg_written[2] = True
        view.live_in_regs[3] = -3
        retired = decode(program).recording_chains[1](
            view.regs, view, view._reg_written, view.live_in_regs
        )
        assert list(view.live_in_regs.items()) == [(3, -3), (1, 1), (5, 5)]
        assert view.live_out_regs() == {1: 0, 2: 7, 4: 5}
        assert view.live_out_mem() == {100: 5}
        assert retired == 6 and view.pc == 6

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


#: One loop whose body is a long trace (2..12) with three side exits,
#: chosen per iteration by a mode table: mode 0 leaves at the first
#: branch (4), mode 1 at the middle one (7), mode 2 at the last (10),
#: and mode 3 runs the whole trace.  The trace from 17 ends in ``halt``;
#: ``j next`` enters it mid-span at 18, and its bne (19) leaves before
#: the halt on every iteration but the last.  The beq at 1 targets its
#: own fall-through pc, so it ends the trace from 0.
TRACE_SOURCE = """
main:   li r1, 8             # 0
        beq r1, r10, loop    # 1  target is its own fall-through
loop:   addi r1, r1, -1      # 2
        lw r2, 100(r1)       # 3  the mode
        beq r2, zero, m0     # 4  first side exit
        addi r3, r3, 1       # 5
        slti r4, r2, 2       # 6
        bne r4, zero, m1     # 7  middle side exit
        lw r5, 101(zero)     # 8  a load past the middle exit
        slti r4, r2, 3       # 9
        bne r4, zero, m2     # 10 last side exit
        addi r6, r6, 3       # 11
        j next               # 12
m0:     addi r7, r7, 1       # 13
        j next               # 14
m1:     addi r8, r8, 1       # 15
        j next               # 16
m2:     addi r9, r9, 1       # 17
next:   sw r2, 200(r1)       # 18
        bne r1, zero, loop   # 19 side exit before the halt
        sw r3, 300(zero)     # 20
        halt                 # 21
        .data 100
        .word 0, 1, 2, 3, 3, 2, 1, 0
"""
TRACE_PROGRAM = assemble(TRACE_SOURCE)


def forbid_stepping(monkeypatch, program):
    """Make every per-step stepper of ``program``'s decoding raise, so a
    run that passes took chains only."""
    def step(state):
        raise AssertionError(f"stepped at pc {state.pc}")

    decoded = decode(program)
    monkeypatch.setattr(decoded, "steppers", (step,) * decoded.size)


#: Recovery runs the original program: the trace from 0 spans 0..7 and
#: the loop body's from 1 spans 1..7, each leaving at the bne while the
#: loop runs; 17 non-halt instructions retire.
RECOVERY_SOURCE = """
main:   li r1, 3            # 0
loop:   addi r1, r1, -1     # 1
        lw r3, 100(r1)      # 2
        add r2, r2, r3      # 3
        sw r2, 200(r1)      # 4
        bne r1, zero, loop  # 5
        sw r2, 300(zero)    # 6
        halt                # 7
        .data 100
        .word 5, 6, 7
"""


def recoveries(tier, anchors, min_instrs=0, source=RECOVERY_SOURCE,
               **config):
    """Every recovery from boot to halt (or the budget's raise): each
    one's record and the architected state it left."""
    program = assemble(source)
    engine = MsspEngine(
        program,
        (assemble("halt"), PcMap(resume=dict.fromkeys(anchors, 0))),
        MsspConfig(exec_tier=tier, static_safety="off", **config),
    )
    arch = ArchState.initial(program)
    trace = []
    while True:
        try:
            record = engine._recover(arch, [], min_instrs=min_instrs)
        except StepLimitExceeded:
            trace.append(("raised", arch.copy()))
            break
        trace.append((record, arch.copy()))
        if record.halted:
            break
    return trace, decode(program).chains


class TestRecoverySupersteps:
    @pytest.mark.parametrize("anchors, min_instrs, config, chained, source", [
        # 3 lies inside the traces from 0, 1 and 2: those run cut before
        # it; the trace from 3 leaves at the bne and stops at no anchor.
        pytest.param({0, 3}, 0, {}, True, RECOVERY_SOURCE,
                     id="anchor-inside-span"),
        # Arrivals at 1 every five instructions; the throttle minimum
        # of 9 falls inside the second loop trace.
        pytest.param({0, 1}, 9, {}, True, RECOVERY_SOURCE,
                     id="throttle-mid-chain"),
        # The per-episode cap of 8 falls inside the second loop trace.
        pytest.param({0, 6}, 0, {"recovery_max_instrs": 8}, True,
                     RECOVERY_SOURCE, id="cap-mid-chain"),
        # The step budget of 8 falls there too: the raise must come
        # after exactly 8 instructions.
        pytest.param({0, 6}, 0, {"max_total_instrs": 8}, True,
                     RECOVERY_SOURCE, id="budget-mid-chain"),
        # A cap or budget of 6 is exactly the length of the trace from
        # 0 cut before the anchor at 6, which must therefore step;
        # later recoveries under the cap run the loop trace.
        pytest.param({0, 6}, 0, {"recovery_max_instrs": 6}, True,
                     RECOVERY_SOURCE, id="cap-at-chain-end"),
        pytest.param({0, 6}, 0, {"max_total_instrs": 6}, False,
                     RECOVERY_SOURCE, id="budget-at-chain-end"),
        # The trace from the loop head (2..12) holds three side exits;
        # anchors inside it cut it, caps and budgets fall inside it.
        pytest.param({0, 8}, 0, {}, True, TRACE_SOURCE,
                     id="anchor-after-middle-exit"),
        pytest.param({0, 5, 11}, 0, {}, True, TRACE_SOURCE,
                     id="anchors-between-exits"),
        pytest.param({0, 20}, 0, {}, True, TRACE_SOURCE,
                     id="anchor-in-halt-trace"),
        pytest.param({0, 8}, 12, {}, True, TRACE_SOURCE,
                     id="throttle-inside-trace"),
        pytest.param({0, 8}, 0, {"recovery_max_instrs": 7}, True,
                     TRACE_SOURCE, id="cap-inside-trace"),
        pytest.param({0, 8}, 0, {"max_total_instrs": 9}, True,
                     TRACE_SOURCE, id="budget-inside-trace"),
    ])
    def test_recoveries_match_oracle(
        self, anchors, min_instrs, config, chained, source
    ):
        (decoded, chains), (oracle, _) = (
            recoveries(tier, anchors, min_instrs, source, **config)
            for tier in TIERS
        )
        assert decoded == oracle
        assert bool(chains) == chained

    def test_budget_raises_at_the_exact_instruction(self):
        trace, _ = recoveries("decoded", {0, 6}, max_total_instrs=8)
        assert trace[-1][0] == "raised"
        reference = ArchState.initial(assemble(RECOVERY_SOURCE))
        steppers = decode(assemble(RECOVERY_SOURCE)).steppers
        for _ in range(8):
            steppers[reference.pc](reference)
        assert trace[-1][1] == reference


class TestTraceBoundaries:
    def test_trace_shape(self):
        decoded = decode(TRACE_PROGRAM)
        assert decoded.chain_spans[0] == 2  # the self-fall-through beq
        assert decoded.chain_spans[2] == 11  # through three branches
        assert decoded.chain_spans[17] == 5 and decoded.chain_halts[17]
        assert decoded.chain_spans[18] == 4 and decoded.chain_halts[18]

    @pytest.mark.parametrize("regs", [{}, {10: 8}],
                             ids=["fall-through", "self-target"])
    def test_whole_task_takes_every_exit(self, regs):
        decoded, oracle = (
            run_slave(tier, 0, None, regs, 1_000, program=TRACE_PROGRAM)
            for tier in TIERS
        )
        assert task_facts(decoded) == task_facts(oracle)
        assert decoded.halted

    @pytest.mark.parametrize("mode, exit_pc", [
        (0, 13), (1, 15), (2, 17), (3, 18),
    ], ids=["first-branch", "middle-branch", "last-branch", "no-exit"])
    def test_side_exit_from_the_loop_trace(self, mode, exit_pc):
        # One iteration from the loop head, with r1 picking the table
        # cell that holds ``mode``; the task ends at the exit's target.
        r1 = [7, 6, 5, 4][mode] + 1
        decoded, oracle = (
            run_slave(tier, 2, exit_pc, {1: r1}, 1_000,
                      program=TRACE_PROGRAM)
            for tier in TIERS
        )
        assert task_facts(decoded) == task_facts(oracle)
        assert decoded.end_state_pc == exit_pc

    @pytest.mark.parametrize("end_pc, arrivals", [
        (5, 1), (8, 1), (8, 2), (11, 2), (20, 1),
    ])
    def test_end_pc_inside_a_trace_runs_the_cut_trace(
        self, monkeypatch, end_pc, arrivals
    ):
        oracle = run_slave("oracle", 0, end_pc, {}, 1_000,
                           end_arrivals=arrivals, program=TRACE_PROGRAM)
        forbid_stepping(monkeypatch, TRACE_PROGRAM)
        decoded = run_slave("decoded", 0, end_pc, {}, 1_000,
                            end_arrivals=arrivals, program=TRACE_PROGRAM)
        assert task_facts(decoded) == task_facts(oracle)
        assert decoded.end_state_pc == end_pc
        chains = decode(TRACE_PROGRAM).recording_chains
        assert any(
            isinstance(key, tuple) and key[0] + key[1] == end_pc
            for key in chains
        )

    @pytest.mark.parametrize("max_instrs", range(1, 40))
    def test_budget_inside_a_trace(self, max_instrs):
        decoded, oracle = (
            run_slave(tier, 0, None, {}, max_instrs, program=TRACE_PROGRAM)
            for tier in TIERS
        )
        assert task_facts(decoded) == task_facts(oracle)

    #: Arrival pcs at the loop head, at the middle exit's fall-through,
    #: past the last exit, and at the halt trace's side exit.  A fork
    #: after the loop, anchored at one of them, cuts the trace from 17
    #: and reports how many times the loop passed it.
    MASTER_ARRIVALS = {2: 50, 8: 60, 11: 70, 19: 80}

    def master_events(self, tier, budget, anchor=60):
        program = assemble(TRACE_SOURCE.replace(
            "        sw r3, 300(zero)",
            f"        fork {anchor}\n sw r3, 300(zero)",
        ))
        master = Master(
            program, MsspConfig(max_master_instrs_per_task=budget),
            arrival_pcs=self.MASTER_ARRIVALS, tier=tier,
        )
        master.restart(ArchState(mem=program.memory), 0)
        trace = []
        while True:
            event = master.run_until_fork()
            trace.append((event, dict(master._arrivals), master.total_instrs))
            if event.kind is not MasterEventKind.FORK:
                return trace

    @pytest.mark.parametrize("anchor, arrivals", [
        (50, 8), (60, 4), (70, 2), (80, 8),
    ])
    def test_master_arrivals_past_side_exits(self, anchor, arrivals):
        decoded, oracle = (
            self.master_events(tier, 1_000, anchor) for tier in TIERS
        )
        assert decoded == oracle
        kinds = [event.kind for event, _, _ in decoded]
        assert kinds == [MasterEventKind.FORK, MasterEventKind.HALT]
        fork = decoded[0][0]
        # Every iteration loads the mode; those past the middle exit
        # (modes 2 and 3) load once more.
        assert fork.arrivals == arrivals and fork.loads == 8 + 4

    @pytest.mark.parametrize("budget", range(1, 30))
    def test_master_timeout_inside_a_trace(self, budget):
        decoded, oracle = (
            self.master_events(tier, budget) for tier in TIERS
        )
        assert decoded == oracle

    def test_anchor_inside_a_trace_runs_the_cut_trace(self, monkeypatch):
        (oracle, _) = recoveries("oracle", {0, 8}, source=TRACE_SOURCE)
        program = assemble(TRACE_SOURCE)
        engine = MsspEngine(
            program,
            (assemble("halt"), PcMap(resume=dict.fromkeys({0, 8}, 0))),
            MsspConfig(static_safety="off"),
        )
        forbid_stepping(monkeypatch, program)
        arch = ArchState.initial(program)
        trace = []
        while True:
            record = engine._recover(arch, [])
            trace.append((record, arch.copy()))
            if record.halted:
                break
        assert trace == oracle
        # The trace from 2 runs cut before the anchor at 8.
        assert (2, 6) in decode(program).chains
