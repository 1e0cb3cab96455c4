"""The timing model against recorded outputs of the replay it replaced.

Until the cluster knobs (``link_channels``, ``slave_speeds``,
``failures``) moved onto :class:`TimingConfig`, a discrete-event replay
timed traces under them.  Its breakdowns were recorded on the records
below before it was deleted, and the one-pass recurrence must reproduce
them (rel 1e-9).  The knob grid leaves out one recorded configuration:
unequal slave speeds across a master failure, where the two models
break a slot tie differently (see :class:`TestTieRule`).
"""

import pytest

from repro.config import (
    PAPER_TASK_SIZE,
    DistillConfig,
    MsspConfig,
    SlaveFailure,
    TimingConfig,
)
from repro.distill import Distiller
from repro.isa.asm import assemble
from repro.mssp import MsspEngine
from repro.mssp.trace import (
    MasterFailureRecord,
    RecoveryRecord,
    TaskAttemptRecord,
)
from repro.profiling import profile_program
from repro.timing.simulator import MsspTimingSimulator, records_from_events

FIELDS = (
    "total_cycles", "master_stall_cycles", "squash_overhead_cycles",
    "recovery_cycles", "wasted_slave_cycles", "master_bound_tasks",
    "slave_bound_tasks", "commit_bound_tasks", "committed_tasks",
    "squashed_tasks",
)

SOURCE = """
main:   li r1, 120
loop:   addi r1, r1, -1
        add r2, r2, r1
        lw r3, 500(zero)
        add r2, r2, r3
        bne r1, zero, loop
        sw r2, 0x900(zero)
        halt
        .data 500
        .word 3
"""


def mixed_records():
    """Four episodes of varied tasks, each ended by a squash or a master
    failure, then a recovery."""
    state = 14

    def draw(lo, hi):
        nonlocal state
        state = (state * 1103515245 + 12345) % 2 ** 31
        return lo + state % (hi - lo)

    records = []
    tid = 0
    for episode in range(4):
        for _ in range(9):
            records.append(TaskAttemptRecord(
                tid=tid, start_pc=0, end_pc=10,
                n_instrs=draw(20, 400), master_instrs=draw(5, 120),
                committed=True, checkpoint_words=draw(0, 12),
                n_loads=draw(0, 30), master_loads=draw(0, 10),
            ))
            tid += 1
        if episode % 2 == 0:
            records.append(TaskAttemptRecord(
                tid=tid, start_pc=0, end_pc=10,
                n_instrs=draw(20, 400), master_instrs=draw(5, 120),
                committed=False, checkpoint_words=draw(0, 12),
                n_loads=draw(0, 30),
            ))
            tid += 1
        else:
            records.append(MasterFailureRecord(
                kind="overrun", master_instrs=draw(5, 80),
            ))
        records.append(RecoveryRecord(
            n_instrs=draw(10, 200), halted=False, resumed_at=0,
            n_loads=draw(0, 20),
        ))
    return records


def assert_breakdown(breakdown, expected):
    got = tuple(getattr(breakdown, name) for name in FIELDS)
    assert got == pytest.approx(expected, rel=1e-9)


def time_records(records, **knobs):
    return MsspTimingSimulator(TimingConfig(**knobs)).simulate_records(
        records
    )


#: knobs -> recorded breakdown, in FIELDS order.
MIXED = {
    "n1": (
        dict(n_slaves=1),
        (10945.5, 8155.0, 360.0, 506.0, 471.0, 0, 38, 0, 36, 2),
    ),
    "n3": (
        dict(n_slaves=3),
        (4792.5, 1881.0, 360.0, 506.0, 471.0, 0, 22, 16, 36, 2),
    ),
    "n8": (
        dict(n_slaves=8),
        (3317.0, 43.5, 360.0, 506.0, 471.0, 0, 14, 24, 36, 2),
    ),
    "n3_inflight2": (
        dict(n_slaves=3, max_inflight=2),
        (7053.0, 4005.5, 360.0, 506.0, 471.0, 0, 25, 13, 36, 2),
    ),
    "n4_link1": (
        dict(n_slaves=4, checkpoint_word_latency=5.0, link_channels=1),
        (4858.0, 1631.0, 360.0, 506.0, 471.0, 0, 24, 14, 36, 2),
    ),
    "n4_link2_slow": (
        dict(n_slaves=4, checkpoint_word_latency=5.0, spawn_latency=80.0,
             link_channels=2),
        (5195.0, 1781.5, 360.0, 506.0, 471.0, 0, 21, 17, 36, 2),
    ),
    "n8_link3_slow": (
        dict(n_slaves=8, checkpoint_word_latency=5.0, spawn_latency=80.0,
             link_channels=3),
        (3904.5, 302.0, 360.0, 506.0, 471.0, 0, 16, 22, 36, 2),
    ),
    "n4_link1_inflight1": (
        dict(n_slaves=4, max_inflight=1, spawn_latency=80.0,
             link_channels=1),
        (13135.5, 10195.0, 360.0, 506.0, 471.0, 0, 38, 0, 36, 2),
    ),
    "n4_one_slow_slot": (
        dict(n_slaves=4, slave_speeds=(0.7,)),
        (4622.214285714286, 1182.0, 360.0, 506.0, 471.0, 0, 17, 21, 36, 2),
    ),
    "n6_alternating_speeds": (
        dict(n_slaves=6, slave_speeds=(1.0, 0.5) * 3),
        (4729.0, 695.5, 360.0, 506.0, 587.0, 0, 13, 25, 36, 2),
    ),
    "n3_one_outage": (
        dict(n_slaves=3, failures=(SlaveFailure(1, 500.0, 800.0),)),
        (5551.0, 1881.0, 360.0, 506.0, 471.0, 0, 21, 17, 36, 2),
    ),
    "n2_three_outages": (
        dict(n_slaves=2, failures=(
            SlaveFailure(0, 100.0, 300.0),
            SlaveFailure(1, 2000.0, 150.0),
            SlaveFailure(0, 1200.0, 900.0),
        )),
        (6820.0, 3828.0, 360.0, 506.0, 471.0, 0, 23, 15, 36, 2),
    ),
    "n4_everything": (
        dict(n_slaves=4, max_inflight=3, checkpoint_word_latency=2.0,
             load_penalty=1.5, spawn_latency=50.0, link_channels=2,
             slave_speeds=(1.0, 0.6, 1.4, 0.9),
             failures=(SlaveFailure(2, 700.0, 400.0),
                       SlaveFailure(0, 3000.0, 250.0))),
        (7757.142857142856, 4218.365079365079, 360.0, 527.0,
         638.8333333333333, 0, 22, 16, 36, 2),
    ),
}


@pytest.fixture(scope="module")
def engine_records():
    program = assemble(SOURCE)
    distillation = Distiller(DistillConfig(target_task_size=25)).distill(
        program, profile_program(program)
    )
    return MsspEngine(program, distillation).run().records


class TestRecordedParity:
    @pytest.mark.parametrize("name", sorted(MIXED))
    def test_mixed_stream(self, name):
        knobs, expected = MIXED[name]
        assert_breakdown(time_records(mixed_records(), **knobs), expected)

    @pytest.mark.parametrize(
        "knobs, expected",
        [
            (dict(n_slaves=1), (1362.0, 868.5, 0.0, 0.0, 0.0, 0, 25, 0, 25, 0)),
            (dict(n_slaves=2), (702.0, 208.5, 0.0, 0.0, 0.0, 0, 25, 0, 25, 0)),
            (dict(n_slaves=4), (493.5, 0.0, 0.0, 0.0, 0.0, 0, 25, 0, 25, 0)),
            (dict(n_slaves=8), (493.5, 0.0, 0.0, 0.0, 0.0, 0, 25, 0, 25, 0)),
            (dict(n_slaves=4, max_inflight=2),
             (822.0, 328.5, 0.0, 0.0, 0.0, 0, 25, 0, 25, 0)),
        ],
    )
    def test_engine_trace(self, engine_records, knobs, expected):
        assert_breakdown(time_records(engine_records, **knobs), expected)


@pytest.fixture(scope="module")
def compress_records():
    """The trace ``repro sim compress`` times: an eager run at the
    default size, distilled at the paper's task size, captured off the
    event bus."""
    from repro.experiments.bench import capture_trace

    _, _, events = capture_trace(
        "compress", config=MsspConfig(runtime="eager"),
        distill_config=DistillConfig(target_task_size=PAPER_TASK_SIZE),
    )
    return records_from_events(events)


class TestE20:
    """EXPERIMENTS.md E20's sweep and scenarios on compress."""

    @pytest.mark.parametrize(
        "n_slaves, cycles, stall",
        [(2, 45032.0, 27452.0), (8, 17580.0, 0.0), (16, 17580.0, 0.0),
         (64, 17580.0, 0.0)],
    )
    def test_sweep(self, compress_records, n_slaves, cycles, stall):
        timed = time_records(compress_records, n_slaves=n_slaves)
        assert timed.total_cycles == pytest.approx(cycles, rel=1e-9)
        assert timed.master_stall_cycles == pytest.approx(stall, abs=1e-9)

    @pytest.mark.parametrize(
        "knobs, expected",
        [
            (dict(spawn_latency=80.0, link_channels=1),
             (40225.0, 21545.0, 0.0, 0.0, 0.0, 0, 501, 0, 501, 0)),
            (dict(slave_speeds=(1.0, 0.5) * 8),
             (17691.5, 0.0, 0.0, 0.0, 0.0, 0, 216, 285, 501, 0)),
            (dict(failures=(SlaveFailure(0, 17580 * 0.25, 17580 * 0.25),)),
             (17580.0, 0.0, 0.0, 0.0, 0.0, 0, 327, 174, 501, 0)),
        ],
        ids=["contended-link", "heterogeneous-slaves", "slave-failure"],
    )
    def test_scenarios(self, compress_records, knobs, expected):
        assert_breakdown(
            time_records(compress_records, n_slaves=16, **knobs), expected
        )


class TestTieRule:
    """Two slots free at the same instant: the lower index gets the
    next task, whatever the slots' speeds."""

    @pytest.mark.parametrize(
        "speeds, n_first, n_second, total",
        [((0.5, 1.0), 60, 110, 320.0), ((1.0, 0.5), 120, 55, 220.0)],
    )
    def test_lower_index_wins(self, speeds, n_first, n_second, total):
        records = [
            TaskAttemptRecord(
                tid=tid, start_pc=0, end_pc=1, n_instrs=n,
                master_instrs=20, committed=True,
            )
            for tid, n in enumerate((n_first, n_second, 100))
        ]
        timed = MsspTimingSimulator(TimingConfig(
            n_slaves=2, spawn_latency=0.0, commit_latency=0.0,
            slave_speeds=speeds,
        )).simulate_records(records, schedule=True)
        first, second, third = timed.schedule
        # Both slots free at 120 while the master waits for one.
        assert first.done == second.done == 120.0
        assert third.spawn == 120.0
        assert third.slot == 0
        assert timed.total_cycles == total
