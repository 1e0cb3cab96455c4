"""Checkpoint snapshotting: isolation from later architected mutation."""

import pickle

from repro.machine.state import ArchState
from repro.mssp.task import Checkpoint, SquashReason, Task, TaskStatus


class TestCheckpointSnapshot:
    def test_exact_checkpoint_is_independent_of_state(self):
        """A checkpoint must freeze the register file at capture time.

        The engine opens the restart task's checkpoint from live
        architected state and then keeps executing on that state; a
        checkpoint aliasing the register list would silently corrupt the
        task's live-in prediction.
        """
        arch = ArchState(pc=4)
        arch.write_reg(3, 77)
        checkpoint = Checkpoint.exact(arch)
        arch.write_reg(3, -1)
        arch.store(100, 5)
        assert checkpoint.regs[3] == 77
        assert checkpoint.mem == {}

    def test_checkpoint_mem_not_aliased(self):
        shipped = {10: 1}
        checkpoint = Checkpoint(regs=(0,) * 32, mem=shipped)
        shipped[10] = 2
        shipped[11] = 3
        # The master copies its dirty map before constructing the
        # checkpoint; this documents that Checkpoint itself stores what
        # it was given (the copy happens at the fork site).
        assert checkpoint.mem is shipped

    def test_len_counts_regs_plus_mem(self):
        checkpoint = Checkpoint(regs=(0,) * 32, mem={1: 2, 3: 4})
        assert len(checkpoint) == 34


class TestPickleRoundTrip:
    """Tasks cross process boundaries in the parallel runtime; every
    piece of the speculation state must survive pickling unchanged."""

    def test_checkpoint_round_trips(self):
        checkpoint = Checkpoint(regs=tuple(range(32)), mem={8: -3, 9: 0})
        clone = pickle.loads(pickle.dumps(checkpoint))
        assert clone == checkpoint
        assert clone.regs == checkpoint.regs
        assert clone.mem == checkpoint.mem

    def test_trace_records_are_slotted_and_round_trip(self):
        from repro.mssp.trace import (
            MasterFailureRecord,
            RecoveryRecord,
            TaskAttemptRecord,
        )

        for record in (
            TaskAttemptRecord(
                tid=3, start_pc=0, end_pc=8, n_instrs=40, master_instrs=10,
                committed=False, squash_reason="live_in", origin_pc=8,
            ),
            RecoveryRecord(n_instrs=12, halted=True, resumed_at=None),
            MasterFailureRecord(kind="trap", master_instrs=5, exact=True),
        ):
            assert not hasattr(record, "__dict__")
            assert pickle.loads(pickle.dumps(record)) == record

    def test_squash_reason_round_trips_to_same_member(self):
        for reason in SquashReason:
            assert pickle.loads(pickle.dumps(reason)) is reason

    def test_task_round_trips_with_execution_results(self):
        task = Task(
            tid=7, start_pc=12,
            checkpoint=Checkpoint(regs=(1,) * 32, mem={100: 5}),
            end_pc=40, end_arrivals=3, final=True,
            status=TaskStatus.COMPLETED,
        )
        task.live_in_regs = {2: 9}
        task.live_in_mem = {101: 0}
        task.live_out_regs = {3: -1}
        task.live_out_mem = {102: 7}
        task.n_instrs = 55
        task.n_loads = 4
        task.end_state_pc = 40
        task.halted = True
        task.squash_reason = SquashReason.MEMORY_LIVE_IN
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert clone.status is TaskStatus.COMPLETED
        assert clone.squash_reason is SquashReason.MEMORY_LIVE_IN
        assert clone.checkpoint.mem == {100: 5}
