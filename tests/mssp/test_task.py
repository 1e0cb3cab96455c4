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


class TestPositionalConstruction:
    """The judge builds each TaskAttemptRecord positionally; every field
    must land where a keyword construction from the same task puts it."""

    class StubBank:
        """A predictor bank that scores every observed task 2 hits and
        5 misses, so the two counts cannot trade places unseen."""

        def observe_task(self, task, arch):
            return 2, 5

    @staticmethod
    def judged(**fields):
        """Judge one executed task; returns the task, the record the
        judge announced and the one built by keyword from the task."""
        import json

        from repro.analysis.specsafe import SafetyReport
        from repro.distill.pc_map import PcMap
        from repro.isa.asm import assemble
        from repro.mssp.engine import MsspEngine
        from repro.mssp.master import MasterEvent, MasterEventKind
        from repro.mssp.runtime.events import EventLog
        from repro.mssp.trace import TaskAttemptRecord
        from repro.mssp.verify import verify_task
        from repro.timing.tracefile import event_from_dict, event_to_dict

        program = assemble("main: li r1, 1\n halt\n")
        engine = MsspEngine(
            program, (assemble("halt"), PcMap(resume={0: 0, 4: 0})),
            safety_report=SafetyReport(),
        )
        engine.predictor = TestPositionalConstruction.StubBank()
        log = EventLog()
        engine.events.subscribe(log)
        arch = ArchState(regs=[0, 0, 20, 30] + [0] * 28, mem={100: 7}, pc=4)
        values = dict(
            tid=11, start_pc=4, end_pc=9, end_arrivals=2,
            checkpoint=Checkpoint(tuple(range(32)), {100: 7, 104: 1}),
            live_in_regs={2: 20, 3: 30}, live_in_mem={100: 7},
            live_out_regs={5: 55}, live_out_mem={108: 8},
            n_instrs=23, n_loads=6, end_state_pc=9,
            proven_regs=frozenset({2}), status=TaskStatus.COMPLETED,
        )
        values.update(fields)
        task = Task(**values)
        event = MasterEvent(MasterEventKind.FORK, 17, 3)
        outcome = verify_task(task, arch.copy(), safety_mode="skip")
        hits, misses = (0, 0) if task.exact else (2, 5)
        expected = TaskAttemptRecord(
            tid=task.tid, start_pc=task.start_pc, end_pc=task.end_pc,
            n_instrs=task.n_instrs, master_instrs=event.instrs,
            committed=outcome.ok, n_loads=task.n_loads,
            master_loads=event.loads,
            squash_reason=outcome.reason.value, origin_pc=outcome.origin_pc,
            live_ins_checked=outcome.checked,
            live_ins_mismatched=outcome.mismatched, exact=task.exact,
            final=task.final, halted=task.halted,
            checkpoint_words=len(task.checkpoint),
            static_skips=outcome.static_skips, predictor_hits=hits,
            predictor_misses=misses,
        )
        engine._judge_task(task, event, arch)
        (announced,) = log.events
        # The trace file carries the record across a JSON round trip.
        rebuilt = event_from_dict(json.loads(json.dumps(
            event_to_dict(announced)
        )))
        assert rebuilt.record == announced.record
        assert type(rebuilt.record) is TaskAttemptRecord
        return task, announced.record, expected

    def test_committed(self):
        task, record, expected = self.judged()
        assert record == expected
        assert record.committed and record.static_skips == 1
        assert (record.predictor_hits, record.predictor_misses) == (2, 5)

    def test_squashed_on_a_register(self):
        task, record, expected = self.judged(live_in_regs={2: 20, 3: 31})
        assert record == expected
        assert record.squash_reason == SquashReason.REGISTER_LIVE_IN.value
        assert record.origin_pc == 4 and record.live_ins_mismatched == 1

    def test_squashed_on_memory(self):
        task, record, expected = self.judged(live_in_mem={100: 8, 104: 0})
        assert record == expected
        assert record.squash_reason == SquashReason.MEMORY_LIVE_IN.value
        assert record.live_ins_checked == 5

    def test_exact(self):
        task, record, expected = self.judged(exact=True)
        assert record == expected
        assert record.exact and record.predictor_hits == 0

    def test_final(self):
        task, record, expected = self.judged(end_pc=None, final=True)
        assert record == expected
        assert record.final and record.end_pc is None

    def test_halted(self):
        task, record, expected = self.judged(
            end_pc=None, final=True, halted=True, end_state_pc=5,
        )
        assert record == expected
        assert record.halted and record.committed

    def test_unfrozen_types_round_trip(self):
        """Every type built positionally on the hot path pickles and
        compares equal, and none carries an instance dict."""
        from repro.mssp.master import MasterEvent, MasterEventKind
        from repro.mssp.verify import VerifyOutcome

        checkpoint = Checkpoint((1,) * 32, {4: 5})
        for value in (
            checkpoint,
            MasterEvent(MasterEventKind.FORK, 9, 2, 40, checkpoint, 3, {4: 5}),
            VerifyOutcome(False, SquashReason.OVERRUN, 3, 0, "late", 7),
            self.judged()[1],
        ):
            assert not hasattr(value, "__dict__")
            assert pickle.loads(pickle.dumps(value)) == value
