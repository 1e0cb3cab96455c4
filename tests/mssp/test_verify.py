"""Unit tests for the verify/commit unit — the correctness keystone."""

from repro.isa.registers import NUM_REGS
from repro.machine.state import ArchState
from repro.mssp.task import Checkpoint, SquashReason, Task, TaskStatus
from repro.mssp.verify import (
    CellVersions,
    commit_task,
    squash_task,
    verify_task,
)


def completed_task(**overrides):
    task = Task(
        tid=0, start_pc=5,
        checkpoint=Checkpoint(regs=tuple([0] * NUM_REGS)),
        end_pc=9,
    )
    task.status = TaskStatus.COMPLETED
    task.end_state_pc = 9
    for name, value in overrides.items():
        setattr(task, name, value)
    return task


class TestVerify:
    def test_clean_task_passes(self):
        arch = ArchState(pc=5, mem={100: 7})
        arch.write_reg(1, 3)
        task = completed_task(
            live_in_regs={1: 3}, live_in_mem={100: 7}, n_instrs=4
        )
        outcome = verify_task(task, arch)
        assert outcome.ok
        assert outcome.reason is SquashReason.NONE
        assert outcome.checked == 3  # pc + 1 reg + 1 mem
        assert outcome.mismatched == 0

    def test_wrong_start_pc(self):
        arch = ArchState(pc=6)
        outcome = verify_task(completed_task(), arch)
        assert not outcome.ok
        assert outcome.reason is SquashReason.WRONG_START_PC

    def test_register_mismatch(self):
        arch = ArchState(pc=5)
        arch.write_reg(1, 99)
        outcome = verify_task(completed_task(live_in_regs={1: 3}), arch)
        assert not outcome.ok
        assert outcome.reason is SquashReason.REGISTER_LIVE_IN
        assert "r1" in outcome.detail

    def test_memory_mismatch(self):
        arch = ArchState(pc=5)
        outcome = verify_task(completed_task(live_in_mem={100: 7}), arch)
        assert not outcome.ok
        assert outcome.reason is SquashReason.MEMORY_LIVE_IN
        assert "mem[100]" in outcome.detail

    def test_all_mismatches_counted(self):
        arch = ArchState(pc=6)  # wrong pc too
        outcome = verify_task(
            completed_task(live_in_regs={1: 3, 2: 4}, live_in_mem={100: 7}),
            arch,
        )
        assert outcome.mismatched == 4
        assert outcome.checked == 4
        # First failure kind wins the reason field.
        assert outcome.reason is SquashReason.WRONG_START_PC

    def test_overrun_fails_before_any_value_check(self):
        arch = ArchState(pc=5)
        outcome = verify_task(completed_task(overrun=True), arch)
        assert not outcome.ok
        assert outcome.reason is SquashReason.OVERRUN

    def test_fault_fails(self):
        arch = ArchState(pc=5)
        outcome = verify_task(completed_task(faulted=True), arch)
        assert outcome.reason is SquashReason.FAULT

    def test_zero_live_in_value_matches_unmapped_memory(self):
        """Sparse memory: a recorded 0 live-in equals an absent cell."""
        arch = ArchState(pc=5)
        outcome = verify_task(completed_task(live_in_mem={4242: 0}), arch)
        assert outcome.ok


class TestCellVersions:
    def test_stamp_and_changed_since(self):
        versions = CellVersions()
        base = versions.seq
        assert not versions.changed_since(100, base)
        versions.stamp_commit([100, 200])
        assert versions.changed_since(100, base)
        assert versions.changed_since(200, base)
        assert not versions.changed_since(300, base)
        # A base taken after the commit sees nothing as changed.
        later = versions.seq
        assert not versions.changed_since(100, later)

    def test_invalidate_all_floors_every_cell(self):
        """Recovery writes memory without per-cell stamps; afterwards
        *every* address — stamped or never seen — must read changed
        relative to any pre-recovery base."""
        versions = CellVersions()
        versions.stamp_commit([100])
        base = versions.seq
        versions.invalidate_all()
        assert versions.changed_since(100, base)
        assert versions.changed_since(424242, base)  # never stamped
        fresh = versions.seq
        assert not versions.changed_since(100, fresh)
        assert not versions.changed_since(424242, fresh)

    def test_verify_outcome_identical_with_and_without_versions(self):
        """The fast path may only skip *comparisons*, never change the
        outcome or the checked count."""
        arch = ArchState(pc=5, mem={100: 7})
        versions = CellVersions()
        base = versions.seq
        plain = verify_task(
            completed_task(live_in_mem={100: 7, 4242: 0}), arch
        )
        fast = verify_task(
            completed_task(
                live_in_mem={100: 7, 4242: 0}, base_version=base
            ),
            arch, versions=versions,
        )
        assert (fast.ok, fast.reason, fast.checked, fast.mismatched) == (
            plain.ok, plain.reason, plain.checked, plain.mismatched
        )
        assert versions.skipped == 2  # both cells proved unchanged

    def test_changed_cells_are_still_compared(self):
        arch = ArchState(pc=5)  # mem[100] reads 0, not the recorded 7
        versions = CellVersions()
        base = versions.seq
        versions.stamp_commit([100])
        outcome = verify_task(
            completed_task(live_in_mem={100: 7}, base_version=base),
            arch, versions=versions,
        )
        assert not outcome.ok
        assert outcome.reason is SquashReason.MEMORY_LIVE_IN
        assert versions.skipped == 0

    def test_checkpoint_overlay_cells_never_skipped(self):
        """A cell the master's overlay predicted must always be compared:
        the architected value being unchanged says nothing about the
        overlay value the slave actually read."""
        arch = ArchState(pc=5)
        versions = CellVersions()
        task = completed_task(
            checkpoint=Checkpoint(
                regs=tuple([0] * NUM_REGS), mem={100: 7}
            ),
            live_in_mem={100: 7},  # read through the overlay, arch has 0
            base_version=versions.seq,
        )
        outcome = verify_task(task, arch, versions=versions)
        assert not outcome.ok
        assert outcome.reason is SquashReason.MEMORY_LIVE_IN
        assert versions.skipped == 0

    def test_no_base_version_disables_the_fast_path(self):
        arch = ArchState(pc=5, mem={100: 7})
        versions = CellVersions()
        outcome = verify_task(
            completed_task(live_in_mem={100: 7}), arch, versions=versions
        )
        assert outcome.ok
        assert versions.skipped == 0


class TestMemoryLiveIns:
    """Memory live-ins over a larger image: a contiguous run of cells
    plus scattered ones."""

    MEM = {a: a * 3 + 1 for a in range(100, 140)}  # one contiguous run
    MEM.update({5000: 9, 5002: 11, -64: 4})  # plus scattered cells

    def outcome(self, live):
        arch = ArchState(pc=5, mem=self.MEM)
        return verify_task(completed_task(live_in_mem=live), arch)

    def test_clean_task_checks_every_cell(self):
        outcome = self.outcome(dict(self.MEM))
        assert outcome.ok
        assert outcome.checked == 1 + len(self.MEM)

    def test_first_mismatch_attribution(self):
        live = dict(self.MEM)
        live[120] += 1  # poison one cell mid-run
        live[5002] += 1
        outcome = self.outcome(live)
        assert not outcome.ok
        assert outcome.reason is SquashReason.MEMORY_LIVE_IN
        assert outcome.mismatched == 2
        assert "mem[120]" in outcome.detail  # dict-order first failure

    def test_zero_cells_match_absent_memory(self):
        assert self.outcome({4242: 0, 4243: 0, 4244: 0}).ok


class TestCommitAndSquash:
    def test_commit_superimposes_and_jumps(self):
        arch = ArchState(pc=5, mem={100: 1, 200: 2})
        arch.write_reg(7, 7)
        task = completed_task(
            live_out_regs={1: 10}, live_out_mem={100: 11}, n_instrs=4
        )
        commit_task(task, arch)
        assert arch.pc == 9
        assert arch.read_reg(1) == 10
        assert arch.read_reg(7) == 7      # untouched cells survive
        assert arch.load(100) == 11
        assert arch.load(200) == 2
        assert task.status is TaskStatus.COMMITTED

    def test_commit_of_halted_task_lands_on_halt_pc(self):
        arch = ArchState(pc=5)
        task = completed_task(halted=True, end_state_pc=42, end_pc=None)
        commit_task(task, arch)
        assert arch.pc == 42

    def test_squash_leaves_arch_untouched(self):
        arch = ArchState(pc=5, mem={100: 1})
        snapshot = arch.copy()
        task = completed_task(live_out_regs={1: 10}, live_out_mem={100: 11})
        squash_task(task, SquashReason.REGISTER_LIVE_IN)
        assert arch == snapshot
        assert task.status is TaskStatus.SQUASHED
        assert task.squash_reason is SquashReason.REGISTER_LIVE_IN
