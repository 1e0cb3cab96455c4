"""Unit tests for ArchState."""

import pytest

from repro.isa.asm import assemble
from repro.isa.registers import NUM_REGS, ZERO
from repro.machine.state import ArchState, wrap64


class TestWrap64:
    def test_identity_in_range(self):
        assert wrap64(0) == 0
        assert wrap64(2 ** 63 - 1) == 2 ** 63 - 1
        assert wrap64(-(2 ** 63)) == -(2 ** 63)

    def test_wraps_positive_overflow(self):
        assert wrap64(2 ** 63) == -(2 ** 63)
        assert wrap64(2 ** 64) == 0
        assert wrap64(2 ** 64 + 5) == 5

    def test_wraps_negative_overflow(self):
        assert wrap64(-(2 ** 63) - 1) == 2 ** 63 - 1


class TestRegisters:
    def test_r0_hardwired_zero(self):
        state = ArchState()
        state.write_reg(ZERO, 99)
        assert state.read_reg(ZERO) == 0

    def test_writes_wrap(self):
        state = ArchState()
        state.write_reg(1, 2 ** 64 + 7)
        assert state.read_reg(1) == 7

    def test_reg_count_enforced(self):
        with pytest.raises(ValueError):
            ArchState(regs=[0] * (NUM_REGS - 1))

    def test_nonzero_r0_rejected(self):
        with pytest.raises(ValueError, match="r0"):
            ArchState(regs=[5] + [0] * (NUM_REGS - 1))
        assert ArchState(regs=[1 << 64] + [0] * (NUM_REGS - 1)).regs[0] == 0


class TestMemory:
    def test_unmapped_reads_zero(self):
        assert ArchState().load(12345) == 0

    def test_store_load(self):
        state = ArchState()
        state.store(10, -5)
        assert state.load(10) == -5

    def test_zero_store_erases(self):
        state = ArchState(mem={10: 7})
        state.store(10, 0)
        assert 10 not in state.mem
        assert state.load(10) == 0

    def test_store_wraps(self):
        state = ArchState()
        state.store(1, 2 ** 63)
        assert state.load(1) == -(2 ** 63)


class TestCopyEquality:
    def test_copy_is_independent(self):
        state = ArchState(mem={1: 2}, pc=3)
        state.write_reg(5, 9)
        clone = state.copy()
        clone.write_reg(5, 0)
        clone.store(1, 0)
        clone.pc = 0
        assert state.read_reg(5) == 9
        assert state.load(1) == 2
        assert state.pc == 3

    def test_mutating_original_never_leaks_into_copy(self):
        """Mutation isolation in the other direction, regs and mem.

        ``copy()`` bypasses ``__init__`` with ``list.copy``/``dict.copy``
        (checkpoint hot path); this pins that the containers really are
        duplicated, not aliased.
        """
        state = ArchState(mem={7: 1}, pc=5)
        state.write_reg(2, 11)
        clone = state.copy()
        assert clone.regs is not state.regs
        assert clone.mem is not state.mem
        state.write_reg(2, 99)
        state.store(7, 42)
        state.store(8, 8)
        state.pc = 0
        assert clone.read_reg(2) == 11
        assert clone.load(7) == 1
        assert clone.load(8) == 0
        assert clone.pc == 5

    def test_copy_preserves_semantics(self):
        """The fast copy behaves exactly like a freshly built state."""
        state = ArchState(mem={1: 2}, pc=3)
        state.write_reg(4, -1)
        clone = state.copy()
        assert clone == state
        clone.write_reg(0, 5)  # ZERO stays hardwired through the copy
        assert clone.read_reg(0) == 0
        clone.store(1, 0)  # sparse canonical form survives the copy
        assert 1 not in clone.mem

    def test_equality_semantics(self):
        a = ArchState(mem={1: 2}, pc=0)
        b = ArchState(mem={1: 2}, pc=0)
        assert a == b
        b.store(1, 3)
        assert a != b

    def test_sparse_zero_equivalence(self):
        """A stored-then-cleared cell compares equal to a never-stored one."""
        a = ArchState()
        a.store(5, 1)
        a.store(5, 0)
        assert a == ArchState()

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(ArchState())

    def test_diff_reports_all_kinds(self):
        a = ArchState(pc=1)
        b = ArchState(pc=2)
        a.write_reg(3, 7)
        b.store(9, 1)
        issues = a.diff(b)
        assert any("pc" in i for i in issues)
        assert any("r3" in i for i in issues)
        assert any("mem[9]" in i for i in issues)

    def test_diff_empty_when_equal(self):
        assert ArchState().diff(ArchState()) == []


class TestInitialAndDelta:
    def test_initial_from_program(self):
        program = assemble("main: halt\n.data 4\n.word 9")
        state = ArchState.initial(program)
        assert state.pc == program.entry
        assert state.load(4) == 9
        assert all(r == 0 for r in state.regs)

    def test_initial_drops_zero_cells_of_the_boot_image(self):
        program = assemble("main: halt").with_memory({4: 9, 5: 0, 6: 7, 7: 0})
        assert program.memory == {4: 9, 5: 0, 6: 7, 7: 0}
        for _ in range(2):  # built once, then copied
            state = ArchState.initial(program)
            assert state.mem == {4: 9, 6: 7}
            assert state == ArchState(mem={4: 9, 6: 7}, pc=program.entry)

    def test_mutating_the_initial_state_leaves_the_program_alone(self):
        program = assemble("main: halt").with_memory({4: 9, 5: 0, 6: 7})
        image = dict(program.memory)
        state = ArchState.initial(program)
        state.store(4, 0)
        state.store(8, 3)
        state.write_reg(1, 5)
        assert program.memory == image
        assert ArchState.initial(program) == ArchState(
            mem={4: 9, 6: 7}, pc=program.entry
        )

    def test_apply_delta(self):
        state = ArchState()
        state.apply_delta({1: 5, ZERO: 9}, {100: 6}, pc=7)
        assert state.read_reg(1) == 5
        assert state.read_reg(ZERO) == 0
        assert state.load(100) == 6
        assert state.pc == 7

    def test_apply_delta_keeps_pc_when_none(self):
        state = ArchState(pc=3)
        state.apply_delta({}, {})
        assert state.pc == 3

    def test_snapshot_cells(self):
        state = ArchState(mem={4: 2})
        state.write_reg(1, 8)
        regs, mem = state.snapshot_cells([1, 2], [4, 5])
        assert regs == {1: 8, 2: 0}
        assert mem == {4: 2, 5: 0}
