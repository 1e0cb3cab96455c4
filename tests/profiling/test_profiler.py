"""Tests for the profiler and profile data model."""

import json

import pytest
from hypothesis import given, settings

from repro.errors import StepLimitExceeded
from repro.isa.asm import assemble
from repro.machine.interpreter import run
from repro.machine.state import ArchState
from repro.profiling import (
    VALUE_HISTOGRAM_CAP,
    BranchProfile,
    LoadProfile,
    Profile,
    profile_many,
    profile_program,
)
from repro.profiling.profile_data import StoreProfile
from repro.workloads import WORKLOADS, get_workload
from tests.strategies import terminating_programs

BIASED = """
main:   li r1, 100
        li r3, 7
loop:   addi r1, r1, -1
        beq r1, r3, rare      # taken exactly once in 100 iterations
back:   bne r1, zero, loop
        halt
rare:   addi r2, r2, 1
        j back
"""

LOADS = """
main:   li r1, 10
loop:   lw r2, 500(zero)      # stable: always the same cell, never stored
        lw r3, 600(zero)      # will be stored to below
        sw r1, 600(zero)
        addi r1, r1, -1
        bne r1, zero, loop
        halt
        .data 500
        .word 42
"""


class TestExecCounts:
    def test_counts_and_total(self):
        profile = profile_program(assemble(BIASED))
        assert profile.total_instructions == sum(profile.exec_counts)
        assert profile.exec_counts[2] == 100  # loop body addi
        assert profile.exec_counts[0] == 1

    def test_hotness_and_cold(self):
        profile = profile_program(assemble(BIASED))
        assert profile.hotness(2) > 0.2
        assert profile.is_cold(6, threshold=0.05)  # the rare block
        assert not profile.is_cold(2, threshold=0.05)

    def test_block_count_query(self):
        profile = profile_program(assemble(BIASED))
        assert profile.block_count(2) == 100


class TestBranchProfiles:
    def test_bias_of_rare_branch(self):
        profile = profile_program(assemble(BIASED))
        branch = profile.branch_bias(3)  # beq r1, r3, rare
        assert branch is not None
        assert branch.taken == 1
        assert branch.not_taken == 99
        assert branch.bias == pytest.approx(0.99)
        assert branch.dominant_taken is False

    def test_loop_branch_mostly_taken(self):
        profile = profile_program(assemble(BIASED))
        branch = profile.branch_bias(4)  # bne back-edge
        assert branch.dominant_taken is True
        assert branch.taken == 99
        assert branch.not_taken == 1

    def test_empty_branch_profile(self):
        empty = BranchProfile()
        assert empty.bias == 0.0
        assert empty.count == 0


class TestLoadProfiles:
    def test_stable_load_detected(self):
        profile = profile_program(assemble(LOADS))
        assert profile.stable_load_value(1) == 42

    def test_stored_address_disqualifies(self):
        profile = profile_program(assemble(LOADS))
        assert profile.stable_load_value(2) is None
        assert 600 in profile.stored_addresses

    def test_min_count_respected(self):
        profile = profile_program(
            assemble("lw r1, 500(zero)\nhalt\n.data 500\n.word 9")
        )
        assert profile.stable_load_value(0, min_count=2) is None
        assert profile.stable_load_value(0, min_count=1) == 9

    def test_polymorphic_cap(self):
        load = LoadProfile()
        for value in range(VALUE_HISTOGRAM_CAP + 1):
            load.observe(100 + value, value)
        assert load.polymorphic
        assert load.dominant_value() is None
        # Further observations are cheap no-ops.
        load.observe(0, 0)
        assert load.values == {}

    def test_dominant_value_share(self):
        load = LoadProfile()
        load.observe(1, 5)
        load.observe(1, 5)
        load.observe(1, 7)
        value, share = load.dominant_value()
        assert value == 5
        assert share == pytest.approx(2 / 3)


class TestMerge:
    def test_merge_sums_counts(self):
        program = assemble(BIASED)
        first = profile_program(program)
        second = profile_program(program)
        merged = first.merge(second)
        assert merged.total_instructions == 2 * first.total_instructions
        assert merged.branches[3].taken == 2

    def test_merge_rejects_different_programs(self):
        a = profile_program(assemble(BIASED))
        b = profile_program(assemble(LOADS))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_profile_many(self):
        program = assemble(BIASED)
        merged = profile_many(
            program,
            [ArchState.initial(program), ArchState.initial(program)],
        )
        assert merged.total_instructions > 0
        assert merged.branches[3].count == 200

    def test_profile_many_requires_input(self):
        with pytest.raises(ValueError):
            profile_many(assemble(BIASED), [])


class TestSummary:
    def test_summary_fields(self):
        profile = profile_program(assemble(BIASED))
        summary = profile.summary()
        assert summary["total_instructions"] == profile.total_instructions
        assert 0 < summary["static_coverage"] <= 1.0
        assert summary["branch_sites"] == 2.0


class Profiler:
    """Observer that accumulates a :class:`Profile` during a run: the
    per-instruction reference :func:`profile_program` is tested against."""

    def __init__(self, program):
        self.profile = Profile(
            program_name=program.name, code_length=len(program.code)
        )

    def observe(self, pc, instr, effect, state):
        profile = self.profile
        profile.total_instructions += 1
        profile.exec_counts[pc] += 1
        if instr.is_branch:
            branch = profile.branches.setdefault(pc, BranchProfile())
            if effect.taken:
                branch.taken += 1
            else:
                branch.not_taken += 1
        elif effect.mem_addr is not None:
            if effect.is_store:
                profile.stored_addresses.add(effect.mem_addr)
                profile.stores.setdefault(pc, StoreProfile()).observe(
                    effect.mem_addr
                )
            else:
                profile.loaded_addresses.add(effect.mem_addr)
                profile.loads.setdefault(pc, LoadProfile()).observe(
                    effect.mem_addr, effect.mem_value
                )


def observer_profile(program, state=None, max_steps=50_000_000):
    """The reference: one observer call per executed instruction."""
    profiler = Profiler(program)
    run(program, state=state, max_steps=max_steps, observer=profiler.observe)
    return profiler.profile


def assert_same_profile(candidate, reference):
    assert candidate == reference
    # Serialized form too, so dict insertion order matches as well.
    assert json.dumps(candidate.to_dict()) == json.dumps(reference.to_dict())


def profile_outcome(profiler, program, state, max_steps):
    """``(profile, None)`` or ``(None, limit)`` of one bounded run."""
    try:
        return profiler(program, state=state, max_steps=max_steps), None
    except StepLimitExceeded as error:
        return None, error.limit


#: A conditional branch whose target is its own fall-through pc (pc 2):
#: its successor is pc 3 both ways, so only its condition tells.
SELF_FALLTHROUGH = """
main:   li r1, 6
loop:   andi r2, r1, 1
        beq r2, zero, next    # taken on even r1
next:   addi r1, r1, -1
        bne r1, zero, loop
        addi r3, r3, 1
        addi r4, r4, 1
        halt
"""


class TestSuperstepProfileMatchesObserver:
    """``profile_program`` runs whole chains; the per-instruction observer
    ``Profiler`` is the reference it must equal."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_programs(self, name):
        instance = get_workload(name).instance()
        for program in (*instance.train_programs, instance.program):
            assert_same_profile(
                profile_program(program), observer_profile(program)
            )

    @given(terminating_programs())
    @settings(max_examples=25, deadline=None)
    def test_generated_programs(self, program):
        assert_same_profile(
            profile_program(program, max_steps=2_000_000),
            observer_profile(program, max_steps=2_000_000),
        )

    def test_branch_to_its_own_fallthrough_both_ways(self):
        program = assemble(SELF_FALLTHROUGH)
        profile = profile_program(program)
        assert profile.branches[2] == BranchProfile(taken=3, not_taken=3)
        assert_same_profile(profile, observer_profile(program))

    def test_step_budget_boundary(self):
        program = assemble(SELF_FALLTHROUGH)
        length = run(program).steps  # non-halt instructions to halt
        for max_steps in range(length - 3, length + 3):
            mine, theirs = ArchState.initial(program), ArchState.initial(
                program
            )
            got = profile_outcome(profile_program, program, mine, max_steps)
            want = profile_outcome(observer_profile, program, theirs, max_steps)
            assert got == want, max_steps
            assert mine == theirs, max_steps
            # One below and at the length raise; one above profiles the
            # whole run, its last chain ending exactly at the budget.
            assert (got[0] is None) == (max_steps <= length)

    def test_caller_supplied_state(self):
        program = assemble(LOADS)
        mine = ArchState(regs=[0, 5] + [0] * 30, mem={500: 7}, pc=1)
        theirs = mine.copy()
        profile = profile_program(program, state=mine)
        assert_same_profile(profile, observer_profile(program, state=theirs))
        assert mine == theirs
        assert mine.pc == 6 and mine.mem[600] == 1


class TestTraceProfileMatchesObserver:
    """Trace boundaries: side exits at a trace's first, middle and last
    branch, a halt trace entered mid-span and left before its halt, a
    branch that targets its own fall-through, and budgets inside
    traces.  The program is the slave/master/recovery differentials'
    (``tests/mssp/test_supersteps.py``)."""

    @pytest.fixture
    def program(self):
        from tests.mssp.test_supersteps import TRACE_SOURCE

        return assemble(TRACE_SOURCE)

    @pytest.mark.parametrize("regs", [{}, {10: 8}],
                             ids=["boot", "self-target-taken"])
    def test_every_exit(self, program, regs):
        states = []
        for _ in range(2):
            state = ArchState.initial(program)
            for index, value in regs.items():
                state.regs[index] = value
            states.append(state)
        mine, theirs = states
        profile = profile_program(program, state=mine)
        assert_same_profile(profile, observer_profile(program, state=theirs))
        assert mine == theirs
        # Each side exit of the loop trace was taken twice; the last
        # iteration's bne at 19 falls through to the halt.
        assert [profile.branches[pc].taken for pc in (4, 7, 10, 19)] == [
            2, 2, 2, 7,
        ]

    def test_budget_inside_a_trace(self, program):
        length = run(program).steps
        for max_steps in range(1, length + 3):
            mine = ArchState.initial(program)
            theirs = ArchState.initial(program)
            got = profile_outcome(profile_program, program, mine, max_steps)
            want = profile_outcome(
                observer_profile, program, theirs, max_steps
            )
            assert got == want, max_steps
            assert mine == theirs, max_steps
