"""Execution profiler: the paper's offline training run, whose
:class:`~repro.profiling.profile_data.Profile` tells the distiller which
branches to assert, which code is cold, which loads are specializable,
and where to place fork points.

:func:`profile_program` runs whole fall-through traces; per-pc counts
follow from a difference array over the instructions each trace
retired.  Every branch a trace ran through fell through; the branch it
left at (or ended with) went the way its successor pc tells (or its
condition, re-evaluated, when it targets its own fall-through pc).
Loads and stores report through :class:`_ProfilingState` hooks.  Near
the step budget, and on the ``oracle`` tier, it steps exactly, like the
per-instruction observer profile it is tested against
(``tests/profiling/test_profiler.py``).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import InvalidPcError, StepLimitExceeded
from repro.isa.program import Program
from repro.machine.decoded import DecodedProgram, decode, resolve_exec_tier
from repro.machine.interpreter import DEFAULT_STEP_LIMIT
from repro.machine.semantics import _BRANCH_OPS
from repro.machine.state import ArchState
from repro.profiling.profile_data import (
    BranchProfile,
    LoadProfile,
    Profile,
    StoreProfile,
)


class _ProfilingState(ArchState):
    """An :class:`ArchState` whose loads and stores feed a profile at
    ``self.pc`` (a chain's memory ops store their own pc before the
    access).  It shares the caller's registers and memory; only ``pc``
    is copied back.
    """

    __slots__ = ("profile",)

    def __init__(self, state: ArchState, profile: Profile):
        self.regs = state.regs
        self.mem = state.mem
        self.pc = state.pc
        self.profile = profile

    def load(self, address: int) -> int:
        value = self.mem.get(address, 0)
        profile = self.profile
        profile.loaded_addresses.add(address)
        site = profile.loads.get(self.pc)
        if site is None:
            site = profile.loads[self.pc] = LoadProfile()
        site.observe(address, value)
        return value

    def store(self, address: int, value: int) -> None:
        profile = self.profile
        profile.stored_addresses.add(address)
        site = profile.stores.get(self.pc)
        if site is None:
            site = profile.stores[self.pc] = StoreProfile()
        site.observe(address)
        super().store(address, value)


def _trace_branches(decoded: DecodedProgram) -> List[Tuple]:
    """Per trace-entry pc: ``(branch pc, target, condition)`` for each
    conditional branch of the trace, in pc order; ``condition`` is set
    only when the target is the fall-through pc, which no successor
    tells."""
    code = decoded.code
    spans = decoded.chain_spans
    branches: List[Tuple] = [()] * (decoded.size + 1)
    for pc in range(decoded.size - 1, -1, -1):
        # A trace is pc followed by the trace from pc + 1, unless it
        # ends at pc.
        rest = branches[pc + 1] if spans[pc] > 1 else ()
        instr = code[pc]
        if instr.is_branch:
            condition = None
            if instr.target == pc + 1:
                def condition(state, fn=_BRANCH_OPS[instr.op], rs=instr.rs,
                              rt=instr.rt):
                    return fn(state.read_reg(rs), state.read_reg(rt))
            rest = ((pc, instr.target, condition),) + rest
        branches[pc] = rest
    return branches


def _record_branch(
    branches: Dict[int, BranchProfile], pc: int, taken: bool
) -> None:
    branch = branches.get(pc)
    if branch is None:
        branch = branches[pc] = BranchProfile()
    if taken:
        branch.taken += 1
    else:
        branch.not_taken += 1


def profile_program(
    program: Program,
    state: Optional[ArchState] = None,
    max_steps: int = DEFAULT_STEP_LIMIT,
) -> Profile:
    """Run ``program`` to halt and return its execution profile.

    Equal to a per-instruction observer's profile of the same run
    (``tests/profiling/test_profiler.py``), including the ``halt`` it
    counts.  ``state`` (default: the boot state) is advanced in place,
    exactly as :func:`repro.machine.interpreter.run` would leave it.
    """
    if state is None:
        state = ArchState.initial(program)
    decoded = decode(program, oracle=resolve_exec_tier() == "oracle")
    profile = Profile(
        program_name=program.name, code_length=len(program.code)
    )
    view = _ProfilingState(state, profile)
    regs = view.regs
    size = decoded.size
    chains = decoded.chains
    spans = decoded.chain_spans
    chain_halts = decoded.chain_halts
    steppers = decoded.steppers
    code = decoded.code
    trace_branches = _trace_branches(decoded)
    branches = profile.branches
    # The oracle tier is the reference the decoded tier is compared
    # against: it steps every instruction.
    superstep_limit = 0 if decoded.oracle else max_steps
    delta = [0] * (size + 1)
    steps = 0
    try:
        while True:
            pc = view.pc
            if not 0 <= pc < size:
                raise InvalidPcError(pc, size)
            n = spans[pc]
            if steps + n < superstep_limit:
                k = chains[pc](regs, view)
                delta[pc] += 1
                delta[pc + k] -= 1
                last = pc + k - 1
                for branch, target, condition in trace_branches[pc]:
                    if branch == last:
                        _record_branch(
                            branches, branch,
                            view.pc == target if condition is None
                            else condition(view),
                        )
                        break
                    if branch > last:
                        break
                    _record_branch(branches, branch, False)
                if k == n and chain_halts[pc]:
                    break
                steps += k
                continue
            # One exact step: near the budget, or on the oracle tier.
            effect = steppers[pc](view)
            delta[pc] += 1
            delta[pc + 1] -= 1
            if effect.halted:
                break
            steps += 1
            if code[pc].is_branch:
                _record_branch(branches, pc, effect.taken)
            if steps >= max_steps:
                raise StepLimitExceeded(max_steps)
    finally:
        state.pc = view.pc
    profile.exec_counts = list(accumulate(delta[:size]))
    profile.total_instructions = sum(profile.exec_counts)
    return profile


def profile_many(
    program: Program, states: Iterable[ArchState],
    max_steps: int = DEFAULT_STEP_LIMIT,
) -> Profile:
    """Profile the same program over several inputs and merge the results."""
    merged: Optional[Profile] = None
    for state in states:
        current = profile_program(program, state=state, max_steps=max_steps)
        merged = current if merged is None else merged.merge(current)
    if merged is None:
        raise ValueError("profile_many needs at least one input state")
    return merged
