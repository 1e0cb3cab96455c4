"""Execution profiler: the paper's offline training run, whose
:class:`~repro.profiling.profile_data.Profile` tells the distiller which
branches to assert, which code is cold, which loads are specializable,
and where to place fork points.

:func:`profile_program` runs whole basic-block supersteps and counts
chain entries; per-pc counts follow from a difference array over the
chains' spans.  A branch's direction is its chain's successor pc (or
its condition, re-evaluated, when it targets its own fall-through pc).
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
from repro.machine.decoded import DecodedProgram, decode
from repro.machine.interpreter import DEFAULT_STEP_LIMIT
from repro.machine.jit import resolve_exec_tier
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


def _branch_exits(decoded: DecodedProgram) -> List[Optional[Tuple]]:
    """Per chain-entry pc: ``(branch pc, target, condition)`` if the chain
    ends at a conditional branch, else ``None``; ``condition`` is set only
    when the target is the fall-through pc, which no successor tells."""
    exits: List[Optional[Tuple]] = []
    for pc, n in enumerate(decoded.chain_spans):
        last = pc + n - 1
        instr = decoded.code[last]
        if not instr.is_branch:
            exits.append(None)
            continue
        condition = None
        if instr.target == last + 1:
            def condition(state, fn=_BRANCH_OPS[instr.op], rs=instr.rs,
                          rt=instr.rt):
                return fn(state.read_reg(rs), state.read_reg(rt))
        exits.append((last, instr.target, condition))
    return exits


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
    exits = _branch_exits(decoded)
    branches = profile.branches
    # The oracle tier is the reference the decoded tier is compared
    # against: it steps every instruction.
    superstep_limit = 0 if decoded.oracle else max_steps
    entries = [0] * size
    delta = [0] * (size + 1)
    steps = 0
    try:
        while True:
            pc = view.pc
            if not 0 <= pc < size:
                raise InvalidPcError(pc, size)
            n = spans[pc]
            if steps + n < superstep_limit:
                chains[pc](regs, view)
                entries[pc] += 1
                if chain_halts[pc]:
                    break
                steps += n
                branch = exits[pc]
                if branch is not None:
                    last, target, condition = branch
                    _record_branch(
                        branches, last,
                        view.pc == target if condition is None
                        else condition(view),
                    )
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
    for pc, count in enumerate(entries):
        delta[pc] += count
        delta[pc + spans[pc]] -= count
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
