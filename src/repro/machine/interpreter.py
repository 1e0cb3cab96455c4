"""Sequential reference interpreter — the paper's SEQ model.

:func:`run` executes a program to completion (or a step limit) on an
:class:`~repro.machine.state.ArchState`; :func:`seq` is the paper's
``seq(S, n)`` — advance a state by exactly ``n`` instructions.  MSSP
correctness is always judged against these functions.

An optional observer receives every executed instruction together with its
:class:`~repro.machine.semantics.StepEffect`.  The profiler's test
reference (``Profiler`` in ``tests/profiling/test_profiler.py``) is such
an observer; :func:`repro.profiling.profile_program` itself runs
fall-through traces and hooks only loads and stores.

Execution dispatches through the pre-decoded engine
(:mod:`repro.machine.decoded`), which is differentially tested to be
observationally identical to :func:`repro.machine.semantics.execute`,
the semantic oracle.  Effects handed to observers follow the decoded
engine's interned-effect contract: treat them as immutable, snapshot
fields rather than retaining the objects.

The ``REPRO_EXEC`` environment variable selects the execution tier for
:func:`run`: ``oracle`` (every step through ``semantics.execute``) or
``decoded`` (the default).  Both tiers produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import InvalidPcError
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.machine.decoded import decode, resolve_exec_tier
from repro.machine.semantics import StepEffect
from repro.machine.state import ArchState

#: Observer signature: (pc before execution, instruction, effect, state after).
Observer = Callable[[int, Instruction, StepEffect, ArchState], None]

#: Default instruction budget for :func:`run`.
DEFAULT_STEP_LIMIT = 50_000_000


@dataclass
class RunResult:
    """Outcome of a bounded sequential run."""

    state: ArchState
    steps: int
    halted: bool


def step(program: Program, state: ArchState) -> StepEffect:
    """Execute exactly one instruction of ``program`` at ``state.pc``."""
    return decode(program).step(state)


def run(
    program: Program,
    state: Optional[ArchState] = None,
    max_steps: int = DEFAULT_STEP_LIMIT,
    observer: Optional[Observer] = None,
) -> RunResult:
    """Run ``program`` until it halts, or raise on exceeding ``max_steps``.

    ``state`` defaults to the program's boot state.  Halting does not count
    as an executed step (matching ``seq``'s instruction arithmetic: the
    state at a ``halt`` is a fixed point).
    """
    if state is None:
        state = ArchState.initial(program)
    steps, halted = decode(
        program, oracle=resolve_exec_tier() == "oracle"
    ).run(state, max_steps, observer=observer)
    return RunResult(state=state, steps=steps, halted=halted)


def run_to_halt(program: Program, max_steps: int = DEFAULT_STEP_LIMIT) -> RunResult:
    """Run ``program`` from boot state to halt (convenience wrapper)."""
    return run(program, max_steps=max_steps)


def seq(program: Program, state: ArchState, n: int) -> ArchState:
    """The paper's ``seq(S, n)``: advance ``state`` by ``n`` instructions.

    Returns a *new* state; ``state`` itself is not modified.  A halted
    state is a fixed point, so stepping past a ``halt`` is well-defined.
    """
    result = state.copy()
    decoded = decode(program)
    steppers = decoded.steppers
    size = decoded.size
    for _ in range(n):
        pc = result.pc
        if not 0 <= pc < size:
            raise InvalidPcError(pc, size)
        if steppers[pc](result).halted:
            break
    return result


def count_dynamic_instructions(
    program: Program, max_steps: int = DEFAULT_STEP_LIMIT
) -> int:
    """Dynamic path length of ``program`` from boot to halt."""
    return run_to_halt(program, max_steps=max_steps).steps


class _LoadCountingState(ArchState):
    """An :class:`ArchState` that counts its ``load`` calls."""

    __slots__ = ("loads",)

    def load(self, address: int) -> int:
        self.loads += 1
        return self.mem.get(address, 0)


def count_instructions_and_loads(
    program: Program, max_steps: int = DEFAULT_STEP_LIMIT
) -> "tuple[int, int]":
    """(dynamic instructions, memory loads) of one sequential run.

    The load count feeds memory-aware cycle accounting: machines that
    charge ``load_penalty`` extra cycles per load need the baseline's
    load count for fair speedup denominators.  It runs the decoded
    program's traces on a state that counts its loads, with no
    per-instruction observer.
    """
    state = _LoadCountingState(mem=program.memory, pc=program.entry)
    state.loads = 0
    steps, _ = decode(program, oracle=resolve_exec_tier() == "oracle").run(
        state, max_steps
    )
    return steps, state.loads
