"""Workload framework: specs, instances, and layout conventions.

A *workload* models one SPECint-like program from the MICRO evaluation.
It separates three things the real evaluation separates too:

* **code** — built once per size by a :class:`ProgramBuilder` function;
  identical across inputs (so profiles line up pc-for-pc);
* **training inputs** — data images generated from ``train_seeds``
  (the paper's *train* runs, which feed the distiller);
* **evaluation input** — a data image from a different ``eval_seed``
  (the paper's *ref* run, on which MSSP performance is measured).

Layout conventions every workload follows:

* input data lives at :data:`INPUT_BASE` (regenerated per seed);
* immutable configuration constants — value-specialization fodder —
  live wherever the builder allocates them (they are part of the code's
  identity and do not vary with seed);
* observable results are stored at :data:`RESULT_BASE`, so examples and
  tests can compare outcomes without diffing whole states.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import WorkloadError
from repro.isa.program import Program

#: Word address where per-seed input data begins.
INPUT_BASE = 0x1000

#: Word address where workloads store their observable results.
RESULT_BASE = 0x9000

#: Scratch registers reserved for integrity-guard chains (kept clear of
#: each workload's own register allocation).
GUARD_REGS = ("r16", "r17")


def never_taken_guard(builder, name: str, reg_a: str, reg_b: str) -> str:
    """Emit a 6-instruction integrity guard that can never fire.

    Real programs spend a large fraction of their dynamic instructions
    on assertions, bounds checks and bookkeeping whose branches are
    essentially never taken — exactly the code the MSSP distiller
    converts to assertions and then dead-code-eliminates.  This helper
    plants such a chain: a masked hash of two live registers compared
    against a value outside the mask's range (so the guard is provably
    dead, though no profile-driven distiller can know that statically).

    The caller must later emit the cold fixup block via
    :func:`emit_guard_fixups`; the fixup jumps back to the point just
    after the guard, so the guard is *not* a loop exit and the distiller
    may assert it without liveness concerns.

    Returns ``name`` for bookkeeping.
    """
    check, temp = GUARD_REGS
    builder.xor(check, reg_a, reg_b)
    builder.srli(temp, check, 3)
    builder.add(check, check, temp)
    builder.andi(check, check, 0xFFFF)
    builder.li(temp, 0x20000)  # outside the masked range: never equal
    builder.beq(check, temp, f"{name}_fix")
    builder.label(f"{name}_resume")
    return name


def emit_guard_fixups(builder, guards) -> None:
    """Emit the cold fixup blocks for previously planted guards."""
    check, _ = GUARD_REGS
    for name in guards:
        builder.label(f"{name}_fix")
        builder.comment("cold: integrity violation bookkeeping")
        builder.addi(check, check, 1)
        builder.sw(check, "zero", RESULT_BASE + 7)
        builder.j(f"{name}_resume")

#: Data generator signature: (size, rng) -> {address: value} updates.
DataGen = Callable[[int, random.Random], Dict[int, int]]

#: Code builder signature: size -> Program (code + constant data only).
CodeBuilder = Callable[[int], Program]


@dataclass(frozen=True)
class WorkloadInstance:
    """One concrete (code, training inputs, evaluation input) bundle."""

    spec: "WorkloadSpec"
    size: int
    #: The evaluation program: code + eval-seed data image.
    program: Program
    #: Same code with training data images (inputs to the profiler).
    train_programs: Tuple[Program, ...]

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass(frozen=True)
class WorkloadSpec:
    """A named, parameterizable workload."""

    name: str
    description: str
    build_code: CodeBuilder
    gen_data: DataGen
    default_size: int
    train_seeds: Tuple[int, ...] = (101, 202)
    eval_seed: int = 777

    def instance(self, size: Optional[int] = None) -> WorkloadInstance:
        """Materialize code plus train/eval data images."""
        size = size if size is not None else self.default_size
        if size < 1:
            raise WorkloadError(f"{self.name}: size must be positive")
        code = self.build_code(size).with_name(self.name)
        eval_program = code.updated_memory(
            self.gen_data(size, random.Random(self.eval_seed))
        )
        train_programs = tuple(
            code.updated_memory(self.gen_data(size, random.Random(seed)))
            for seed in self.train_seeds
        )
        return WorkloadInstance(
            spec=self, size=size, program=eval_program,
            train_programs=train_programs,
        )
