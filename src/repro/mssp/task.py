"""Tasks and checkpoints — the unit of speculation in MSSP.

A :class:`Checkpoint` is the master's live-in prediction for one task:
its full (speculative) register file plus the memory values it has
written since its last restart.  Slaves fall through to architected state
for memory the master did not touch, exactly as in the paper (the master
only ships what it modified).

A :class:`Task` is the paper's 4-tuple ⟨S_in, n, S_out, k⟩ in concrete
form: the live-in prediction (checkpoint + start pc), the region bounds
(``start_pc`` .. ``end_pc``; ``end_pc`` is fixed only when the *next*
fork arrives), and — after slave execution — the recorded live-in and
live-out sets plus the dynamic instruction count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.machine.state import ArchState


@dataclass(slots=True)
class Checkpoint:
    """Live-in prediction shipped from the master to a slave.

    Built once per fork and never mutated afterwards; slotted rather
    than frozen because a frozen dataclass pays an ``object.__setattr__``
    per field on every construction.
    """

    regs: Tuple[int, ...]
    mem: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def exact(cls, state: ArchState) -> "Checkpoint":
        """A perfect checkpoint taken directly from architected state.

        Used for the task opened at a master (re)start: the paper's
        processors are "seeded with the correct values currently held in
        architected state" after a squash.  An exact checkpoint with an
        empty memory overlay can never cause a live-in mismatch.
        """
        return cls(tuple(state.regs), {})

    def __len__(self) -> int:
        return len(self.regs) + len(self.mem)

    def patched(
        self, overrides: Dict[int, int]
    ) -> Tuple["Checkpoint", Dict[int, int]]:
        """Start-image patching: a copy with predicted register values
        written over the master's, plus ``{reg: master's value}`` for the
        cells actually changed.

        Only registers are ever patched — register images ship verbatim
        per task on every executor wire, whereas checkpoint *memory* is
        delta-chained by the process executor (``mem_k == mem_{k-1} |
        delta_k``), so patching it would corrupt the chain.  Returns
        ``(self, {})`` when no override changes anything, so unpatched
        checkpoints are never copied.
        """
        replaced: Dict[int, int] = {}
        regs = list(self.regs)
        for reg, value in overrides.items():
            if 0 < reg < len(regs) and regs[reg] != value:
                replaced[reg] = regs[reg]
                regs[reg] = value
        if not replaced:
            return self, {}
        return Checkpoint(tuple(regs), self.mem), replaced


class TaskStatus(enum.Enum):
    """Lifecycle of a task."""

    OPEN = "open"            # end pc not yet known (master still predicting)
    READY = "ready"          # fully defined, awaiting slave execution
    COMPLETED = "completed"  # slave finished; awaiting verification
    COMMITTED = "committed"  # live-ins verified, live-outs applied
    SQUASHED = "squashed"    # verification failed (or execution faulted)


class SquashReason(enum.Enum):
    """Why a task failed verification."""

    NONE = "none"
    WRONG_START_PC = "wrong-start-pc"
    REGISTER_LIVE_IN = "register-live-in"
    MEMORY_LIVE_IN = "memory-live-in"
    OVERRUN = "overrun"          # never reached its end pc within budget
    FAULT = "fault"              # invalid pc during speculative execution
    MASTER_TIMEOUT = "master-timeout"  # master never produced the next fork
    PROTECTED = "protected-access"     # would touch a non-idempotent region


@dataclass
class Task:
    """One unit of speculative work."""

    tid: int
    start_pc: int
    checkpoint: Checkpoint
    #: True when the checkpoint was taken from architected state itself
    #: (restart tasks); such tasks can only fail by overrun/fault.
    exact: bool = False
    #: Original-program pc at which the task ends (the next task's start);
    #: None means "run to halt" (the task after the master's last fork).
    end_pc: Optional[int] = None
    #: The task ends at this-many-th arrival at ``end_pc`` (strided forks
    #: pass their anchor several times before firing, so a task may loop
    #: through its end pc before stopping there).
    end_arrivals: int = 1
    final: bool = False
    status: TaskStatus = TaskStatus.OPEN

    # Filled by slave execution -------------------------------------------------
    live_in_regs: Dict[int, int] = field(default_factory=dict)
    live_in_mem: Dict[int, int] = field(default_factory=dict)
    live_out_regs: Dict[int, int] = field(default_factory=dict)
    live_out_mem: Dict[int, int] = field(default_factory=dict)
    n_instrs: int = 0
    n_loads: int = 0
    end_state_pc: int = -1
    halted: bool = False
    overrun: bool = False
    faulted: bool = False
    #: The task stopped before touching a protected (I/O) address.
    protected_access: bool = False
    #: Measured wall-seconds the executing substrate spent running this
    #: task (thread/process worker or local fallback).  Crosses the
    #: executor wire so :meth:`~repro.config.TimingConfig.calibrate` can
    #: fit the timing model to real runs; never judged, so it cannot
    #: perturb bit-identity.
    exec_seconds: float = 0.0
    #: :class:`~repro.mssp.verify.CellVersions` sequence number at which
    #: this task's view of architected memory is known to have been
    #: current (eager: execution time; parallel adopted results: episode
    #: start).  ``None`` disables the verify fast path for this task —
    #: every memory live-in is compared the slow way.
    base_version: Optional[int] = None
    #: Registers the speculation-safety prover marked PROVEN for this
    #: task's anchor (:mod:`repro.analysis.specsafe`).  Set at task
    #: creation from the engine's :class:`SafetyReport`; verify may skip
    #: (or soundness-check) these register compares.  A purely static
    #: attribute — never crosses the executor wire.
    proven_regs: frozenset = frozenset()
    #: Live-in cells the predictor bank overrode in this task's
    #: checkpoint, mapping register → the master's *original* (pre-patch)
    #: value; the predicted value is ``checkpoint.regs[reg]``.  Like
    #: ``proven_regs``, a creation-time attribute that never crosses the
    #: executor wire — the judge uses it to score predictor hits/misses
    #: and to recover the master's own guess for training.
    predicted_cells: Dict[int, int] = field(default_factory=dict)

    # Filled by verification -----------------------------------------------------
    squash_reason: SquashReason = SquashReason.NONE

    @property
    def live_in_count(self) -> int:
        """Number of live-in values the verify unit must check."""
        return len(self.live_in_regs) + len(self.live_in_mem) + 1  # +1: pc

    def describe(self) -> str:
        end = "halt" if self.end_pc is None else str(self.end_pc)
        return (
            f"task {self.tid}: [{self.start_pc} -> {end}] "
            f"{self.status.value} n={self.n_instrs} "
            f"live-ins={self.live_in_count}"
        )


def wire_result(task: Task) -> Tuple:
    """An executed task's observable outcome as a flat 13-tuple.

    This is the slave→verify wire format every executor backend speaks:
    whichever substrate ran the task (inline, thread pool, worker
    process), the pipeline adopts exactly these fields — so a backend
    can only influence the run through them, which is what makes the
    staleness check in
    :meth:`~repro.mssp.runtime.pipeline.TaskPipeline` sufficient for
    bit-identical adoption.  The trailing ``exec_seconds`` is
    measurement metadata for cost-model calibration; the verify unit
    never reads it.
    """
    return (
        task.tid, task.live_in_regs, task.live_in_mem, task.live_out_regs,
        task.live_out_mem, task.n_instrs, task.n_loads, task.end_state_pc,
        task.halted, task.faulted, task.overrun, task.protected_access,
        task.exec_seconds,
    )


def adopt_wire_result(task: Task, result: Tuple) -> None:
    """Install a :func:`wire_result` tuple onto the authoritative task."""
    (_, task.live_in_regs, task.live_in_mem, task.live_out_regs,
     task.live_out_mem, task.n_instrs, task.n_loads, task.end_state_pc,
     task.halted, task.faulted, task.overrun,
     task.protected_access, task.exec_seconds) = result
    task.status = TaskStatus.COMPLETED
