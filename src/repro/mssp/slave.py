"""Slave-side task execution with live-in/live-out recording.

A slave executes the **original** program (the same
:func:`repro.machine.semantics.execute` the sequential model uses) on a
:class:`SlaveView`:

* registers start from the master's checkpoint; the first read of a
  register that the task has not yet written records a live-in;
* loads consult, in order: the task's own stores, the master's shipped
  memory overlay, then architected state — the first-read value is
  recorded as a memory live-in;
* every write lands in task-private storage (the live-outs); architected
  state is never touched during speculation.

Execution stops at the first arrival at the task's end pc (checked
*after* each step, so a task whose start equals its end — one full loop
iteration — executes the whole iteration), at ``halt``, or when the
instruction budget is exhausted (recorded as an overrun, which
verification treats as a misspeculation).

On every tier but ``oracle`` the register rules run once per
basic-block chain, not on every access: a *recording chain*
(:attr:`~repro.machine.decoded.DecodedProgram.recording_chains`) works on
the view's own register list, written flags and live-in dict, recording
the registers its span reads before writing at entry and marking the
ones it writes at exit — what ``read_reg``/``write_reg`` would record,
step by step, for a chain that runs to its end.  Memory still records
through :meth:`SlaveView.load`/:meth:`SlaveView.store`.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional

from repro.errors import ProtectedAccessError
from repro.isa.program import Program
from repro.machine.decoded import decode
from repro.machine.state import ArchState, wrap64
from repro.mssp.regions import ProtectedRegions
from repro.mssp.task import Checkpoint, Task, TaskStatus


class SlaveView:
    """MachineStateLike view implementing the recording rules above.

    ``regs``, ``_reg_written`` and ``live_in_regs`` are the state the
    recording chains write directly; ``read_reg``/``write_reg`` apply the
    same rule one access at a time.

    When ``regions`` is set, any access to a protected address raises
    :class:`~repro.errors.ProtectedAccessError` *before* the access is
    performed — speculative execution must never produce (or observe) a
    device-visible effect.
    """

    __slots__ = (
        "pc", "regs", "_reg_written", "_ckpt_mem", "_arch",
        "_own_mem", "live_in_regs", "live_in_mem", "_regions",
    )

    def __init__(
        self,
        checkpoint: Checkpoint,
        arch: ArchState,
        pc: int,
        regions: Optional["ProtectedRegions"] = None,
    ):
        self.pc = pc
        # A checkpoint's r0 is never observable: reads of r0 are 0.
        self.regs: List[int] = list(checkpoint.regs)
        self.regs[0] = 0
        self._reg_written = [False] * len(self.regs)
        self._ckpt_mem = checkpoint.mem
        self._arch = arch
        self._own_mem: Dict[int, int] = {}
        self.live_in_regs: Dict[int, int] = {}
        self.live_in_mem: Dict[int, int] = {}
        self._regions = regions

    # -- MachineStateLike -------------------------------------------------------

    def read_reg(self, index: int) -> int:
        if index == 0:
            return 0
        value = self.regs[index]
        if not self._reg_written[index] and index not in self.live_in_regs:
            self.live_in_regs[index] = value
        return value

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = wrap64(value)
            self._reg_written[index] = True

    def load(self, address: int) -> int:
        if self._regions is not None and address in self._regions:
            raise ProtectedAccessError(address, is_store=False)
        if address in self._own_mem:
            return self._own_mem[address]
        if address in self.live_in_mem:
            return self.live_in_mem[address]
        if address in self._ckpt_mem:
            value = self._ckpt_mem[address]
        else:
            value = self._arch.load(address)
        self.live_in_mem[address] = value
        return value

    def store(self, address: int, value: int) -> None:
        if self._regions is not None and address in self._regions:
            raise ProtectedAccessError(address, is_store=True)
        self._own_mem[address] = wrap64(value)

    # -- results ------------------------------------------------------------------

    def live_out_regs(self) -> Dict[int, int]:
        written = self._reg_written
        return dict(zip(
            compress(range(len(written)), written),
            compress(self.regs, written),
        ))

    def live_out_mem(self) -> Dict[int, int]:
        return dict(self._own_mem)


def execute_task(
    program: Program,
    task: Task,
    arch: ArchState,
    max_instrs: int,
    regions: Optional[ProtectedRegions] = None,
    tier: str = "decoded",
) -> Task:
    """Run ``task`` speculatively against ``arch`` (read-only), in place.

    Fills the task's live-in/live-out sets, dynamic instruction count and
    termination flags, and advances its status to COMPLETED.  ``arch`` is
    never written.  A protected-region access aborts the task before the
    access happens (``task.protected_access``).

    ``tier`` selects the stepper: ``oracle`` defers every step to
    ``semantics.execute``; ``decoded`` (the default) and ``jit`` run the
    pre-decoded engine alike (the jit compiles only the master's
    regions).

    Without protected regions the decoded engine runs whole superstep
    chains wherever neither the budget nor the end pc falls inside one,
    checking the arrival once after the chain.  It runs the *recording*
    chains (:attr:`~repro.machine.decoded.DecodedProgram.recording_chains`)
    on the view's register list, written-flags and live-in dict: each
    records its span's register live-ins at entry and marks its writes
    at exit, exactly as :meth:`SlaveView.read_reg`/``write_reg`` would
    for a chain that cannot stop part-way; memory still records through
    the view.
    """
    view = SlaveView(task.checkpoint, arch, task.start_pc, regions=regions)
    decoded = decode(program, oracle=tier == "oracle")
    steppers = decoded.steppers
    size = decoded.size
    chains = (
        decoded.recording_chains
        if tier != "oracle" and regions is None else None
    )
    chain_spans = decoded.chain_spans
    chain_halts = decoded.chain_halts
    chain_loads = decoded.chain_loads
    regs = view.regs
    written = view._reg_written
    live_in = view.live_in_regs
    steps = 0
    loads = 0
    halted = False
    faulted = False
    overrun = False
    protected = False
    end_pc = task.end_pc
    # A chain may run only if the end pc is not strictly inside it; pc
    # is never below -1, so -1 stands for "no end pc" there.
    inside = -1 if end_pc is None else end_pc
    remaining_arrivals = max(1, task.end_arrivals)
    while True:
        pc = view.pc
        if not 0 <= pc < size:
            faulted = True
            break
        if chains is not None:
            n = chain_spans[pc]
            if steps + n < max_instrs and not pc < inside < pc + n:
                chains[pc](regs, view, written, live_in)
                loads += chain_loads[pc]
                if chain_halts[pc]:
                    steps += n - 1
                    halted = True
                    break
                steps += n
                if view.pc == end_pc:
                    remaining_arrivals -= 1
                    if remaining_arrivals == 0:
                        break
                continue
        try:
            effect = steppers[pc](view)
        except ProtectedAccessError:
            protected = True
            break
        if effect.halted:
            halted = True
            break
        steps += 1
        if effect.mem_addr is not None and not effect.is_store:
            loads += 1
        if end_pc is not None and view.pc == end_pc:
            remaining_arrivals -= 1
            if remaining_arrivals == 0:
                break
        if steps >= max_instrs:
            overrun = not halted
            break

    task.live_in_regs = view.live_in_regs
    task.live_in_mem = view.live_in_mem
    task.live_out_regs = view.live_out_regs()
    task.live_out_mem = view.live_out_mem()
    task.n_instrs = steps
    task.n_loads = loads
    task.end_state_pc = view.pc
    task.halted = halted
    task.faulted = faulted
    task.overrun = overrun
    task.protected_access = protected
    task.status = TaskStatus.COMPLETED
    return task
