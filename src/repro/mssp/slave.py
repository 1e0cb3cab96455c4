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
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ProtectedAccessError
from repro.isa.program import Program
from repro.machine.decoded import decode
from repro.machine.jit import EXIT_ARRIVAL, EXIT_HALT, jit_for
from repro.machine.state import ArchState, wrap64
from repro.mssp.regions import ProtectedRegions
from repro.mssp.task import Checkpoint, Task, TaskStatus


class SlaveView:
    """MachineStateLike view implementing the recording rules above.

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

    def run_chain(
        self, chain: Sequence[Callable], reads: Sequence[int],
        writes: Sequence[int],
    ) -> None:
        """Run a superstep chain on :attr:`regs`, recording like ``read_reg``.

        ``reads`` (first-read order, r0 excluded) are recorded before the
        chain runs and ``writes`` marked written after it.  That is exact
        only for a chain that cannot stop part-way: no protected regions,
        and neither budget nor end pc inside it.
        """
        regs = self.regs
        written = self._reg_written
        live_in = self.live_in_regs
        for r in reads:
            if not written[r] and r not in live_in:
                live_in[r] = regs[r]
        for fn in chain:
            fn(regs, self)
        for r in writes:
            written[r] = True

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
        return {
            index: value
            for index, value in enumerate(self.regs)
            if self._reg_written[index]
        }

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
    ``semantics.execute``, ``decoded`` (the default) runs the pre-decoded
    closures, ``jit`` runs compiled superblocks over the same recording
    view with deopt back to the per-step path.  The jit tier deopts
    entirely when protected regions are configured (a mid-region
    :class:`~repro.errors.ProtectedAccessError` would lose the region's
    pending step accounting) or when the task's end pc is not a block
    leader (superblocks only check arrivals at leaders) — in both cases
    execution is exactly the decoded per-step loop, so results stay
    bit-identical by construction.

    The decoded tier without protected regions runs whole superstep
    chains wherever neither the budget nor the end pc falls inside one,
    checking the arrival once after the chain.  :meth:`SlaveView.run_chain`
    runs it on the view's register list, recording its ``chain_reads``
    once at entry and marking its ``chain_writes`` after; memory still
    records through the view.
    """
    view = SlaveView(task.checkpoint, arch, task.start_pc, regions=regions)
    decoded = decode(program, oracle=tier == "oracle")
    steppers = decoded.steppers
    size = decoded.size
    chains = decoded.chains if tier == "decoded" and regions is None else None
    chain_halts = decoded.chain_halts
    chain_loads = decoded.chain_loads
    chain_reads = decoded.chain_reads
    chain_writes = decoded.chain_writes
    run_chain = view.run_chain
    steps = 0
    loads = 0
    halted = False
    faulted = False
    overrun = False
    protected = False
    end_pc = task.end_pc
    remaining_arrivals = max(1, task.end_arrivals)
    jp = None
    if tier == "jit" and regions is None:
        candidate = jit_for(program, "view")
        if end_pc is None or end_pc in candidate.leaders:
            jp = candidate
    while True:
        pc = view.pc
        if not 0 <= pc < size:
            faulted = True
            break
        if jp is not None:
            region = jp.region_for(pc)
            if region is not None and steps + region.linear_len < max_instrs:
                steps, loads, remaining_arrivals, status = region.fn(
                    view, steps, loads, max_instrs, end_pc,
                    remaining_arrivals, None, 0,
                )
                if status == EXIT_HALT:
                    halted = True
                    break
                if status == EXIT_ARRIVAL:
                    break
                continue  # EXIT_RUN: pc synced; retry dispatch there.
        if chains is not None:
            chain = chains[pc]
            n = len(chain)
            if steps + n < max_instrs and not (
                end_pc is not None and pc < end_pc < pc + n
            ):
                run_chain(chain, chain_reads[pc], chain_writes[pc])
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
