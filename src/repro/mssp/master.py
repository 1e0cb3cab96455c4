"""The master processor: executes the distilled program and emits forks.

The master is deliberately *untrusted*: nothing it computes reaches
architected state except through checkpoints whose every value is
verified before commit.  Accordingly this implementation bounds the
master instead of validating it — a master that runs off the distilled
text, hits a trap ``halt``, or fails to produce a fork within its budget
simply reports a terminal event and the engine falls back to
non-speculative recovery.

State model: at (re)start the master's registers and its view of memory
are seeded from architected state (the paper's post-squash reseeding).
Its stores accumulate in a private dirty map — the speculative L1 — and
each fork's checkpoint carries the full register file plus a copy of the
dirty map (the "values modified by the master" the paper ships to
slaves).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import MsspConfig
from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.machine.decoded import decode
from repro.machine.state import ArchState, wrap64
from repro.mssp.task import Checkpoint


class MasterEventKind(enum.Enum):
    FORK = "fork"
    HALT = "halt"
    TRAP = "trap"          # ran outside the distilled text
    TIMEOUT = "timeout"    # fork budget exhausted


@dataclass(slots=True)
class MasterEvent:
    """One terminal outcome of ``run_until_fork`` (built positionally,
    once per fork, and never mutated)."""

    kind: MasterEventKind
    #: Distilled instructions executed since the previous event.
    instrs: int
    #: Memory loads among ``instrs``.
    loads: int = 0
    #: FORK only: original-program pc at which the next task starts.
    anchor: Optional[int] = None
    #: FORK only: live-in prediction for that task.
    checkpoint: Optional[Checkpoint] = None
    #: FORK only: how many times the master arrived at the fork's anchor
    #: since the previous event.  A strided fork passes its anchor
    #: several times before firing; the closing task spans this many
    #: arrivals at its end pc.
    arrivals: int = 1
    #: FORK only: memory cells the master wrote since the *previous*
    #: fork (its per-fork store delta).  In ``cumulative`` checkpoint
    #: mode ``checkpoint.mem`` is the whole dirty map, so consecutive
    #: checkpoints satisfy ``mem_k == mem_{k-1} | mem_delta_k`` — the
    #: parallel runtime uses this identity to delta-encode checkpoint
    #: chains on the wire instead of shipping the cumulative map per
    #: task.
    mem_delta: Optional[Dict[int, int]] = None


class _Supersteps(dict):
    """pc -> ``(chain, length, arrivals, ends in halt)`` for the master's
    trace at pc cut before its first ``fork`` or ``jr`` (which the
    master intercepts), or ``None`` at a fork or jr: one lookup per
    trace.  ``arrivals`` pairs each arrival pc the cut trace spans with
    its anchor, in pc order.  An entry is built, and its chain
    compiled, at the pc's first entry, and serves every later run of
    the master."""

    __slots__ = ("decoded", "special", "arrival_pcs")

    def __init__(self, decoded, special: tuple, arrival_pcs: Dict[int, int]):
        super().__init__()
        self.decoded = decoded
        self.special = special
        self.arrival_pcs = arrival_pcs

    def __missing__(self, pc: int) -> Optional[tuple]:
        decoded = self.decoded
        special = self.special
        length = decoded.chain_spans[pc]
        n = next((i for i in range(length) if special[pc + i]), length)
        entry = self[pc] = None if not n else (
            decoded.chains[pc] if n == length else decoded.chains[pc, n],
            n,
            tuple(
                (p, self.arrival_pcs[p]) for p in range(pc, pc + n)
                if p in self.arrival_pcs
            ),
            n == length and decoded.chain_halts[pc],
        )
        return entry


class _MasterView:
    """MachineStateLike over (registers, dirty memory, restart snapshot).

    ``dirty`` holds every write since restart (the master's speculative
    L1); ``delta`` holds writes since the last fork, for delta-mode
    checkpoints.
    """

    __slots__ = ("pc", "regs", "dirty", "delta", "_base_mem")

    def __init__(self, arch: ArchState, pc: int):
        self.pc = pc
        self.regs: List[int] = list(arch.regs)
        self.regs[0] = 0
        self.dirty: Dict[int, int] = {}
        self.delta: Dict[int, int] = {}
        self._base_mem = dict(arch.mem)

    def read_reg(self, index: int) -> int:
        return self.regs[index] if index else 0

    def write_reg(self, index: int, value: int) -> None:
        if index:
            self.regs[index] = wrap64(value)

    def load(self, address: int) -> int:
        if address in self.dirty:
            return self.dirty[address]
        return self._base_mem.get(address, 0)

    def store(self, address: int, value: int) -> None:
        value = wrap64(value)
        self.dirty[address] = value
        self.delta[address] = value


class Master:
    """Drives the distilled program, yielding fork/halt/trap/timeout events."""

    def __init__(
        self,
        distilled: Program,
        config: MsspConfig,
        arrival_pcs: Optional[Dict[int, int]] = None,
        jr_table: Optional[Dict[int, int]] = None,
        tier: str = "decoded",
    ):
        self.distilled = distilled
        self.config = config
        #: distilled pc -> original anchor pc, for arrival counting.
        self.arrival_pcs = dict(arrival_pcs or {})
        #: original return pc -> distilled pc, for jr translation.  The
        #: distilled program keeps original-program code addresses in
        #: registers and memory (so they verify as live-ins); the master
        #: hardware maps them back into its own text on indirect jumps.
        self.jr_table = dict(jr_table or {})
        self._view: Optional[_MasterView] = None
        self._arrivals: Dict[int, int] = {}
        self.total_instrs = 0
        self.restarts = 0
        # Execution tier: ``oracle`` swaps the per-step stepper and runs
        # no traces.
        self._decoded = decode(distilled, oracle=tier == "oracle")
        # Per-pc dispatch for the two opcodes the master hardware
        # intercepts before execution: None for ordinary instructions,
        # (FORK, anchor) for forks, (JR, rs) for indirect jumps (whose
        # original-program return addresses translate through jr_table).
        self._special: tuple = tuple(
            (Opcode.FORK, int(instr.target))
            if instr.op is Opcode.FORK
            else (Opcode.JR, instr.rs)
            if instr.op is Opcode.JR
            else None
            for instr in distilled.code
        )
        self._supersteps = (
            _Supersteps(self._decoded, self._special, self.arrival_pcs)
            if tier == "decoded" else None
        )

    def restart(self, arch: ArchState, distilled_pc: int) -> None:
        """Reseed the master from architected state at ``distilled_pc``."""
        self._view = _MasterView(arch, distilled_pc)
        self._arrivals = {}
        self.restarts += 1

    def run_until_fork(self) -> MasterEvent:
        """Execute distilled code until the next fork or a terminal event."""
        event = self._run_to_event()
        self.total_instrs += event.instrs
        return event

    def _run_to_event(self) -> MasterEvent:
        view = self._view
        if view is None:
            raise RuntimeError("master.restart() must be called first")
        size = self._decoded.size
        steppers = self._decoded.steppers
        special = self._special
        budget = self.config.max_master_instrs_per_task
        arrival_pcs = self.arrival_pcs
        arrivals = self._arrivals
        supersteps = self._supersteps
        chain_loads = self._decoded.chain_loads
        regs = view.regs
        executed = 0
        loads = 0
        while True:
            pc = view.pc
            if not 0 <= pc < size:
                return MasterEvent(MasterEventKind.TRAP, executed, loads)
            if supersteps is not None:
                step = supersteps[pc]
                if step is not None and executed + step[1] < budget:
                    # A trace visits each pc it retires once: count the
                    # arrivals at those pcs.
                    chain, n, spanned, halts = step
                    k = chain(regs, view)
                    if spanned:
                        for arrival, anchor in spanned:
                            if arrival >= pc + k:
                                break
                            arrivals[anchor] = arrivals.get(anchor, 0) + 1
                    loads += chain_loads[pc + k] - chain_loads[pc]
                    if k == n and halts:
                        return MasterEvent(
                            MasterEventKind.HALT, executed + k - 1, loads
                        )
                    executed += k
                    continue
            if pc in arrival_pcs:
                anchor = arrival_pcs[pc]
                arrivals[anchor] = arrivals.get(anchor, 0) + 1
            dispatch = special[pc]
            if dispatch is None:
                effect = steppers[pc](view)
                if effect.halted:
                    return MasterEvent(MasterEventKind.HALT, executed, loads)
                if effect.mem_addr is not None and not effect.is_store:
                    loads += 1
            elif dispatch[0] is Opcode.FORK:
                view.pc = pc + 1
                # The store delta is handed over whole: the view starts a
                # fresh one for the next fork.
                delta = view.delta
                view.delta = {}
                if self.config.checkpoint_mode == "delta":
                    shipped = delta
                else:
                    shipped = dict(view.dirty)
                anchor = dispatch[1]
                count = max(1, arrivals.get(anchor, 0))
                self._arrivals = {}
                return MasterEvent(
                    MasterEventKind.FORK, executed + 1, loads, anchor,
                    Checkpoint(tuple(regs), shipped), count, delta,
                )
            else:  # JR: translate the original return pc into our text.
                target = self.jr_table.get(view.read_reg(dispatch[1]))
                if target is None:
                    return MasterEvent(MasterEventKind.TRAP, executed, loads)
                view.pc = target
            executed += 1
            if executed >= budget:
                return MasterEvent(MasterEventKind.TIMEOUT, executed, loads)

    def run_standalone(self, arch: ArchState, max_steps: int) -> int:
        """Run the distilled program to halt, forks as no-ops.

        Measures the distilled program's dynamic path length with jr
        translation active — the distillation-effectiveness numerator.
        Returns the executed instruction count; raises
        :class:`~repro.errors.StepLimitExceeded` past ``max_steps``.
        Runs the cut traces of :meth:`_run_to_event` wherever the budget
        cannot fall inside one, so the limit fires at the same
        instruction as the per-step loop.
        """
        from repro.errors import StepLimitExceeded

        view = _MasterView(arch, self.distilled.entry)
        size = self._decoded.size
        steppers = self._decoded.steppers
        special = self._special
        supersteps = self._supersteps
        regs = view.regs
        executed = 0
        while True:
            pc = view.pc
            if not 0 <= pc < size:
                return executed  # ran off the text: treat as terminated
            if supersteps is not None:
                step = supersteps[pc]
                if step is not None and executed + step[1] < max_steps:
                    chain, n, _arrivals, halts = step
                    k = chain(regs, view)
                    if k == n and halts:
                        return executed + k - 1
                    executed += k
                    continue
            dispatch = special[pc]
            if dispatch is not None and dispatch[0] is Opcode.JR:
                target = self.jr_table.get(view.read_reg(dispatch[1]))
                if target is None:
                    return executed
                view.pc = target
            else:  # forks execute as fall-through, everything else as-is
                if steppers[pc](view).halted:
                    return executed
            executed += 1
            if executed >= max_steps:
                raise StepLimitExceeded(max_steps)
