"""Architected machine state for the Z-ISA.

:class:`ArchState` is the ISA-visible state the paper calls "architected
state": the values of all registers and memory cells, plus the program
counter.  In the MSSP machine this is the state held in the shared L2 and
updated only by the verify/commit unit; in the sequential reference model
it is simply the machine's state.

Memory is sparse, with unmapped addresses reading as zero, which matches
how the workloads are laid out (zero-initialized ``.space`` regions never
materialize).  It is a ``{word address: value}`` dict in *canonical
sparse form*: zero cells are absent, so dict equality is ISA-visible
equality.

The :class:`MemoryView` protocol documents the access interface the
interpreter core uses; the MSSP master and slave wrap it with overlay/
recording views (see :mod:`repro.mssp`) so a single implementation of the
instruction semantics serves every execution context.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Protocol, Tuple

from repro.isa.program import Program
from repro.isa.registers import NUM_REGS, ZERO

_MASK64 = (1 << 64) - 1


def wrap64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


class MachineStateLike(Protocol):
    """Access interface required by the instruction semantics.

    Implementations: :class:`ArchState` (direct), the MSSP master's
    write-cache view, and the MSSP slave's recording view.  ``regs`` is
    the state's own register list, which decoded superstep chains index
    directly; every implementation keeps ``regs[0] == 0``.
    """

    pc: int
    regs: List[int]

    def read_reg(self, index: int) -> int: ...

    def write_reg(self, index: int, value: int) -> None: ...

    def load(self, address: int) -> int: ...

    def store(self, address: int, value: int) -> None: ...


class ArchState:
    """Concrete architected state: 32 registers, sparse memory, and a pc."""

    __slots__ = ("regs", "mem", "pc")

    def __init__(
        self,
        regs: Optional[Iterable[int]] = None,
        mem: Optional[Mapping[int, int]] = None,
        pc: int = 0,
    ):
        regs_list = (
            [wrap64(v) for v in regs] if regs is not None else [0] * NUM_REGS
        )
        self.regs: List[int] = regs_list
        if len(self.regs) != NUM_REGS:
            raise ValueError(f"expected {NUM_REGS} registers")
        if regs_list[ZERO]:
            raise ValueError("r0 is hardwired to zero")
        self.mem: Dict[int, int] = (
            {a: v for a, v in mem.items() if v} if mem else {}
        )
        self.pc = pc

    @classmethod
    def initial(cls, program: Program) -> "ArchState":
        """The boot state for ``program``: zero registers, its data image."""
        return cls(mem=program.memory, pc=program.entry)

    # -- MachineStateLike ------------------------------------------------------

    def read_reg(self, index: int) -> int:
        return self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != ZERO:
            self.regs[index] = wrap64(value)

    def load(self, address: int) -> int:
        return self.mem.get(address, 0)

    def store(self, address: int, value: int) -> None:
        value = wrap64(value)
        if value:
            self.mem[address] = value
        else:
            # Canonical sparse form: zero cells are absent.  This keeps
            # state equality equivalent to ISA-visible equality.
            self.mem.pop(address, None)

    # -- copying / comparison ---------------------------------------------------

    def copy(self) -> "ArchState":
        """An independent deep copy.

        Checkpoint/snapshot hot path: bypasses ``__init__`` (whose
        generic constructors re-validate) and duplicates the slots with
        ``list.copy``/``dict.copy``.
        """
        clone = ArchState.__new__(ArchState)
        clone.regs = self.regs.copy()
        clone.mem = self.mem.copy()
        clone.pc = self.pc
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArchState):
            return NotImplemented
        return (
            self.pc == other.pc
            and self.regs == other.regs
            and self.mem == other.mem
        )

    def __hash__(self) -> int:  # states are mutable; identity hash is a trap
        raise TypeError("ArchState is unhashable")

    def diff(self, other: "ArchState") -> List[str]:
        """Human-readable differences from ``other`` (for test failures)."""
        issues: List[str] = []
        if self.pc != other.pc:
            issues.append(f"pc: {self.pc} != {other.pc}")
        for index in range(NUM_REGS):
            if self.regs[index] != other.regs[index]:
                issues.append(
                    f"r{index}: {self.regs[index]} != {other.regs[index]}"
                )
        addresses = set(self.mem) | set(other.mem)
        for address in sorted(addresses):
            mine = self.mem.get(address, 0)
            theirs = other.mem.get(address, 0)
            if mine != theirs:
                issues.append(f"mem[{address}]: {mine} != {theirs}")
        return issues

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {i: v for i, v in enumerate(self.regs) if v}
        return f"ArchState(pc={self.pc}, regs={nonzero}, |mem|={len(self.mem)})"

    # -- superimposition ----------------------------------------------------------

    def apply_delta(
        self,
        reg_writes: Mapping[int, int],
        mem_writes: Mapping[int, int],
        pc: Optional[int] = None,
    ) -> None:
        """Superimpose a write-set onto this state (the commit operation).

        This is the concrete form of the paper's superimposition operator
        ``S ← live_out(t)``: register and memory cells named by the write-set
        are overwritten, everything else is untouched, and the pc advances to
        the committed task's end.
        """
        for index, value in reg_writes.items():
            self.write_reg(index, value)
        for address, value in mem_writes.items():
            self.store(address, value)
        if pc is not None:
            self.pc = pc

    def snapshot_cells(
        self, reg_indices: Iterable[int], addresses: Iterable[int]
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Read the named cells (used by verification diagnostics)."""
        regs = {i: self.regs[i] for i in reg_indices}
        mem = {a: self.mem.get(a, 0) for a in addresses}
        return regs, mem

    def load_cells(self, addresses: Iterable[int]) -> Dict[int, int]:
        """Batched memory read: ``{address: value}`` for many cells.

        Used by the Redistiller to re-validate value-specialization
        sites against architected memory.
        """
        get = self.mem.get
        return {a: get(a, 0) for a in addresses}
