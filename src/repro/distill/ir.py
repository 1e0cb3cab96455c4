"""Mutable intermediate representation used by the distiller.

The distiller cannot operate on :class:`~repro.isa.program.Program`
directly — deleting instructions there would invalidate every pc-relative
branch.  Instead the original program is lifted into a block-structured IR
with *symbolic* control flow:

* a :class:`DBlock` per original basic block, named ``B<orig start pc>``;
* branch/jump targets rewritten to block names;
* explicit ``fallthrough`` successor names, so blocks can be deleted or
  reordered and the final layout re-materializes any jumps it needs;
* per-instruction provenance (``orig_pc``), which the value-specialization
  pass uses to consult the profile and the pc map uses to relate distilled
  and original locations.

``jal`` blocks carry a *physical adjacency* requirement: the return site
must be laid out immediately after the call so the link-register
arithmetic (``ra = pc + 1``) stays valid; layout enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set

from repro.analysis.cfg import ControlFlowGraph
from repro.errors import DistillError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program

#: Name of the synthesized trap block (a lone ``halt``) that absorbs
#: control transfers into deleted code.  Reaching it makes the master
#: halt early, which the MSSP engine treats as a misspeculation.
TRAP_BLOCK = "__trap__"


@dataclass
class DInstr:
    """One IR instruction: the instruction plus provenance and metadata."""

    instr: Instruction
    #: pc in the original program, or None for synthesized instructions.
    orig_pc: Optional[int] = None
    #: Register-use override (the FORK pseudo-use set for liveness).
    uses_override: Optional[FrozenSet[int]] = None

    def uses(self) -> FrozenSet[int]:
        if self.uses_override is not None:
            return self.uses_override
        return self.instr.uses()

    def defs(self) -> FrozenSet[int]:
        return self.instr.defs()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        origin = f"@{self.orig_pc}" if self.orig_pc is not None else "@syn"
        return f"DInstr({self.instr}{origin})"


@dataclass
class DBlock:
    """One IR basic block with symbolic successors."""

    name: str
    orig_start_pc: Optional[int]
    instrs: List[DInstr] = field(default_factory=list)
    #: Block control falls into when the last instruction does not
    #: unconditionally transfer (None at halt / unconditional ends).
    fallthrough: Optional[str] = None
    #: Layout must place ``fallthrough`` physically next (jal return site).
    requires_adjacent_fallthrough: bool = False

    @property
    def last(self) -> Optional[DInstr]:
        return self.instrs[-1] if self.instrs else None

    def successor_names(self, return_sites: List[str]) -> List[str]:
        """Symbolic successors (for IR-level liveness/reachability)."""
        names: List[str] = []
        last = self.last
        if last is not None:
            op = last.instr.op
            if op in (Opcode.J, Opcode.JAL) or last.instr.is_branch:
                target = last.instr.target
                if isinstance(target, str):
                    names.append(target)
            if op is Opcode.JR:
                names.extend(return_sites)
        if self.fallthrough is not None and self.fallthrough not in names:
            names.append(self.fallthrough)
        return names


@dataclass
class DistillIR:
    """The distiller's working representation of a whole program."""

    program: Program
    blocks: List[DBlock]
    entry_name: str
    #: Original return pcs of rewritten calls (jal -> li ra, <orig>; j),
    #: used by layout to build the master's jr translation map.
    call_return_pcs: List[int] = field(default_factory=list)

    def block(self, name: str) -> DBlock:
        for blk in self.blocks:
            if blk.name == name:
                return blk
        raise DistillError(f"no IR block named {name!r}")

    def block_names(self) -> Set[str]:
        return {blk.name for blk in self.blocks}

    def remove_blocks(self, names: Set[str]) -> None:
        """Delete blocks, retargeting dangling references to the trap.

        Deleting the entry block is refused; deleting a required-adjacent
        fallthrough (a ``jal`` return site whose call survives) is refused
        by the caller's protection sets, and double-checked here.
        """
        if self.entry_name in names:
            raise DistillError("cannot remove the entry block")
        survivors = [blk for blk in self.blocks if blk.name not in names]
        needs_trap = False
        for blk in survivors:
            if blk.fallthrough in names:
                if blk.requires_adjacent_fallthrough:
                    raise DistillError(
                        f"block {blk.name} requires deleted fallthrough "
                        f"{blk.fallthrough}"
                    )
                blk.fallthrough = TRAP_BLOCK
                needs_trap = True
            last = blk.last
            if last is not None and isinstance(last.instr.target, str):
                if last.instr.target in names:
                    last.instr = last.instr.with_target(TRAP_BLOCK)
                    needs_trap = True
        self.blocks = survivors
        if needs_trap and not any(b.name == TRAP_BLOCK for b in self.blocks):
            self.blocks.append(_make_trap_block())

    def return_site_names(self) -> List[str]:
        """Names of surviving return-site blocks (jr successors)."""
        existing = {blk.name for blk in self.blocks}
        return [
            block_name_for(pc)
            for pc in self.call_return_pcs
            if block_name_for(pc) in existing
        ]

    def reachable_names(self) -> Set[str]:
        """Block names reachable from the entry in the IR graph."""
        by_name = {blk.name: blk for blk in self.blocks}
        return_sites = self.return_site_names()
        seen: Set[str] = set()
        stack = [self.entry_name]
        while stack:
            name = stack.pop()
            if name in seen or name not in by_name:
                continue
            seen.add(name)
            stack.extend(by_name[name].successor_names(return_sites))
        return seen

    def instruction_count(self) -> int:
        return sum(len(blk.instrs) for blk in self.blocks)


def _make_trap_block() -> DBlock:
    return DBlock(
        name=TRAP_BLOCK,
        orig_start_pc=None,
        instrs=[DInstr(Instruction(op=Opcode.HALT))],
        fallthrough=None,
    )


def block_name_for(pc: int) -> str:
    return f"B{pc}"


def lift_to_ir(program: Program, cfg: ControlFlowGraph) -> DistillIR:
    """Lift ``program`` into the distiller IR using its CFG partition.

    Calls are rewritten for the distilled pc space: ``jal fn`` becomes
    ``li ra, <original return pc>`` + ``j fn``, so the master's link
    register always holds *original-program* addresses (what slaves will
    verify against architected state).  The master translates ``jr``
    targets back to distilled pcs through the pc map's jr table, which
    layout builds from ``call_return_pcs``.
    """
    from repro.isa.registers import RA

    size = len(program.code)
    leader_pcs = {blk.start for blk in cfg.blocks}
    blocks: List[DBlock] = []
    call_return_pcs: List[int] = []
    for cblock in cfg.blocks:
        dblock = DBlock(
            name=block_name_for(cblock.start), orig_start_pc=cblock.start
        )
        for offset, instr in enumerate(cblock.instructions):
            pc = cblock.start + offset
            if isinstance(instr.target, int) and instr.op is not Opcode.FORK:
                if instr.target not in leader_pcs:
                    raise DistillError(
                        f"pc {pc}: branch target {instr.target} is not a "
                        "block leader"
                    )
                instr = instr.with_target(block_name_for(instr.target))
            if instr.op is Opcode.JAL:
                return_pc = pc + 1
                call_return_pcs.append(return_pc)
                dblock.instrs.append(
                    DInstr(
                        instr=Instruction(op=Opcode.LI, rd=RA, imm=return_pc),
                        orig_pc=pc,
                    )
                )
                dblock.instrs.append(
                    DInstr(
                        instr=Instruction(op=Opcode.J, target=instr.target),
                        orig_pc=pc,
                    )
                )
            else:
                dblock.instrs.append(DInstr(instr=instr, orig_pc=pc))
        last = cblock.terminator
        falls = (
            not last.is_terminator or last.is_branch
        ) and cblock.end < size
        if last.op is Opcode.JAL:
            # The rewritten call ends in an unconditional j; control
            # returns to the fall-through block only via jr translation.
            dblock.fallthrough = None
        elif falls:
            dblock.fallthrough = block_name_for(cblock.end)
        blocks.append(dblock)
    return DistillIR(
        program=program, blocks=blocks,
        entry_name=block_name_for(cfg.entry_block.start),
        call_return_pcs=call_return_pcs,
    )
