"""Instruction set definition for the Z-ISA.

The Z-ISA is a small, regular RISC instruction set designed for this
reproduction.  It is word-oriented: memory is an array of 64-bit words
addressed by word index, and all registers are 64-bit.  Arithmetic wraps to
64-bit two's complement, division is trap-free (division by zero yields 0),
so every instruction is total — there are no architectural exceptions.

Instruction formats
-------------------

======  ========================  ==========================================
format  operands                  opcodes
======  ========================  ==========================================
R3      ``rd, rs, rt``            add sub mul div mod and or xor sll srl sra
                                  slt sle seq sne
I2      ``rd, rs, imm``           addi muli andi ori xori slli srli slti
LI      ``rd, imm``               li
MOV     ``rd, rs``                mov
LOAD    ``rd, imm(rs)``           lw
STORE   ``rt, imm(rs)``           sw
BR      ``rs, rt, target``        beq bne blt bge
J       ``target``                j jal fork
JR      ``rs``                    jr
N0      (none)                    halt nop
======  ========================  ==========================================

``fork`` is the MSSP-specific opcode: it appears only in *distilled*
programs, where its target is a program counter **in the original program**
at which the next task begins.  Under plain sequential execution ``fork``
behaves like ``nop``, so a distilled program is itself an ordinary runnable
Z-ISA program (this is how distilled dynamic path length is measured).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional, Union

from repro.errors import IsaError
from repro.isa.registers import check_register, register_name


class Format(enum.Enum):
    """Operand layout of an opcode."""

    R3 = "R3"
    I2 = "I2"
    LI = "LI"
    MOV = "MOV"
    LOAD = "LOAD"
    STORE = "STORE"
    BR = "BR"
    J = "J"
    JR = "JR"
    N0 = "N0"


class Opcode(enum.Enum):
    """All Z-ISA opcodes, each carrying its format and encoding number."""

    # R3 arithmetic / logic / compare
    ADD = ("add", Format.R3, 1)
    SUB = ("sub", Format.R3, 2)
    MUL = ("mul", Format.R3, 3)
    DIV = ("div", Format.R3, 4)
    MOD = ("mod", Format.R3, 5)
    AND = ("and", Format.R3, 6)
    OR = ("or", Format.R3, 7)
    XOR = ("xor", Format.R3, 8)
    SLL = ("sll", Format.R3, 9)
    SRL = ("srl", Format.R3, 10)
    SRA = ("sra", Format.R3, 11)
    SLT = ("slt", Format.R3, 12)
    SLE = ("sle", Format.R3, 13)
    SEQ = ("seq", Format.R3, 14)
    SNE = ("sne", Format.R3, 15)
    # I2 immediate forms
    ADDI = ("addi", Format.I2, 16)
    MULI = ("muli", Format.I2, 17)
    ANDI = ("andi", Format.I2, 18)
    ORI = ("ori", Format.I2, 19)
    XORI = ("xori", Format.I2, 20)
    SLLI = ("slli", Format.I2, 21)
    SRLI = ("srli", Format.I2, 22)
    SLTI = ("slti", Format.I2, 23)
    # constants and moves
    LI = ("li", Format.LI, 24)
    MOV = ("mov", Format.MOV, 25)
    # memory
    LW = ("lw", Format.LOAD, 26)
    SW = ("sw", Format.STORE, 27)
    # control
    BEQ = ("beq", Format.BR, 28)
    BNE = ("bne", Format.BR, 29)
    BLT = ("blt", Format.BR, 30)
    BGE = ("bge", Format.BR, 31)
    J = ("j", Format.J, 32)
    JAL = ("jal", Format.J, 33)
    JR = ("jr", Format.JR, 34)
    HALT = ("halt", Format.N0, 35)
    NOP = ("nop", Format.N0, 36)
    # MSSP task-boundary marker (distilled programs only)
    FORK = ("fork", Format.J, 37)

    def __init__(self, mnemonic: str, fmt: Format, number: int):
        self.mnemonic = mnemonic
        self.format = fmt
        self.number = number

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


#: Opcodes by mnemonic, for the assembler.
OPCODES_BY_MNEMONIC = {op.mnemonic: op for op in Opcode}

#: Opcodes by encoding number, for the decoder.
OPCODES_BY_NUMBER = {op.number: op for op in Opcode}

#: Conditional branches.
BRANCH_OPS = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE})

#: Opcodes that unconditionally redirect control flow.
JUMP_OPS = frozenset({Opcode.J, Opcode.JAL, Opcode.JR})

#: Opcodes that end a basic block.
TERMINATOR_OPS = BRANCH_OPS | JUMP_OPS | frozenset({Opcode.HALT})

#: A branch/jump target: a resolved pc, or a label before resolution.
Target = Union[int, str]


@dataclass(frozen=True)
class Instruction:
    """One Z-ISA instruction.

    Unused operand fields are ``None``.  ``target`` holds either a resolved
    program counter (``int``) or, transiently inside the assembler and the
    distiller's IR, a symbolic label (``str``).
    """

    op: Opcode
    rd: Optional[int] = None
    rs: Optional[int] = None
    rt: Optional[int] = None
    imm: Optional[int] = None
    target: Optional[Target] = None

    def __post_init__(self) -> None:
        fmt = self.op.format
        expectations = {
            Format.R3: ("rd", "rs", "rt"),
            Format.I2: ("rd", "rs", "imm"),
            Format.LI: ("rd", "imm"),
            Format.MOV: ("rd", "rs"),
            Format.LOAD: ("rd", "rs", "imm"),
            Format.STORE: ("rt", "rs", "imm"),
            Format.BR: ("rs", "rt", "target"),
            Format.J: ("target",),
            Format.JR: ("rs",),
            Format.N0: (),
        }[fmt]
        for field_name in ("rd", "rs", "rt", "imm", "target"):
            value = getattr(self, field_name)
            if field_name in expectations:
                if value is None:
                    raise IsaError(
                        f"{self.op.mnemonic}: missing operand {field_name!r}"
                    )
            elif value is not None:
                raise IsaError(
                    f"{self.op.mnemonic}: unexpected operand {field_name}={value!r}"
                )
        for field_name in ("rd", "rs", "rt"):
            value = getattr(self, field_name)
            if value is not None:
                check_register(value)
        if self.imm is not None and not isinstance(self.imm, int):
            raise IsaError(f"{self.op.mnemonic}: immediate must be int")
        if self.target is not None and not isinstance(self.target, (int, str)):
            raise IsaError(f"{self.op.mnemonic}: bad target {self.target!r}")

    # -- semantic classification -------------------------------------------

    @property
    def is_branch(self) -> bool:
        """True for conditional branches."""
        return self.op in BRANCH_OPS

    @property
    def is_jump(self) -> bool:
        """True for unconditional control transfers (``j``/``jal``/``jr``)."""
        return self.op in JUMP_OPS

    @property
    def is_terminator(self) -> bool:
        """True if this instruction ends a basic block."""
        return self.op in TERMINATOR_OPS

    @property
    def is_load(self) -> bool:
        return self.op is Opcode.LW

    @property
    def is_store(self) -> bool:
        return self.op is Opcode.SW

    def defs(self) -> FrozenSet[int]:
        """Registers written by this instruction."""
        fmt = self.op.format
        if fmt in (Format.R3, Format.I2, Format.LI, Format.MOV, Format.LOAD):
            return frozenset({self.rd})
        if self.op is Opcode.JAL:
            from repro.isa.registers import RA

            return frozenset({RA})
        return frozenset()

    def uses(self) -> FrozenSet[int]:
        """Registers read by this instruction."""
        fmt = self.op.format
        if fmt == Format.R3:
            return frozenset({self.rs, self.rt})
        if fmt in (Format.I2, Format.MOV, Format.LOAD, Format.JR):
            return frozenset({self.rs})
        if fmt == Format.STORE:
            return frozenset({self.rs, self.rt})
        if fmt == Format.BR:
            return frozenset({self.rs, self.rt})
        return frozenset()

    @property
    def has_side_effect(self) -> bool:
        """True if removing this instruction can change more than its def.

        Stores, control transfers, ``halt`` and ``fork`` are side-effecting;
        pure ALU ops, loads, moves and ``nop`` are not.
        """
        return (
            self.is_store
            or self.is_terminator
            or self.op in (Opcode.FORK, Opcode.JAL)
        )

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Render in canonical assembly syntax (targets rendered literally)."""
        op = self.op
        fmt = op.format
        r = register_name
        if fmt == Format.R3:
            return f"{op.mnemonic} {r(self.rd)}, {r(self.rs)}, {r(self.rt)}"
        if fmt == Format.I2:
            return f"{op.mnemonic} {r(self.rd)}, {r(self.rs)}, {self.imm}"
        if fmt == Format.LI:
            return f"{op.mnemonic} {r(self.rd)}, {self.imm}"
        if fmt == Format.MOV:
            return f"{op.mnemonic} {r(self.rd)}, {r(self.rs)}"
        if fmt == Format.LOAD:
            return f"{op.mnemonic} {r(self.rd)}, {self.imm}({r(self.rs)})"
        if fmt == Format.STORE:
            return f"{op.mnemonic} {r(self.rt)}, {self.imm}({r(self.rs)})"
        if fmt == Format.BR:
            return f"{op.mnemonic} {r(self.rs)}, {r(self.rt)}, {self.target}"
        if fmt == Format.J:
            return f"{op.mnemonic} {self.target}"
        if fmt == Format.JR:
            return f"{op.mnemonic} {r(self.rs)}"
        return op.mnemonic

    def __str__(self) -> str:
        return self.render()

    # -- rewriting helpers ---------------------------------------------------

    def with_target(self, target: Target) -> "Instruction":
        """A copy of this instruction with a different branch/jump target."""
        return Instruction(
            op=self.op, rd=self.rd, rs=self.rs, rt=self.rt, imm=self.imm,
            target=target,
        )


# -- convenience constructors used by the builder DSL and tests --------------

def r3(op: Opcode, rd: int, rs: int, rt: int) -> Instruction:
    return Instruction(op=op, rd=rd, rs=rs, rt=rt)


def i2(op: Opcode, rd: int, rs: int, imm: int) -> Instruction:
    return Instruction(op=op, rd=rd, rs=rs, imm=imm)


def li(rd: int, imm: int) -> Instruction:
    return Instruction(op=Opcode.LI, rd=rd, imm=imm)


def mov(rd: int, rs: int) -> Instruction:
    return Instruction(op=Opcode.MOV, rd=rd, rs=rs)


def lw(rd: int, imm: int, rs: int) -> Instruction:
    return Instruction(op=Opcode.LW, rd=rd, rs=rs, imm=imm)


def sw(rt: int, imm: int, rs: int) -> Instruction:
    return Instruction(op=Opcode.SW, rt=rt, rs=rs, imm=imm)


def branch(op: Opcode, rs: int, rt: int, target: Target) -> Instruction:
    return Instruction(op=op, rs=rs, rt=rt, target=target)


def jump(target: Target) -> Instruction:
    return Instruction(op=Opcode.J, target=target)


def jal(target: Target) -> Instruction:
    return Instruction(op=Opcode.JAL, target=target)


def jr(rs: int) -> Instruction:
    return Instruction(op=Opcode.JR, rs=rs)


def fork(target: Target) -> Instruction:
    return Instruction(op=Opcode.FORK, target=target)


def halt() -> Instruction:
    return Instruction(op=Opcode.HALT)


def nop() -> Instruction:
    return Instruction(op=Opcode.NOP)
