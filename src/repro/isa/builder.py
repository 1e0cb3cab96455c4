"""Programmatic builder DSL for Z-ISA programs.

The workload suite constructs its programs with this builder rather than
with assembly text: it is less error-prone (labels are checked, registers
are validated at emission time) and composes well with Python control flow
for generating parameterized code.

Example::

    b = ProgramBuilder(name="countdown")
    b.li("r1", 100)
    b.label("loop")
    b.addi("r1", "r1", -1)
    b.bne("r1", "zero", "loop")
    b.halt()
    program = b.build()

Instruction-emitting methods are named after their mnemonics (``b.add``,
``b.lw``, ``b.beq``, ...) and are dispatched generically from the opcode
table: register operands accept names or numbers, and target/immediate
operands accept integers or label names (resolved at :meth:`build` time,
with data labels resolving to their word addresses).

Memory-operand convention: ``b.lw(rd, base, offset)`` and
``b.sw(rt, base, offset)``, mirroring ``lw rd, offset(base)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.errors import AssemblerError, IsaError
from repro.isa.instructions import (
    Format,
    Instruction,
    Opcode,
    OPCODES_BY_MNEMONIC,
)
from repro.isa.program import Program
from repro.isa.registers import RA, parse_register

#: Operand accepted for register slots: a name or a register number.
Reg = Union[str, int]

#: Operand accepted for immediate/target slots: an int or a label name.
Value = Union[str, int]

#: Default base word address of builder-allocated data.
DEFAULT_DATA_BASE = 0x10000


class ProgramBuilder:
    """Incrementally builds a Z-ISA :class:`Program`."""

    def __init__(self, name: str = "program", data_base: int = DEFAULT_DATA_BASE):
        self.name = name
        self._code: List[Instruction] = []
        self._pending: List[tuple] = []  # (index, field, label)
        self._labels: Dict[str, int] = {}
        self._data_labels: Dict[str, int] = {}
        self._memory: Dict[int, int] = {}
        self._data_cursor = data_base

    # -- labels and data -------------------------------------------------------

    @property
    def pc(self) -> int:
        """The pc the next emitted instruction will occupy."""
        return len(self._code)

    def label(self, name: str) -> "ProgramBuilder":
        """Bind ``name`` to the current pc."""
        if name in self._labels or name in self._data_labels:
            raise AssemblerError(f"duplicate label {name!r}")
        self._labels[name] = self.pc
        return self

    def alloc(self, name: str, values: Iterable[int]) -> int:
        """Allocate initialized words in the data section; returns the address."""
        return self._bind_data(name, list(values))

    def space(self, name: str, count: int) -> int:
        """Allocate ``count`` zeroed words; returns the address."""
        if count < 0:
            raise AssemblerError(f".space count must be >= 0, got {count}")
        return self._bind_data(name, [0] * count, materialize=False, count=count)

    def _bind_data(
        self,
        name: str,
        values: List[int],
        materialize: bool = True,
        count: Optional[int] = None,
    ) -> int:
        if name in self._labels or name in self._data_labels:
            raise AssemblerError(f"duplicate label {name!r}")
        address = self._data_cursor
        self._data_labels[name] = address
        length = count if count is not None else len(values)
        if materialize:
            for offset, value in enumerate(values):
                if value:
                    self._memory[address + offset] = value
        self._data_cursor += length
        return address

    def data_addr(self, name: str) -> int:
        """Address of a previously allocated data label."""
        if name not in self._data_labels:
            raise AssemblerError(f"unknown data label {name!r}")
        return self._data_labels[name]

    def poke(self, address: int, value: int) -> None:
        """Write one word directly into the initial memory image."""
        if value:
            self._memory[address] = value
        else:
            self._memory.pop(address, None)

    # -- generic instruction emission -------------------------------------------

    def __getattr__(self, mnemonic: str) -> Callable[..., "ProgramBuilder"]:
        """Dispatch ``b.<mnemonic>(...)`` for every opcode in the ISA.

        Mnemonics that collide with Python keywords are spelled with a
        trailing underscore (``b.and_``, ``b.or_``).
        """
        if mnemonic.endswith("_"):
            mnemonic = mnemonic[:-1]
        op = OPCODES_BY_MNEMONIC.get(mnemonic)
        if op is None:
            raise AttributeError(mnemonic)

        def emit(*operands) -> "ProgramBuilder":
            self._emit(op, operands)
            return self

        emit.__name__ = mnemonic
        return emit

    def _reg(self, operand: Reg) -> int:
        if isinstance(operand, int):
            return operand
        return parse_register(operand)

    def _value(self, operand: Value, index: int, field: str) -> Optional[int]:
        """Resolve an int now, or record a label fixup for build time."""
        if isinstance(operand, int):
            return operand
        self._pending.append((index, field, operand))
        return 0  # placeholder patched at build()

    def _emit(self, op: Opcode, operands: tuple) -> None:
        index = len(self._code)
        fmt = op.format
        try:
            if fmt == Format.R3:
                rd, rs, rt = operands
                instr = Instruction(
                    op=op, rd=self._reg(rd), rs=self._reg(rs), rt=self._reg(rt)
                )
            elif fmt == Format.I2:
                rd, rs, imm = operands
                instr = Instruction(
                    op=op, rd=self._reg(rd), rs=self._reg(rs),
                    imm=self._value(imm, index, "imm"),
                )
            elif fmt == Format.LI:
                rd, imm = operands
                instr = Instruction(
                    op=op, rd=self._reg(rd), imm=self._value(imm, index, "imm")
                )
            elif fmt == Format.MOV:
                rd, rs = operands
                instr = Instruction(op=op, rd=self._reg(rd), rs=self._reg(rs))
            elif fmt == Format.LOAD:
                rd, base, offset = operands
                instr = Instruction(
                    op=op, rd=self._reg(rd), rs=self._reg(base),
                    imm=self._value(offset, index, "imm"),
                )
            elif fmt == Format.STORE:
                rt, base, offset = operands
                instr = Instruction(
                    op=op, rt=self._reg(rt), rs=self._reg(base),
                    imm=self._value(offset, index, "imm"),
                )
            elif fmt == Format.BR:
                rs, rt, target = operands
                instr = Instruction(
                    op=op, rs=self._reg(rs), rt=self._reg(rt),
                    target=self._value(target, index, "target"),
                )
            elif fmt == Format.J:
                (target,) = operands
                instr = Instruction(
                    op=op, target=self._value(target, index, "target")
                )
            elif fmt == Format.JR:
                (rs,) = operands
                instr = Instruction(op=op, rs=self._reg(rs))
            else:
                if operands:
                    raise IsaError(f"{op.mnemonic} takes no operands")
                instr = Instruction(op=op)
        except ValueError as exc:
            raise AssemblerError(
                f"{op.mnemonic}: wrong operand count {len(operands)}"
            ) from exc
        self._code.append(instr)

    # -- macros ------------------------------------------------------------------

    def push(self, reg: Reg) -> "ProgramBuilder":
        """Push a register on the stack (sp pre-decrement convention)."""
        self.addi("sp", "sp", -1)
        self.sw(reg, "sp", 0)
        return self

    def pop(self, reg: Reg) -> "ProgramBuilder":
        """Pop the stack top into a register."""
        self.lw(reg, "sp", 0)
        self.addi("sp", "sp", 1)
        return self

    def call(self, label: Value) -> "ProgramBuilder":
        """Call a subroutine (``jal``; callee returns with :meth:`ret`)."""
        self.jal(label)
        return self

    def ret(self) -> "ProgramBuilder":
        """Return from a subroutine (``jr ra``)."""
        self.jr(RA)
        return self

    def comment(self, _text: str) -> "ProgramBuilder":
        """Structured no-op; keeps generator code self-documenting."""
        return self

    # -- finalization --------------------------------------------------------------

    def resolve(self, label: str) -> int:
        """Resolve a text or data label (only valid once bound)."""
        if label in self._labels:
            return self._labels[label]
        if label in self._data_labels:
            return self._data_labels[label]
        raise AssemblerError(f"undefined label {label!r}")

    def build(self, entry: Optional[Value] = None) -> Program:
        """Resolve all fixups and produce the immutable :class:`Program`.

        ``entry`` defaults to the ``main`` label when bound, else pc 0.
        """
        code = list(self._code)
        for index, field, label in self._pending:
            value = self.resolve(label)
            instr = code[index]
            if field == "target":
                code[index] = instr.with_target(value)
            else:
                code[index] = Instruction(
                    op=instr.op, rd=instr.rd, rs=instr.rs, rt=instr.rt,
                    imm=value, target=instr.target,
                )
        if entry is None:
            entry_pc = self._labels.get("main", 0)
        elif isinstance(entry, int):
            entry_pc = entry
        else:
            entry_pc = self.resolve(entry)
        symbols = dict(self._labels)
        symbols.update(self._data_labels)
        return Program(
            code=tuple(code), memory=dict(self._memory), entry=entry_pc,
            symbols=symbols, name=self.name,
        )


def stack_region(builder: ProgramBuilder, size: int = 4096,
                 base: int = 0x8000000) -> int:
    """Initialize ``sp`` convention: returns the initial stack-pointer value.

    The stack grows downward from ``base``; callers emit ``b.li('sp', value)``
    themselves so the initialization is visible in the program text.
    """
    del builder, size
    return base
