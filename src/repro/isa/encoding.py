"""Binary encoding of Z-ISA instructions.

Each instruction encodes to a fixed-size 128-bit word pair:

* high word (64 bits): ``opcode`` (8 bits) | ``rd`` (6) | ``rs`` (6) |
  ``rt`` (6) | 38 bits of zero padding.  Absent register operands encode
  as 0; the decoder knows from the opcode's format which fields are real.
* low word (64 bits): the immediate or resolved target, as a 64-bit two's
  complement value (0 when absent).

The encoding exists to pin down a concrete binary representation (it gives
programs a definite size in bytes, used by the timing model's checkpoint
accounting) and to support encode/decode round-trip testing.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.errors import IsaError
from repro.isa.instructions import (
    Format,
    Instruction,
    OPCODES_BY_NUMBER,
)

#: Size of one encoded instruction, in bytes.
INSTRUCTION_BYTES = 16

_MASK64 = (1 << 64) - 1


def _to_u64(value: int) -> int:
    """Two's complement 64-bit encoding of a Python int."""
    if not -(1 << 63) <= value < (1 << 63):
        raise IsaError(f"immediate {value} does not fit in 64 bits")
    return value & _MASK64


def _from_u64(value: int) -> int:
    """Inverse of :func:`_to_u64`."""
    return value - (1 << 64) if value >= (1 << 63) else value


def encode_instruction(instr: Instruction) -> Tuple[int, int]:
    """Encode one instruction to its (high, low) 64-bit word pair."""
    if isinstance(instr.target, str):
        raise IsaError(f"cannot encode unresolved target {instr.target!r}")
    high = (
        (instr.op.number << 56)
        | ((instr.rd or 0) << 50)
        | ((instr.rs or 0) << 44)
        | ((instr.rt or 0) << 38)
    )
    if instr.imm is not None:
        low = _to_u64(instr.imm)
    elif instr.target is not None:
        low = _to_u64(instr.target)
    else:
        low = 0
    return high, low


def decode_instruction(high: int, low: int) -> Instruction:
    """Decode a (high, low) word pair back into an :class:`Instruction`."""
    opnum = (high >> 56) & 0xFF
    if opnum not in OPCODES_BY_NUMBER:
        raise IsaError(f"unknown opcode number {opnum}")
    op = OPCODES_BY_NUMBER[opnum]
    rd = (high >> 50) & 0x3F
    rs = (high >> 44) & 0x3F
    rt = (high >> 38) & 0x3F
    value = _from_u64(low & _MASK64)
    fmt = op.format
    if fmt == Format.R3:
        return Instruction(op=op, rd=rd, rs=rs, rt=rt)
    if fmt == Format.I2:
        return Instruction(op=op, rd=rd, rs=rs, imm=value)
    if fmt == Format.LI:
        return Instruction(op=op, rd=rd, imm=value)
    if fmt == Format.MOV:
        return Instruction(op=op, rd=rd, rs=rs)
    if fmt == Format.LOAD:
        return Instruction(op=op, rd=rd, rs=rs, imm=value)
    if fmt == Format.STORE:
        return Instruction(op=op, rt=rt, rs=rs, imm=value)
    if fmt == Format.BR:
        return Instruction(op=op, rs=rs, rt=rt, target=value)
    if fmt == Format.J:
        return Instruction(op=op, target=value)
    if fmt == Format.JR:
        return Instruction(op=op, rs=rs)
    return Instruction(op=op)


def encode_program_words(code: Iterable[Instruction]) -> List[int]:
    """Encode a code sequence to a flat list of 64-bit words."""
    words: List[int] = []
    for instr in code:
        high, low = encode_instruction(instr)
        words.extend((high, low))
    return words


def decode_program_words(words: Iterable[int]) -> List[Instruction]:
    """Inverse of :func:`encode_program_words`."""
    words = list(words)
    if len(words) % 2:
        raise IsaError("encoded program has an odd number of words")
    return [
        decode_instruction(words[i], words[i + 1])
        for i in range(0, len(words), 2)
    ]


def code_size_bytes(code: Iterable[Instruction]) -> int:
    """Size of the encoded text section in bytes."""
    return sum(INSTRUCTION_BYTES for _ in code)
