"""Pre-decoded execution engine: per-pc steppers and compiled chains.

:func:`repro.machine.semantics.execute` pays, on *every* step, two
opcode-table probes, a ladder of identity tests, five attribute loads on
:class:`~repro.isa.instructions.Instruction`, and a fresh
:class:`~repro.machine.semantics.StepEffect` allocation.  Those costs are
per *instruction executed*, but all of their inputs are per *instruction
decoded* — a program of a few hundred static instructions is stepped
tens of millions of times.

This module moves the decode cost to program-construction time.
:func:`decode` compiles each instruction once into a specialized
zero-argument-lookup closure: operands, immediates, branch targets, the
operator lambda, and the fall-through pc are captured as cell variables,
writes to the architectural ``ZERO`` register are folded out at decode
time, and the no-memory/no-branch common case returns interned singleton
effects so steady-state stepping allocates nothing.  Closures call the
``read_reg``/``write_reg``/``load``/``store`` methods of the state they
are handed, so the one decoded program serves every
:class:`~repro.machine.state.MachineStateLike` implementation — the
sequential machine, the MSSP master's write-cache view, and the slaves'
recording views — exactly as ``execute`` did.

Interned-effect contract
------------------------

``StepEffect`` objects returned by decoded steppers may be **shared
singletons**: callers must treat them as immutable and must not retain
them across steps (snapshot the fields instead).  Effects describing
memory accesses are freshly allocated (they carry per-step data), but
code must not rely on that.

Fall-through traces
-------------------

On top of the steppers, :class:`DecodedProgram` runs **fall-through
traces**: for every pc, the contiguous span from that pc through every
conditional branch up to the first ``j``/``jal``/``jr``/``halt``, the
first branch whose target is its own fall-through pc (no exit pc tells
its direction), or the end of the text.  Per-pc tables give the span's
length (``chain_spans``), whether it ends in ``halt`` (``chain_halts``),
the registers it reads before writing (``chain_reads``) and those it
writes (``chain_writes``); ``chain_loads`` is a per-text prefix count
of ``lw``.  ``chains[pc]`` is one generated Python function for the
whole span, ``chain(regs, state)``.  Each conditional branch that is
not the span's last instruction is a *side exit*, ``if cond:
state.pc = target; return k``; the function returns how many
instructions it retired, ``k`` at a side exit and the span's length
otherwise, so a chain from pc that returned ``k`` loaded
``chain_loads[pc + k] - chain_loads[pc]`` words and reached its
``halt`` only if ``k`` is the whole span.  It indexes the state's own
register list, range-checks every result and address inline
(``wrap64`` only on overflow), drops writes to ``r0``, and sends only
memory through ``state.load``/``state.store``.  Each memory op stores
its own pc first (the profiler attributes sites to ``state.pc``),
control transfers and ``halt`` store theirs, and a span that does not
end in a terminator stores its end pc.  ``chains[pc, n]`` is the same
trace cut to its first ``n`` instructions, for a consumer that must
stop inside one (the master before a ``fork`` or ``jr``, a slave
before its end pc, recovery before an anchor).  The sequential
:meth:`DecodedProgram.run`, the profiler, MSSP recovery and the MSSP
master run whole chains, falling back to exact per-step execution
near the step budget, so ``StepLimitExceeded`` (or an overrun or
timeout) fires at precisely the same instruction as the reference
loop.

The MSSP slave runs the *recording* variant,
``recording_chains[pc]``: ``chain(regs, state, written, live_in)``, the
same body with a generated prologue at the entry of each *segment*
(the span from the entry or from after a side exit to the next) and
marks before each segment's exit.  A segment's prologue records each
register of ``chain_reads`` first read in it that is neither marked in
``written`` nor already in ``live_in`` (``live_in[r] = regs[r]``, in
first-read order); its marks set ``written`` for each register of
``chain_writes`` first written in it.  A register the trace reads
before writing keeps its entry value until that first read, so the
variant records exactly what a recording view's
``read_reg``/``write_reg`` would, once per segment instead of on every
access, for whichever exit the trace takes.

The arithmetic and branch expressions come from one table
(``_LOCAL_R3``, ``_I2_OPS_TO_R3``, ``_BRANCH_EXPR``).

A chain compiles at its first entry, into a process-wide cache keyed by
its pc, its span's instructions, the text size and the variant, and
bounded by :data:`CHAIN_CACHE_LIMIT` entries (the oldest is evicted
first).  Texts that agree on a span share its function: a workload's
training and evaluation instances, and every rebuild of an engine over
the same program, compile nothing twice.  Evicting an entry never
changes a result: decodings keep the functions they already hold, and
a re-entered span compiles to the same code.  The oracle tier's chains
step ``semantics.execute`` over the span, leaving after its first taken
branch, and run no generated code.

Decodings are cached per family of :class:`~repro.isa.program.Program`
*objects* (identity, not value): the decodings are attached to the
program object, shared with every variant derived from it by
``with_memory``, ``updated_memory`` or ``with_name`` (same code tuple,
different data image or name), and die with the last of them.  A
workload's evaluation and training programs therefore decode once, and
so does a distilled program and its ``with_memory`` copy.  Separately
built programs with equal text decode separately.
``Program.__getstate__`` excludes the attachment so pickling and
deep-copying never see the closures.

``semantics.execute`` remains the semantic oracle; differential tests
(``tests/machine/test_decoded.py``) hold the two bit-identical, and
``repro lint`` re-checks every closure's decode metadata against its
source instruction and every trace against stepping its span to its
first taken branch (the ``DEC`` checks).
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidPcError, StepLimitExceeded
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import DECODINGS_ATTR, Program
from repro.isa.registers import RA, ZERO
from repro.machine.semantics import (
    _BRANCH_OPS,
    _I2_OPS,
    _R3_OPS,
    StepEffect,
    _div_trunc,
    _mod_trunc,
    execute,
)
from repro.machine.state import MachineStateLike, wrap64

#: A decoded instruction: mutates ``state`` and returns its effect.
Stepper = Callable[[MachineStateLike], StepEffect]

#: A trace: ``chain(regs, state)`` executes a span on ``regs``, the
#: state's own register list, up to its first taken side exit, and
#: returns how many instructions it retired.  The recording variant
#: takes ``(regs, state, written, live_in)`` (see the module docstring).
Chain = Callable[..., int]

#: A trace's ``(chain_reads, chain_writes)``: what a recording chain
#: records and marks, each register in the segment that first reads or
#: writes it.
SpanRegisters = Tuple[Tuple[int, ...], Tuple[int, ...]]

_MIN64 = -(1 << 63)
_MAX64 = (1 << 63) - 1
_MASK64 = (1 << 64) - 1

#: Interned singleton effects (see the interned-effect contract above).
EFFECT_FALL = StepEffect()
EFFECT_TAKEN = StepEffect(taken=True)
EFFECT_HALT = StepEffect(halted=True)

# Arithmetic expression templates over two operand expressions ``{a}``
# and ``{b}``.  Chains range-check every result, since a checkpoint may
# seed a slave's registers with values outside int64.
_LOCAL_R3: Dict[Opcode, str] = {
    Opcode.ADD: "{a} + {b}",
    Opcode.SUB: "{a} - {b}",
    Opcode.MUL: "{a} * {b}",
    Opcode.DIV: "dv({a}, {b})",
    Opcode.MOD: "md({a}, {b})",
    Opcode.AND: "{a} & {b}",
    Opcode.OR: "{a} | {b}",
    Opcode.XOR: "{a} ^ {b}",
    Opcode.SLL: "{a} << ({b} & 63)",
    Opcode.SRL: "({a} & %d) >> ({b} & 63)" % _MASK64,
    Opcode.SRA: "{a} >> ({b} & 63)",
    Opcode.SLT: "(1 if {a} < {b} else 0)",
    Opcode.SLE: "(1 if {a} <= {b} else 0)",
    Opcode.SEQ: "(1 if {a} == {b} else 0)",
    Opcode.SNE: "(1 if {a} != {b} else 0)",
}

#: Immediate forms: the register form whose expression they share.
_I2_OPS_TO_R3: Dict[Opcode, Opcode] = {
    Opcode.ADDI: Opcode.ADD,
    Opcode.MULI: Opcode.MUL,
    Opcode.ANDI: Opcode.AND,
    Opcode.ORI: Opcode.OR,
    Opcode.XORI: Opcode.XOR,
    Opcode.SLLI: Opcode.SLL,
    Opcode.SRLI: Opcode.SRL,
    Opcode.SLTI: Opcode.SLT,
}

#: Taken conditions of the conditional branches.
_BRANCH_EXPR: Dict[Opcode, str] = {
    Opcode.BEQ: "{a} == {b}",
    Opcode.BNE: "{a} != {b}",
    Opcode.BLT: "{a} < {b}",
    Opcode.BGE: "{a} >= {b}",
}

#: Globals bound into every generated chain's namespace.
_CODEGEN_GLOBALS = {"w": wrap64, "dv": _div_trunc, "md": _mod_trunc}

#: Compiled chains kept process-wide, at most (oldest evicted first).
CHAIN_CACHE_LIMIT = 4096

_chain_cache: Dict[tuple, Chain] = {}
_chain_cache_lock = threading.Lock()


def _decode_instruction(pc: int, instr: Instruction) -> Stepper:
    """Compile ``instr`` at ``pc`` into a stepper returning its
    :class:`StepEffect` (exact per-step execution on any state)."""
    op = instr.op
    nxt = pc + 1
    fn = _R3_OPS.get(op)
    if fn is not None:
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        if rd == ZERO:
            # The write is architecturally void; the reads still happen
            # (recording views observe them as live-ins).
            def step(state, rs=rs, rt=rt, nxt=nxt):
                state.read_reg(rs)
                state.read_reg(rt)
                state.pc = nxt
                return EFFECT_FALL
        else:
            def step(state, fn=fn, rd=rd, rs=rs, rt=rt, nxt=nxt):
                state.write_reg(
                    rd, fn(state.read_reg(rs), state.read_reg(rt))
                )
                state.pc = nxt
                return EFFECT_FALL
        return step
    fn = _I2_OPS.get(op)
    if fn is not None:
        rd, rs, imm = instr.rd, instr.rs, instr.imm
        if rd == ZERO:
            def step(state, rs=rs, nxt=nxt):
                state.read_reg(rs)
                state.pc = nxt
                return EFFECT_FALL
        else:
            def step(state, fn=fn, rd=rd, rs=rs, imm=imm, nxt=nxt):
                state.write_reg(rd, fn(state.read_reg(rs), imm))
                state.pc = nxt
                return EFFECT_FALL
        return step
    fn = _BRANCH_OPS.get(op)
    if fn is not None:
        rs, rt, target = instr.rs, instr.rt, instr.target

        def step(state, fn=fn, rs=rs, rt=rt, target=target, nxt=nxt):
            if fn(state.read_reg(rs), state.read_reg(rt)):
                state.pc = target
                return EFFECT_TAKEN
            state.pc = nxt
            return EFFECT_FALL
        return step
    if op is Opcode.LW:
        rd, rs, imm = instr.rd, instr.rs, instr.imm
        if rd == ZERO:
            def step(state, rs=rs, imm=imm, nxt=nxt):
                address = wrap64(state.read_reg(rs) + imm)
                value = state.load(address)
                state.pc = nxt
                return StepEffect(mem_addr=address, mem_value=value)
        else:
            def step(state, rd=rd, rs=rs, imm=imm, nxt=nxt):
                address = wrap64(state.read_reg(rs) + imm)
                value = state.load(address)
                state.write_reg(rd, value)
                state.pc = nxt
                return StepEffect(mem_addr=address, mem_value=value)
        return step
    if op is Opcode.SW:
        rs, rt, imm = instr.rs, instr.rt, instr.imm

        def step(state, rs=rs, rt=rt, imm=imm, nxt=nxt):
            address = wrap64(state.read_reg(rs) + imm)
            value = state.read_reg(rt)
            state.store(address, value)
            state.pc = nxt
            return StepEffect(
                mem_addr=address, mem_value=value, is_store=True
            )
        return step
    if op is Opcode.LI:
        rd, imm = instr.rd, instr.imm
        if rd == ZERO:
            def step(state, nxt=nxt):
                state.pc = nxt
                return EFFECT_FALL
        else:
            def step(state, rd=rd, imm=imm, nxt=nxt):
                state.write_reg(rd, imm)
                state.pc = nxt
                return EFFECT_FALL
        return step
    if op is Opcode.MOV:
        rd, rs = instr.rd, instr.rs
        if rd == ZERO:
            def step(state, rs=rs, nxt=nxt):
                state.read_reg(rs)
                state.pc = nxt
                return EFFECT_FALL
        else:
            def step(state, rd=rd, rs=rs, nxt=nxt):
                state.write_reg(rd, state.read_reg(rs))
                state.pc = nxt
                return EFFECT_FALL
        return step
    if op is Opcode.J:
        target = instr.target

        def step(state, target=target):
            state.pc = target
            return EFFECT_TAKEN
        return step
    if op is Opcode.JAL:
        target = instr.target

        def step(state, target=target, nxt=nxt):
            state.write_reg(RA, nxt)
            state.pc = target
            return EFFECT_TAKEN
        return step
    if op is Opcode.JR:
        rs = instr.rs

        def step(state, rs=rs):
            state.pc = state.read_reg(rs)
            return EFFECT_TAKEN
        return step
    if op is Opcode.HALT:
        def step(state):
            return EFFECT_HALT
        return step

    # NOP and FORK (a task marker, not a computation) fall through.
    def step(state, nxt=nxt):
        state.pc = nxt
        return EFFECT_FALL
    return step


def _ends_trace(pc: int, instr: Instruction) -> bool:
    """Whether a trace through ``instr`` at ``pc`` stops after it: an
    unconditional transfer, ``halt``, or a conditional branch whose
    target is its own fall-through pc."""
    return instr.is_terminator and not (
        instr.is_branch and instr.target != pc + 1
    )


def _segment_registers(
    span: Sequence[Instruction], registers: SpanRegisters
) -> Tuple[List[List[int]], List[List[int]]]:
    """Per segment of ``span`` (split after each side exit): the
    registers of ``registers``' reads first read in it, and of its
    writes first written in it, each in table order.  A register the
    span never reads (or writes) is left out, so a trace cut short
    records only what its own instructions access."""
    reads, writes = registers
    first_read: Dict[int, int] = {}
    first_write: Dict[int, int] = {}
    segment = 0
    last = len(span) - 1
    for i, instr in enumerate(span):
        for reg in (instr.rs, instr.rt):
            if reg is not None:
                first_read.setdefault(reg, segment)
        for reg in instr.defs():
            first_write.setdefault(reg, segment)
        if i < last and instr.is_branch:
            segment += 1
    records: List[List[int]] = [[] for _ in range(segment + 1)]
    marks: List[List[int]] = [[] for _ in range(segment + 1)]
    for reg in reads:
        if reg in first_read:
            records[first_read[reg]].append(reg)
    for reg in writes:
        if reg in first_write:
            marks[first_write[reg]].append(reg)
    return records, marks


def _chain_source(
    pc: int,
    span: Sequence[Instruction],
    recording: Optional[SpanRegisters] = None,
) -> str:
    """The source of the trace ``chain(regs, state)`` over ``span``, the
    instructions at ``pc`` onward, or with ``recording`` — the trace's
    ``(chain_reads, chain_writes)`` — of the recording variant
    ``chain(regs, state, written, live_in)`` (see the module
    docstring).  Both return the number of instructions retired."""
    last = len(span) - 1
    if recording is None:
        lines = ["def chain(regs, state):"]
        records = marks = None
    else:
        lines = ["def chain(regs, state, written, live_in):"]
        records, marks = _segment_registers(span, recording)
    emit = lines.append
    checked = f" if {_MIN64} <= {{0}} <= {_MAX64} else w({{0}})"

    def prologue(segment: int) -> None:
        if records is not None:
            lines.extend(
                f" if not written[{r}] and {r} not in live_in:"
                f" live_in[{r}] = regs[{r}]"
                for r in records[segment]
            )

    def mark(segment: int) -> None:
        if marks is not None and marks[segment]:
            emit(" " + " = ".join(f"written[{r}]" for r in marks[segment])
                 + " = True")

    def reg(r: int) -> str:
        # Every state keeps regs[0] == 0: read r0 as the constant.
        return "0" if r == ZERO else f"regs[{r}]"

    def result(rd: int, expr: str) -> None:
        emit(f" v = {expr}")
        emit(f" regs[{rd}] = v" + checked.format("v"))

    def address(rs: int, imm: int) -> str:
        if rs == ZERO:
            return str(wrap64(imm))
        emit(f" a = regs[{rs}] + {imm}" if imm else f" a = regs[{rs}]")
        return "a" + checked.format("a")

    segment = 0
    prologue(segment)
    for i, instr in enumerate(span):
        at = pc + i
        op = instr.op
        rd, rs, rt, imm = instr.rd, instr.rs, instr.rt, instr.imm
        r3 = _I2_OPS_TO_R3.get(op, op)
        if r3 in _LOCAL_R3:
            if rd != ZERO:
                b = repr(imm) if r3 is not op else reg(rt)
                result(rd, _LOCAL_R3[r3].format(a=reg(rs), b=b))
        elif op in _BRANCH_EXPR:
            cond = _BRANCH_EXPR[op].format(a=reg(rs), b=reg(rt))
            if i < last:
                # A side exit: the segment's marks, then leave if taken.
                mark(segment)
                emit(f" if {cond}: state.pc = {instr.target}; return {i + 1}")
                segment += 1
                prologue(segment)
            else:
                emit(f" state.pc = {instr.target} if {cond} else {at + 1}")
        elif op is Opcode.LW:
            addr = address(rs, imm)
            emit(f" state.pc = {at}")
            if rd == ZERO:
                emit(f" state.load({addr})")
            else:
                result(rd, f"state.load({addr})")
        elif op is Opcode.SW:
            addr = address(rs, imm)
            emit(f" state.pc = {at}")
            emit(f" state.store({addr}, {reg(rt)})")
        elif op is Opcode.LI:
            if rd != ZERO:
                emit(f" regs[{rd}] = {wrap64(imm)}")
        elif op is Opcode.MOV:
            if rd != ZERO:
                result(rd, reg(rs))
        elif op is Opcode.J:
            emit(f" state.pc = {instr.target}")
        elif op is Opcode.JAL:
            emit(f" regs[{RA}] = {at + 1}")
            emit(f" state.pc = {instr.target}")
        elif op is Opcode.JR:
            emit(f" state.pc = regs[{rs}]")
        elif op is Opcode.HALT:
            emit(f" state.pc = {at}")
        # NOP and FORK (a task marker, not a computation) do nothing.
    if not span[-1].is_terminator:
        emit(f" state.pc = {pc + len(span)}")
    mark(segment)
    emit(f" return {len(span)}")
    return "\n".join(lines) + "\n"


def _compile_chain(
    pc: int,
    span: Sequence[Instruction],
    recording: Optional[SpanRegisters] = None,
) -> Chain:
    namespace = dict(_CODEGEN_GLOBALS)
    source = _chain_source(pc, span, recording)
    exec(compile(source, f"<chain@{pc}>", "exec"), namespace)
    return namespace["chain"]


def _oracle_chain(span: Sequence[Instruction]) -> Chain:
    """A trace that steps ``span`` through ``semantics.execute``,
    leaving after its first taken branch.  It takes the recording
    variant's arguments too and ignores them: on a recording view,
    ``execute``'s own register accesses record."""
    def chain(regs, state, *recording):
        for retired, instr in enumerate(span, 1):
            if execute(instr, state).taken:
                return retired
        return len(span)
    return chain


def _decode_meta(pc: int, instr: Instruction) -> Tuple:
    """The decode-time facts baked into ``instr``'s closure.

    ``repro lint``'s ``DEC002`` check recomputes this tuple from the
    source instruction and compares; any drift between decoder and ISA
    is a lint error before it is a silent misexecution.
    """
    return (
        instr.op.name,
        instr.rd,
        instr.rs,
        instr.rt,
        instr.imm,
        instr.target,
        pc + 1,
        ZERO if instr.rd == ZERO else None,
    )


class ChainTable(dict):
    """pc -> the trace from pc, and ``(pc, n)`` -> the trace cut to its
    first ``n`` instructions (the recording variant with
    ``recording``), compiled through the process-wide cache at the
    key's first entry.

    Callers index only spans they are about to run, so a pc that is
    never entered is never compiled.
    """

    __slots__ = ("decoded", "recording")

    def __init__(self, decoded: "DecodedProgram", recording: bool = False):
        super().__init__()
        self.decoded = decoded
        self.recording = recording

    def __missing__(self, key) -> Chain:
        decoded = self.decoded
        pc, n = (
            (key, decoded.chain_spans[key]) if key.__class__ is int else key
        )
        chain = self[key] = decoded.compile_span(pc, n, self.recording)
        return chain


class DecodedProgram:
    """A :class:`Program` compiled to per-pc closures and fall-through
    traces.

    It depends only on the program's code, and serves every program
    with that code.  Obtain instances through :func:`decode` (which
    caches one per program family); direct construction is for tests
    and the lint checks.  With ``oracle=True`` every closure and chain
    defers to :func:`~repro.machine.semantics.execute` — bitwise the
    reference semantics, used by differential tests to hold the fast
    path and the oracle against each other through identical plumbing.
    """

    __slots__ = (
        "code", "size", "steppers", "chains", "recording_chains",
        "chain_spans", "chain_halts", "chain_loads", "chain_reads",
        "chain_writes", "meta", "oracle",
    )

    def __init__(self, program: Program, oracle: bool = False):
        self.code = program.code
        self.size = len(program.code)
        self.oracle = oracle
        if oracle:
            self.steppers: Tuple[Stepper, ...] = tuple(
                lambda state, instr=instr: execute(instr, state)
                for instr in self.code
            )
        else:
            self.steppers = tuple(
                _decode_instruction(pc, instr)
                for pc, instr in enumerate(self.code)
            )
        self.meta: Tuple[Tuple, ...] = tuple(
            _decode_meta(pc, instr) for pc, instr in enumerate(self.code)
        )
        self._build_chains()
        self.chains = ChainTable(self)
        self.recording_chains = ChainTable(self, recording=True)

    def _build_chains(self) -> None:
        """Per-pc facts of the fall-through traces.

        ``chain_spans[pc]`` counts the instructions from pc through the
        first instruction at or after it that ends a trace (or the end
        of the text); ``chain_halts[pc]`` marks traces that end in
        ``halt``.  ``chain_loads[p]`` counts the ``lw`` in the first
        ``p`` instructions of the text (``size + 1`` entries), so the
        loads of any run of instructions are one difference.
        ``chain_reads[pc]`` lists the registers the trace reads before
        writing them (r0 excluded) in first-read order, operands in
        evaluation order (``rs`` before ``rt``); ``chain_writes[pc]``
        the registers it writes, in first-write order: the recording
        chains take a segment's live-ins once at its entry instead of
        on every access.  Entry at any pc is legal — spans are
        suffixes, so branch targets into a trace's middle get their
        own (shorter) chain.
        """
        code = self.code
        size = self.size
        spans: List[int] = [0] * size
        halts: List[bool] = [False] * size
        loads: List[int] = [0] * (size + 1)
        reads: List[Tuple[int, ...]] = [()] * size
        writes: List[Tuple[int, ...]] = [()] * size
        for pc, instr in enumerate(code):
            loads[pc + 1] = loads[pc] + (instr.op is Opcode.LW)
        end = size
        halt = False
        span_reads: Tuple[int, ...] = ()
        span_writes: Tuple[int, ...] = ()
        for pc in range(size - 1, -1, -1):
            instr = code[pc]
            if _ends_trace(pc, instr):
                end = pc + 1
                halt = instr.op is Opcode.HALT
                span_reads = span_writes = ()
            spans[pc] = end - pc
            halts[pc] = halt
            written = instr.defs() - {ZERO}
            own = tuple(dict.fromkeys(
                r for r in (instr.rs, instr.rt) if r is not None and r != ZERO
            ))
            span_reads = own + tuple(
                r for r in span_reads if r not in written and r not in own
            )
            span_writes = tuple(written) + tuple(
                r for r in span_writes if r not in written
            )
            reads[pc] = span_reads
            writes[pc] = span_writes
        self.chain_spans: Tuple[int, ...] = tuple(spans)
        self.chain_halts: Tuple[bool, ...] = tuple(halts)
        self.chain_loads: Tuple[int, ...] = tuple(loads)
        self.chain_reads: Tuple[Tuple[int, ...], ...] = tuple(reads)
        self.chain_writes: Tuple[Tuple[int, ...], ...] = tuple(writes)

    def compile_span(self, pc: int, n: int, recording: bool = False) -> Chain:
        """The trace over the ``n`` instructions from ``pc`` (at most
        ``chain_spans[pc]``); with ``recording``, its recording variant.

        Generated chains come from the process-wide cache, keyed by the
        pc, the text size, the span's decode records
        (:func:`_decode_meta`: the instructions' fields, which hash
        without a Python call per instruction) and the variant; a miss
        compiles.  Two threads that miss together both compile, and
        both get a correct chain.
        """
        span = self.code[pc:pc + n]
        if self.oracle:
            return _oracle_chain(span)
        key = (pc, self.size, self.meta[pc:pc + n], recording)
        chain = _chain_cache.get(key)
        if chain is None:
            chain = _compile_chain(pc, span, (
                (self.chain_reads[pc], self.chain_writes[pc]) if recording
                else None
            ))
            with _chain_cache_lock:
                if (
                    key not in _chain_cache
                    and len(_chain_cache) >= CHAIN_CACHE_LIMIT
                ):
                    del _chain_cache[next(iter(_chain_cache))]
                chain = _chain_cache.setdefault(key, chain)
        return chain

    # -- stepping -----------------------------------------------------------

    def step(self, state: MachineStateLike) -> StepEffect:
        """Execute one instruction at ``state.pc`` (bounds-checked)."""
        pc = state.pc
        if not 0 <= pc < self.size:
            raise InvalidPcError(pc, self.size)
        return self.steppers[pc](state)

    def run(
        self,
        state: MachineStateLike,
        max_steps: int,
        observer=None,
    ) -> Tuple[int, bool]:
        """Advance ``state`` until halt; returns ``(steps, halted)``.

        Matches the reference loop instruction-for-instruction: the halt
        is executed (and observed) but not counted, and
        :class:`~repro.errors.StepLimitExceeded` raises exactly when the
        ``max_steps``-th non-halt instruction retires.  With no observer
        attached, whole traces execute without per-step pc checks or
        effect allocation.
        """
        if observer is not None:
            return self._step_loop(state, 0, max_steps, observer)
        chains = self.chains
        spans = self.chain_spans
        chain_halts = self.chain_halts
        size = self.size
        regs = state.regs
        steps = 0
        while True:
            pc = state.pc
            if not 0 <= pc < size:
                raise InvalidPcError(pc, size)
            n = spans[pc]
            if steps + n < max_steps:
                k = chains[pc](regs, state)
                if k == n and chain_halts[pc]:
                    return steps + k - 1, True
                steps += k
            else:
                # Near the budget boundary: step exactly, so the limit
                # fires at the same instruction as the reference loop.
                return self._step_loop(state, steps, max_steps, None)

    def _step_loop(
        self,
        state: MachineStateLike,
        steps: int,
        max_steps: int,
        observer,
    ) -> Tuple[int, bool]:
        code = self.code
        steppers = self.steppers
        size = self.size
        while True:
            pc = state.pc
            if not 0 <= pc < size:
                raise InvalidPcError(pc, size)
            effect = steppers[pc](state)
            if effect.halted:
                # Observed (profilers must see halt blocks execute) but
                # not counted: a halted state is a fixed point.
                if observer is not None:
                    observer(pc, code[pc], effect, state)
                return steps, True
            steps += 1
            if observer is not None:
                observer(pc, code[pc], effect, state)
            if steps >= max_steps:
                raise StepLimitExceeded(max_steps)


#: The execution tiers.  ``oracle`` dispatches every step through
#: :func:`repro.machine.semantics.execute` (the semantic reference),
#: ``decoded`` runs the pre-decoded steppers and compiled chains.
EXEC_TIERS = ("oracle", "decoded")
_EXEC_ENV = "REPRO_EXEC"


def resolve_exec_tier(explicit: Optional[str] = None) -> str:
    """The effective execution tier: explicit > ``REPRO_EXEC`` > decoded."""
    tier = explicit
    if tier is None:
        tier = os.environ.get(_EXEC_ENV, "").strip().lower() or "decoded"
    if tier not in EXEC_TIERS:
        raise ValueError(
            f"unknown execution tier {tier!r}: expected one of {EXEC_TIERS}"
        )
    return tier


def decode(program: Program, oracle: bool = False) -> DecodedProgram:
    """The (cached) decoding of ``program``.

    One decoding per mode is kept per program family: the object and
    the variants derived from it (``Program.with_memory``,
    ``updated_memory``, ``with_name``), which share its code tuple and
    its cache entry.  A separately built Program with equal contents
    decodes separately (sharing its compiled chains through the chain
    cache), and re-decoding after mutation is impossible because
    programs are frozen.  The cache entry lives in the programs'
    ``__dict__`` (excluded from pickling by ``Program.__getstate__``),
    so invalidation is garbage collection.
    """
    cache = program.__dict__.get(DECODINGS_ATTR)
    if cache is None:
        cache = {}
        object.__setattr__(program, DECODINGS_ATTR, cache)
    decoded = cache.get(oracle)
    if decoded is None:
        decoded = DecodedProgram(program, oracle=oracle)
        cache[oracle] = decoded
    return decoded
