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

Superstep chains
----------------

On top of the steppers, :class:`DecodedProgram` runs **basic-block
supersteps**: for every pc, the straight-line span from that pc to its
block terminator, with its length (``chain_spans``), halt flag, load
count, and the registers it reads before writing (``chain_reads``) and
writes (``chain_writes``).  ``chains[pc]`` is one generated Python
function, ``chain(regs, state)``, for the whole span.  It indexes the
state's own register list, range-checks every result and address inline
(``wrap64`` only on overflow), drops writes to ``r0``, and sends only
memory through ``state.load``/``state.store``.  Each memory op stores
its own pc first (the profiler attributes sites to ``state.pc``),
control transfers and ``halt`` store theirs, and a span that does not
end in a terminator stores its end pc.  The sequential
:meth:`DecodedProgram.run`, the profiler, MSSP recovery and the MSSP
master run whole chains, falling back to exact per-step execution
wherever a step boundary could fall inside one — near the step budget,
so ``StepLimitExceeded`` (or an overrun or timeout) fires at precisely
the same instruction as the reference loop.

The MSSP slave runs the *recording* variant,
``recording_chains[pc]``: ``chain(regs, state, written, live_in)``, the
same body between a generated prologue and epilogue.  The prologue
records each register of ``chain_reads`` that is neither marked in
``written`` nor already in ``live_in`` (``live_in[r] = regs[r]``, in
first-read order); the epilogue marks every register of
``chain_writes`` in ``written``.  A span reads its ``chain_reads``
before writing them, so their values at entry are the values its first
reads see: the variant records exactly what a recording view's
``read_reg``/``write_reg`` would, once per chain instead of on every
access, and is exact for any chain that runs to its end.

The arithmetic and branch expressions come from one table
(``_LOCAL_R3``, ``_I2_OPS_TO_R3``, ``_BRANCH_EXPR``).

A chain compiles at its first entry, into a process-wide cache keyed by
its pc, its span's instructions and the text size, and bounded by
:data:`CHAIN_CACHE_LIMIT` entries (the oldest is evicted first).  Texts
that agree on a span share its function: a workload's training and
evaluation instances, and every rebuild of an engine over the same
program, compile nothing twice.  Evicting an entry never changes a
result: decodings keep the functions they already hold, and a
re-entered span compiles to the same code.  The oracle tier's chains
step ``semantics.execute`` and run no generated code.

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
source instruction and every chain against stepping its span (the
``DEC`` checks).
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

#: A superstep chain: ``chain(regs, state)`` executes a whole span on
#: ``regs``, the state's own register list.  The recording variant takes
#: ``(regs, state, written, live_in)`` (see the module docstring).
Chain = Callable[..., None]

#: A span's ``(chain_reads, chain_writes)``: what a recording chain
#: records at entry and marks at exit.
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


def _chain_source(
    pc: int,
    span: Sequence[Instruction],
    recording: Optional[SpanRegisters] = None,
) -> str:
    """The source of ``chain(regs, state)`` for ``span``, the
    instructions at ``pc`` onward, or with ``recording`` — the span's
    ``(chain_reads, chain_writes)`` — of the recording variant
    ``chain(regs, state, written, live_in)`` (see the module
    docstring)."""
    if recording is None:
        lines = ["def chain(regs, state):"]
    else:
        lines = ["def chain(regs, state, written, live_in):"]
        lines += [
            f" if not written[{r}] and {r} not in live_in:"
            f" live_in[{r}] = regs[{r}]"
            for r in recording[0]
        ]
    emit = lines.append
    checked = f" if {_MIN64} <= {{0}} <= {_MAX64} else w({{0}})"

    def result(rd: int, expr: str) -> None:
        emit(f" v = {expr}")
        emit(f" regs[{rd}] = v" + checked.format("v"))

    def address(rs: int, imm: int) -> str:
        emit(f" a = regs[{rs}] + {imm}" if imm else f" a = regs[{rs}]")
        return "a" + checked.format("a")

    for at, instr in enumerate(span, pc):
        op = instr.op
        rd, rs, rt, imm = instr.rd, instr.rs, instr.rt, instr.imm
        r3 = _I2_OPS_TO_R3.get(op, op)
        if r3 in _LOCAL_R3:
            if rd != ZERO:
                b = repr(imm) if r3 is not op else f"regs[{rt}]"
                result(rd, _LOCAL_R3[r3].format(a=f"regs[{rs}]", b=b))
        elif op in _BRANCH_EXPR:
            cond = _BRANCH_EXPR[op].format(a=f"regs[{rs}]", b=f"regs[{rt}]")
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
            emit(f" state.store({addr}, regs[{rt}])")
        elif op is Opcode.LI:
            if rd != ZERO:
                emit(f" regs[{rd}] = {wrap64(imm)}")
        elif op is Opcode.MOV:
            if rd != ZERO:
                result(rd, f"regs[{rs}]")
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
    if recording is not None and recording[1]:
        marks = " = ".join(f"written[{r}]" for r in recording[1])
        emit(f" {marks} = True")
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
    """A chain that steps ``span`` through ``semantics.execute``.  It
    takes the recording variant's arguments too and ignores them: on a
    recording view, ``execute``'s own register accesses record."""
    def chain(regs, state, *recording):
        for instr in span:
            execute(instr, state)
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
    """pc -> the chain over ``spans[pc]`` instructions from pc (the
    recording variant with ``recording``), compiled through the
    process-wide cache at the pc's first entry.

    Callers index only pcs whose span they are about to run, so a pc
    that is never entered is never compiled.
    """

    __slots__ = ("decoded", "spans", "recording")

    def __init__(
        self,
        decoded: "DecodedProgram",
        spans: Tuple[int, ...],
        recording: bool = False,
    ):
        super().__init__()
        self.decoded = decoded
        self.spans = spans
        self.recording = recording

    def __missing__(self, pc: int) -> Chain:
        chain = self[pc] = self.decoded.compile_span(
            pc, self.spans[pc], self.recording
        )
        return chain


class DecodedProgram:
    """A :class:`Program` compiled to per-pc closures and superstep chains.

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
        self.chains = ChainTable(self, self.chain_spans)
        self.recording_chains = ChainTable(
            self, self.chain_spans, recording=True
        )

    def _build_chains(self) -> None:
        """Per-pc facts of the straight-line spans ending at terminators.

        ``chain_spans[pc]`` counts the instructions from pc through the
        first terminator at or after it (or the end of the text);
        ``chain_halts[pc]`` marks spans whose terminator is ``halt``, and
        ``chain_loads[pc]`` counts their ``lw`` instructions.
        ``chain_reads[pc]`` lists the registers the span reads before
        writing them (r0 excluded) in first-read order, operands in
        evaluation order (``rs`` before ``rt``); ``chain_writes[pc]``
        the registers it writes: the recording chains take a chain's
        live-ins once at entry instead of on every access.  Entry at any
        pc is legal — spans are suffixes, so branch targets into block
        middles get their own (shorter) chain.
        """
        code = self.code
        size = self.size
        spans: List[int] = [0] * size
        halts: List[bool] = [False] * size
        loads: List[int] = [0] * size
        reads: List[Tuple[int, ...]] = [()] * size
        writes: List[Tuple[int, ...]] = [()] * size
        end = size
        halt = False
        count = 0
        span_reads: Tuple[int, ...] = ()
        span_writes: Tuple[int, ...] = ()
        for pc in range(size - 1, -1, -1):
            instr = code[pc]
            if instr.is_terminator:
                end = pc + 1
                halt = instr.op is Opcode.HALT
                count = 0
                span_reads = span_writes = ()
            count += instr.op is Opcode.LW
            spans[pc] = end - pc
            halts[pc] = halt
            loads[pc] = count
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
        """The chain over the ``n`` instructions from ``pc``; with
        ``recording``, the recording variant over ``pc``'s whole chain
        (``n`` must be ``chain_spans[pc]``).

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
        attached, whole basic blocks execute as supersteps without
        per-step pc checks or effect allocation.
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
                chains[pc](regs, state)
                if chain_halts[pc]:
                    return steps + n - 1, True
                steps += n
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
