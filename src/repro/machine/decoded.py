"""Pre-decoded execution engine: closure-specialized Z-ISA dispatch.

:func:`repro.machine.semantics.execute` pays, on *every* step, two
opcode-table probes, a ladder of identity tests, five attribute loads on
:class:`~repro.isa.instructions.Instruction`, and a fresh
:class:`~repro.machine.semantics.StepEffect` allocation.  Those costs are
per *instruction executed*, but all of their inputs are per *instruction
decoded* — a program of a few hundred static instructions is stepped
tens of millions of times.

This module moves the whole decode cost to program-construction time.
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

On top of the steppers, :class:`DecodedProgram` precomputes
**basic-block supersteps**: for every pc, the straight-line run of
*links* from that pc to its block terminator, with its halt flag, load
count, and the registers it reads before writing (``chain_reads``) and
writes (``chain_writes``).  A link, ``fn(regs, state)``, indexes the
state's own register list and wraps results inline; only memory goes
through ``state.load``/``state.store``.  A recording view therefore
records a chain's register live-ins once, from ``chain_reads``, instead
of on every access.  The sequential :meth:`DecodedProgram.run`, the
profiler, and the MSSP slave and master run whole chains, falling back
to exact per-step execution wherever a step boundary could fall inside
one — near the step budget, so ``StepLimitExceeded`` (or an overrun or
timeout) fires at precisely the same instruction as the reference loop.

Decoded programs are cached per :class:`~repro.isa.program.Program`
*instance* (identity, not value): the decoding is attached to the
program object and dies with it.  ``Program.__getstate__`` excludes the
attachment so pickling and deep-copying never see the closures.

``semantics.execute`` remains the semantic oracle; differential tests
(``tests/machine/test_decoded.py``) hold the two bit-identical, and
``repro lint`` re-checks every closure's decode metadata against its
source instruction (the ``DEC`` checks).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import InvalidPcError, StepLimitExceeded
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import RA, ZERO
from repro.machine.semantics import (
    _BRANCH_OPS,
    _I2_OPS,
    _R3_OPS,
    StepEffect,
    execute,
)
from repro.machine.state import MachineStateLike, wrap64

#: A decoded instruction: mutates ``state`` and returns its effect.
Stepper = Callable[[MachineStateLike], StepEffect]

#: A superstep-chain link: ``link(regs, state)`` executes one instruction
#: on ``regs``, the state's own register list (see :func:`_decode_link`).
Link = Callable[[List[int], MachineStateLike], None]

_MIN64 = -(1 << 63)
_MAX64 = (1 << 63) - 1

#: Interned singleton effects (see the interned-effect contract above).
EFFECT_FALL = StepEffect()
EFFECT_TAKEN = StepEffect(taken=True)
EFFECT_HALT = StepEffect(halted=True)

#: Attribute under which the decoding is cached on the Program instance.
_CACHE_ATTR = "_decoded_cache"


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


def _pass(regs, state):
    """The link of an instruction with no effect inside a chain."""


def _decode_link(
    pc: int, instr: Instruction
) -> Tuple[Link, Tuple[int, ...], Optional[int]]:
    """Compile ``instr`` at ``pc`` into ``(link, reads, write)``.

    ``link(regs, state)`` indexes the register list directly and sends
    only memory through ``state.load``/``state.store``.  It relies on
    ``regs[0] == 0`` and stores no fall-through pc: a memory link stores
    its own pc before the access (the profiler attributes sites to
    ``state.pc``), control transfers and ``halt`` store theirs, and a
    chain's caller resumes wherever the chain ends.  Results wrap inline
    (``wrap64`` only on overflow); a write to ``r0`` vanishes.
    ``reads`` are the source registers in evaluation order (``rs``
    before ``rt``, r0 included), ``write`` the destination, or ``None``.
    """
    op = instr.op
    nxt = pc + 1
    rd, rs, rt, imm = instr.rd, instr.rs, instr.rt, instr.imm
    write = None if rd == ZERO else rd
    fn = _R3_OPS.get(op)
    if fn is not None:
        if write is None:
            return _pass, (rs, rt), None

        def link(regs, state, fn=fn, rd=rd, rs=rs, rt=rt):
            v = fn(regs[rs], regs[rt])
            regs[rd] = v if _MIN64 <= v <= _MAX64 else wrap64(v)
        return link, (rs, rt), write
    fn = _I2_OPS.get(op)
    if fn is not None:
        if write is None:
            return _pass, (rs,), None

        def link(regs, state, fn=fn, rd=rd, rs=rs, imm=imm):
            v = fn(regs[rs], imm)
            regs[rd] = v if _MIN64 <= v <= _MAX64 else wrap64(v)
        return link, (rs,), write
    fn = _BRANCH_OPS.get(op)
    if fn is not None:
        def link(regs, state, fn=fn, rs=rs, rt=rt, target=instr.target,
                 nxt=nxt):
            state.pc = target if fn(regs[rs], regs[rt]) else nxt
        return link, (rs, rt), None
    if op is Opcode.LW:
        if write is None:
            def link(regs, state, rs=rs, imm=imm, pc=pc):
                a = regs[rs] + imm
                state.pc = pc
                state.load(a if _MIN64 <= a <= _MAX64 else wrap64(a))
        else:
            def link(regs, state, rd=rd, rs=rs, imm=imm, pc=pc):
                a = regs[rs] + imm
                state.pc = pc
                v = state.load(a if _MIN64 <= a <= _MAX64 else wrap64(a))
                regs[rd] = v if _MIN64 <= v <= _MAX64 else wrap64(v)
        return link, (rs,), write
    if op is Opcode.SW:
        def link(regs, state, rs=rs, rt=rt, imm=imm, pc=pc):
            a = regs[rs] + imm
            state.pc = pc
            state.store(a if _MIN64 <= a <= _MAX64 else wrap64(a), regs[rt])
        return link, (rs, rt), None
    if op is Opcode.LI:
        if write is None:
            return _pass, (), None

        def link(regs, state, rd=rd, value=wrap64(imm)):
            regs[rd] = value
        return link, (), write
    if op is Opcode.MOV:
        if write is None:
            return _pass, (rs,), None

        def link(regs, state, rd=rd, rs=rs):
            v = regs[rs]
            regs[rd] = v if _MIN64 <= v <= _MAX64 else wrap64(v)
        return link, (rs,), write
    if op is Opcode.J:
        def link(regs, state, target=instr.target):
            state.pc = target
        return link, (), None
    if op is Opcode.JAL:
        def link(regs, state, target=instr.target, nxt=nxt):
            regs[RA] = nxt
            state.pc = target
        return link, (), RA
    if op is Opcode.JR:
        def link(regs, state, rs=rs):
            state.pc = regs[rs]
        return link, (rs,), None
    if op is Opcode.HALT:
        def link(regs, state, pc=pc):
            state.pc = pc
        return link, (), None
    # NOP and FORK (a task marker, not a computation).
    return _pass, (), None


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


class DecodedProgram:
    """A :class:`Program` compiled to per-pc closures and superstep chains.

    Obtain instances through :func:`decode` (which caches one per
    program object); direct construction is for tests and the lint
    checks.  With ``oracle=True`` every closure defers to
    :func:`~repro.machine.semantics.execute` — bitwise the reference
    semantics, used by differential tests to hold the fast path and the
    oracle against each other through identical plumbing.
    """

    __slots__ = (
        "program", "code", "size", "steppers", "chains", "chain_halts",
        "chain_loads", "chain_reads", "chain_writes", "meta", "oracle",
    )

    def __init__(self, program: Program, oracle: bool = False):
        self.program = program
        self.code = program.code
        self.size = len(program.code)
        self.oracle = oracle
        steppers: List[Stepper] = []
        links: List[Link] = []
        operands: List[Tuple[Tuple[int, ...], Optional[int]]] = []
        meta: List[Tuple] = []
        for pc, instr in enumerate(self.code):
            link, reads, write = _decode_link(pc, instr)
            if oracle:
                def step(state, instr=instr):
                    return execute(instr, state)

                def link(regs, state, instr=instr):
                    execute(instr, state)
                steppers.append(step)
            else:
                steppers.append(_decode_instruction(pc, instr))
            links.append(link)
            operands.append((reads, write))
            meta.append(_decode_meta(pc, instr))
        self.steppers: Tuple[Stepper, ...] = tuple(steppers)
        self.meta: Tuple[Tuple, ...] = tuple(meta)
        self._build_chains(links, operands)

    def _build_chains(
        self,
        links: List[Link],
        operands: List[Tuple[Tuple[int, ...], Optional[int]]],
    ) -> None:
        """Per-pc straight-line link runs ending at block terminators.

        ``chains[pc]`` executes pc through the first terminator at or
        after it (or the end of the text), as ``fn(regs, state)`` calls
        on the state's own register list; ``chain_halts[pc]`` marks
        chains whose terminator is ``halt``, and ``chain_loads[pc]``
        counts the ``lw`` instructions in the chain.  ``chain_reads[pc]``
        lists the registers the chain reads before writing them (r0
        excluded) in first-read order, ``chain_writes[pc]`` the
        registers it writes: a recording view takes a chain's live-ins
        once at entry instead of on every access.  Entry at any pc is
        legal — chains are suffixes, so branch targets into block
        middles get their own (shorter) run.  A text that ends without a
        terminator gets a last link that also stores the end pc.
        """
        code = self.code
        size = self.size
        if size and not code[-1].is_terminator:
            def last(regs, state, inner=links[-1], end=size):
                inner(regs, state)
                state.pc = end
            links[-1] = last
        ends: List[int] = [0] * size  # pc -> index one past the terminator
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
            if code[pc].is_terminator:
                end = pc + 1
                halt = code[pc].op is Opcode.HALT
                count = 0
                span_reads = span_writes = ()
            count += code[pc].op is Opcode.LW
            ends[pc] = end
            halts[pc] = halt
            loads[pc] = count
            sources, write = operands[pc]
            own = tuple(dict.fromkeys(r for r in sources if r != ZERO))
            span_reads = own + tuple(
                r for r in span_reads if r != write and r not in own
            )
            span_writes = (() if write is None else (write,)) + tuple(
                r for r in span_writes if r != write
            )
            reads[pc] = span_reads
            writes[pc] = span_writes
        self.chains: Tuple[Tuple[Link, ...], ...] = tuple(
            tuple(links[pc:ends[pc]]) for pc in range(size)
        )
        self.chain_halts: Tuple[bool, ...] = tuple(halts)
        self.chain_loads: Tuple[int, ...] = tuple(loads)
        self.chain_reads: Tuple[Tuple[int, ...], ...] = tuple(reads)
        self.chain_writes: Tuple[Tuple[int, ...], ...] = tuple(writes)

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
        chain_halts = self.chain_halts
        size = self.size
        regs = state.regs
        steps = 0
        while True:
            pc = state.pc
            if not 0 <= pc < size:
                raise InvalidPcError(pc, size)
            chain = chains[pc]
            if steps + len(chain) < max_steps:
                for fn in chain:
                    fn(regs, state)
                if chain_halts[pc]:
                    return steps + len(chain) - 1, True
                steps += len(chain)
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


def decode(program: Program, oracle: bool = False) -> DecodedProgram:
    """The (cached) decoding of ``program``.

    One decoding is kept per program *object*; a different Program with
    equal contents decodes separately, and re-decoding after mutation is
    impossible because programs are frozen.  The cache entry lives in the
    program's ``__dict__`` (excluded from pickling by
    ``Program.__getstate__``), so invalidation is garbage collection.
    """
    cache = program.__dict__.get(_CACHE_ATTR)
    if cache is None:
        cache = {}
        object.__setattr__(program, _CACHE_ATTR, cache)
    decoded = cache.get(oracle)
    if decoded is None:
        decoded = DecodedProgram(program, oracle=oracle)
        cache[oracle] = decoded
    return decoded
