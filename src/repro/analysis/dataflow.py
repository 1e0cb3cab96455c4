"""Generic abstract-interpretation dataflow over Z-ISA control-flow graphs.

The solver is the textbook worklist algorithm over a join-semilattice,
parameterized by an :class:`AbstractDomain`:

* *forward* problems propagate block out-states to successors, *backward*
  problems propagate block in-states to predecessors;
* states join at merge points (``join`` must be the domain's least upper
  bound modulo conservatism: over-approximating is sound, under- is not);
* *widening* guarantees termination on domains with infinite ascending
  chains (intervals): after a block has been visited ``widen_after``
  times, ``widen(old, new)`` replaces the join, and domains jump growing
  bounds to their extremes.

Domain transfer functions read each instruction through the decode
layer's per-pc metadata (:attr:`repro.machine.decoded.DecodedProgram.meta`)
rather than re-dispatching on raw :class:`Instruction` objects, so the
facts the analysis reasons over are exactly the facts the executing
closures were compiled from — any decoder drift is caught by ``DEC002``
before it can skew an analysis.

Three concrete domains ship with the engine:

* :class:`ConstantDomain` — classic constant propagation.  Abstract
  values are exact 64-bit constants or ``UNKNOWN``; arithmetic reuses
  the interpreter's own op tables (:mod:`repro.machine.semantics`), so
  the abstract evaluation of a constant-operand instruction is *the*
  concrete semantics, wrap and all.
* :class:`IntervalDomain` — value ranges ``[lo, hi]`` over the signed
  64-bit integers, with widening to the register's representable range.
  Any operation whose exact result range could leave the representable
  range goes to ``TOP`` (wraparound makes the true range a union of up
  to two intervals; one conservative interval would be [MIN, MAX] anyway).
* :class:`TaintDomain` — a may-taint bit per register plus one for
  memory, seeded with the registers the distilled program writes (the
  "written-by-distillation" taint the speculation-safety prover builds
  on): any value data-dependent on a seeded register or on tainted
  memory is tainted.

All three satisfy the soundness property the hypothesis suite checks:
for any program state reachable at a pc, the concrete register values
are contained in the abstract in-state of the block at that pc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Generic, List, Optional, TypeVar

from repro.analysis.cfg import BasicBlock, ControlFlowGraph
from repro.isa.instructions import Opcode
from repro.isa.registers import NUM_REGS, RA, ZERO
from repro.machine.decoded import decode
from repro.machine.semantics import _I2_OPS, _R3_OPS
from repro.machine.state import wrap64

State = TypeVar("State")

#: Signed 64-bit representable range (the machine wraps into it).
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class AbstractDomain(Generic[State]):
    """A join-semilattice of abstract states with a transfer function.

    Subclasses define the state type, the lattice operations, and
    per-instruction transfer.  States must be treated as immutable by
    the solver's clients; ``transfer`` returns a fresh state (or the
    input unchanged).
    """

    #: ``"forward"`` or ``"backward"``.
    direction: str = "forward"

    def initial(self) -> State:
        """The boundary state (at entry for forward problems)."""
        raise NotImplementedError

    def join(self, a: State, b: State) -> State:
        """Least upper bound (or a sound over-approximation of it)."""
        raise NotImplementedError

    def widen(self, old: State, new: State) -> State:
        """Accelerate convergence; default: plain join (finite domains)."""
        return self.join(old, new)

    def transfer(self, state: State, pc: int, meta: tuple) -> State:
        """Abstractly execute the instruction at ``pc``.

        ``meta`` is the decode layer's fact tuple for the instruction:
        ``(op name, rd, rs, rt, imm, target, pc + 1, zero-sink)``.
        """
        raise NotImplementedError


@dataclass
class DataflowSolution(Generic[State]):
    """Fixpoint states per block (both ends, whatever the direction)."""

    cfg: ControlFlowGraph
    domain: AbstractDomain[State]
    #: Abstract state at block entry (forward: joined over predecessors).
    block_in: Dict[int, State]
    #: Abstract state at block exit.
    block_out: Dict[int, State]
    #: Worklist iterations the solver spent reaching the fixpoint.
    iterations: int = 0

    def state_before(self, pc: int) -> State:
        """The abstract state immediately before ``pc`` (forward only)."""
        block = self.cfg.block_at(pc)
        state = self.block_in[block.index]
        meta = decode(self.cfg.program).meta
        for cursor in range(block.start, pc):
            state = self.domain.transfer(state, cursor, meta[cursor])
        return state


def solve(
    cfg: ControlFlowGraph,
    domain: AbstractDomain[State],
    widen_after: int = 3,
) -> DataflowSolution[State]:
    """Run ``domain`` to a fixpoint over ``cfg`` with the worklist solver.

    ``widen_after`` bounds how many times a block may be re-joined before
    widening kicks in; 0 widens at every join (coarsest, fastest).
    """
    meta = decode(cfg.program).meta
    forward = domain.direction == "forward"
    if forward:
        edges_in = cfg.predecessors
        edges_out = cfg.successors
    else:
        edges_in = cfg.successors
        edges_out = cfg.predecessors

    def apply_block(block: BasicBlock, state: State) -> State:
        pcs = block.pcs if forward else reversed(block.pcs)
        for pc in pcs:
            state = domain.transfer(state, pc, meta[pc])
        return state

    #: Blocks with no in-edges in the traversal direction carry the
    #: boundary state; forward problems also seed the entry block (it
    #: can have in-edges — loop headers — yet still starts the program).
    boundary: Dict[int, bool] = {
        b.index: not edges_in[b.index] for b in cfg.blocks
    }
    if forward:
        boundary[cfg.entry_block.index] = True

    state_in: Dict[int, Optional[State]] = {b.index: None for b in cfg.blocks}
    state_out: Dict[int, Optional[State]] = {b.index: None for b in cfg.blocks}
    visits: Dict[int, int] = {b.index: 0 for b in cfg.blocks}
    worklist: List[int] = [b.index for b in cfg.blocks]
    if not forward:
        worklist.reverse()
    queued = set(worklist)
    iterations = 0
    while worklist:
        index = worklist.pop(0)
        queued.discard(index)
        iterations += 1
        joined: Optional[State] = domain.initial() if boundary[index] else None
        for pred in edges_in[index]:
            pred_out = state_out[pred]
            if pred_out is None:
                continue
            joined = pred_out if joined is None else domain.join(
                joined, pred_out
            )
        if joined is None:
            continue  # unreachable in this direction so far
        old_in = state_in[index]
        if old_in is not None:
            visits[index] += 1
            if visits[index] > widen_after:
                joined = domain.widen(old_in, joined)
            else:
                joined = domain.join(old_in, joined)
            if joined == old_in:
                continue
        state_in[index] = joined
        state_out[index] = apply_block(cfg.blocks[index], joined)
        for succ in edges_out[index]:
            if succ not in queued:
                worklist.append(succ)
                queued.add(succ)

    initial = domain.initial()
    block_in = {
        i: (s if s is not None else initial) for i, s in state_in.items()
    }
    block_out = {
        i: (s if s is not None else initial) for i, s in state_out.items()
    }
    return DataflowSolution(
        cfg=cfg, domain=domain, block_in=block_in, block_out=block_out,
        iterations=iterations,
    )


def is_fixpoint(solution: DataflowSolution) -> bool:
    """Re-apply every transfer once: a true fixpoint must not move.

    The ``DF001`` lint check calls this on a (possibly deserialized or
    mutated) solution; the solver's own output always passes.
    """
    cfg, domain = solution.cfg, solution.domain
    meta = decode(cfg.program).meta
    forward = domain.direction == "forward"
    edges_in = cfg.predecessors if forward else cfg.successors
    for block in cfg.blocks:
        state = solution.block_in[block.index]
        for pred in edges_in[block.index]:
            # In-states must still cover every in-edge contribution.
            contribution = solution.block_out[pred]
            if domain.join(state, contribution) != state:
                return False
        pcs = block.pcs if forward else reversed(block.pcs)
        for pc in pcs:
            state = domain.transfer(state, pc, meta[pc])
        if domain.join(solution.block_out[block.index], state) != (
            solution.block_out[block.index]
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Constant propagation
# ---------------------------------------------------------------------------

#: Per-register abstract value: an exact int, or UNKNOWN (top).  States
#: are tuples of length NUM_REGS for cheap hashing/equality.
UNKNOWN = None

ConstState = tuple


class ConstantDomain(AbstractDomain[ConstState]):
    """Forward constant propagation over the register file.

    Memory is not modeled: every load is ``UNKNOWN``.  ``r0`` is the
    architectural constant 0 in every state.
    """

    direction = "forward"

    def initial(self) -> ConstState:
        # The machine zero-initializes the register file.
        return tuple(0 for _ in range(NUM_REGS))

    def join(self, a: ConstState, b: ConstState) -> ConstState:
        if a == b:
            return a
        return tuple(
            x if x == y else UNKNOWN for x, y in zip(a, b)
        )

    def transfer(self, state: ConstState, pc: int, meta: tuple) -> ConstState:
        op_name, rd, rs, rt, imm, _target, _nxt, _sink = meta
        op = Opcode[op_name]
        if op in _R3_OPS:
            a, b = state[rs], state[rt]
            value = (
                wrap64(_R3_OPS[op](a, b))
                if a is not UNKNOWN and b is not UNKNOWN else UNKNOWN
            )
            return self._set(state, rd, value)
        if op in _I2_OPS:
            a = state[rs]
            value = (
                wrap64(_I2_OPS[op](a, imm)) if a is not UNKNOWN else UNKNOWN
            )
            return self._set(state, rd, value)
        if op is Opcode.LI:
            return self._set(state, rd, wrap64(imm))
        if op is Opcode.MOV:
            return self._set(state, rd, state[rs])
        if op is Opcode.LW:
            return self._set(state, rd, UNKNOWN)
        if op is Opcode.JAL:
            return self._set(state, RA, pc + 1)
        return state  # stores, branches, jumps, halt, nop, fork

    @staticmethod
    def _set(state: ConstState, rd: int, value) -> ConstState:
        if rd == ZERO:
            return state
        out = list(state)
        out[rd] = value
        return tuple(out)


# ---------------------------------------------------------------------------
# Value ranges (intervals)
# ---------------------------------------------------------------------------

#: One register's range: an inclusive (lo, hi) pair within the signed
#: 64-bit integers.  TOP_RANGE is the whole representable range.
TOP_RANGE = (INT64_MIN, INT64_MAX)

IntervalState = tuple


def _range_exact(lo: int, hi: int) -> tuple:
    """An exact candidate range, conservatively widened on wraparound."""
    if lo < INT64_MIN or hi > INT64_MAX:
        return TOP_RANGE
    return (lo, hi)


class IntervalDomain(AbstractDomain[IntervalState]):
    """Forward value-range analysis over the register file.

    Transfer computes exact end-point ranges for the monotone-friendly
    operations (add/sub/mul by constant sign analysis is overkill here:
    products take all four corner combinations) and falls back to
    ``TOP_RANGE`` whenever 64-bit wraparound could split the true range.
    Widening jumps a growing bound straight to the representable extreme.
    """

    direction = "forward"

    def initial(self) -> IntervalState:
        return tuple((0, 0) for _ in range(NUM_REGS))

    def join(self, a: IntervalState, b: IntervalState) -> IntervalState:
        if a == b:
            return a
        return tuple(
            (min(x[0], y[0]), max(x[1], y[1])) for x, y in zip(a, b)
        )

    def widen(self, old: IntervalState, new: IntervalState) -> IntervalState:
        out = []
        for (olo, ohi), (nlo, nhi) in zip(old, new):
            lo = olo if nlo >= olo else INT64_MIN
            hi = ohi if nhi <= ohi else INT64_MAX
            out.append((lo, hi))
        return tuple(out)

    def transfer(
        self, state: IntervalState, pc: int, meta: tuple
    ) -> IntervalState:
        op_name, rd, rs, rt, imm, _target, _nxt, _sink = meta
        op = Opcode[op_name]
        if op in _R3_OPS:
            return self._set(state, rd, self._binary(op, state[rs], state[rt]))
        if op in _I2_OPS:
            r3 = _I2_TO_R3[op]
            return self._set(state, rd, self._binary(r3, state[rs], (imm, imm)))
        if op is Opcode.LI:
            value = wrap64(imm)
            return self._set(state, rd, (value, value))
        if op is Opcode.MOV:
            return self._set(state, rd, state[rs])
        if op is Opcode.LW:
            return self._set(state, rd, TOP_RANGE)
        if op is Opcode.JAL:
            return self._set(state, RA, (pc + 1, pc + 1))
        return state

    @staticmethod
    def _set(state: IntervalState, rd: int, value: tuple) -> IntervalState:
        if rd == ZERO:
            return state
        out = list(state)
        out[rd] = value
        return tuple(out)

    @staticmethod
    def _binary(op: Opcode, a: tuple, b: tuple) -> tuple:
        alo, ahi = a
        blo, bhi = b
        if op is Opcode.ADD:
            return _range_exact(alo + blo, ahi + bhi)
        if op is Opcode.SUB:
            return _range_exact(alo - bhi, ahi - blo)
        if op is Opcode.MUL:
            corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
            return _range_exact(min(corners), max(corners))
        if op in (Opcode.SLT, Opcode.SLE, Opcode.SEQ, Opcode.SNE):
            fn = _R3_OPS[op]
            if alo == ahi and blo == bhi:
                value = fn(alo, blo)
                return (value, value)
            # Comparison results are always 0/1; decide when the ranges
            # force the answer.
            if op is Opcode.SLT and ahi < blo:
                return (1, 1)
            if op is Opcode.SLT and alo >= bhi:
                return (0, 0)
            if op is Opcode.SLE and ahi <= blo:
                return (1, 1)
            if op is Opcode.SLE and alo > bhi:
                return (0, 0)
            return (0, 1)
        if op in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.DIV, Opcode.MOD,
                  Opcode.SLL, Opcode.SRL, Opcode.SRA):
            if alo == ahi and blo == bhi:
                value = wrap64(_R3_OPS[op](alo, blo))
                return (value, value)
            if op is Opcode.AND and blo == bhi and bhi >= 0:
                return (0, bhi)  # masking with a non-negative constant
            if op is Opcode.MOD and blo == bhi and bhi > 0 and alo >= 0:
                return (0, bhi - 1)
            return TOP_RANGE
        return TOP_RANGE


#: I2 opcodes expressed through their R3 sibling for range transfer.
_I2_TO_R3 = {
    Opcode.ADDI: Opcode.ADD,
    Opcode.MULI: Opcode.MUL,
    Opcode.ANDI: Opcode.AND,
    Opcode.ORI: Opcode.OR,
    Opcode.XORI: Opcode.XOR,
    Opcode.SLLI: Opcode.SLL,
    Opcode.SRLI: Opcode.SRL,
    Opcode.SLTI: Opcode.SLT,
}


# ---------------------------------------------------------------------------
# Written-by-distillation taint
# ---------------------------------------------------------------------------

#: Taint state: (frozenset of tainted registers, memory-tainted bit).
TaintState = tuple


class TaintDomain(AbstractDomain[TaintState]):
    """May-taint propagation from a seed register set.

    Seeded with the registers the distilled program writes, the fixpoint
    answers "which original-program values could be data-dependent on
    master-written state?" — the coarse, purely data-flow ancestor of the
    speculation-safety prover's divergence analysis (which additionally
    models control and per-pc faithfulness).  A store of a tainted value
    (or through a tainted address) taints memory as a whole; loads from
    tainted memory taint their destination.
    """

    direction = "forward"

    def __init__(self, seed_regs: FrozenSet[int], seed_mem: bool = False):
        self.seed_regs = frozenset(r for r in seed_regs if r != ZERO)
        self.seed_mem = seed_mem

    def initial(self) -> TaintState:
        return (self.seed_regs, self.seed_mem)

    def join(self, a: TaintState, b: TaintState) -> TaintState:
        return (a[0] | b[0], a[1] or b[1])

    def transfer(self, state: TaintState, pc: int, meta: tuple) -> TaintState:
        op_name, rd, rs, rt, imm, _target, _nxt, _sink = meta
        op = Opcode[op_name]
        tainted, mem = state
        if op in _R3_OPS:
            return self._set(state, rd, rs in tainted or rt in tainted)
        if op in _I2_OPS:
            return self._set(state, rd, rs in tainted)
        if op is Opcode.LI:
            return self._set(state, rd, False)
        if op is Opcode.MOV:
            return self._set(state, rd, rs in tainted)
        if op is Opcode.LW:
            return self._set(state, rd, mem or rs in tainted)
        if op is Opcode.SW:
            if rs in tainted or rt in tainted:
                return (tainted, True)
            return state
        if op is Opcode.JAL:
            return self._set(state, RA, False)
        return state

    @staticmethod
    def _set(state: TaintState, rd: int, dirty: bool) -> TaintState:
        tainted, mem = state
        if rd == ZERO:
            return state
        if dirty:
            if rd in tainted:
                return state
            return (tainted | {rd}, mem)
        if rd not in tainted:
            return state
        return (tainted - {rd}, mem)


def distill_write_taint(
    cfg: ControlFlowGraph, distilled_program
) -> DataflowSolution[TaintState]:
    """Solve :class:`TaintDomain` seeded with the distilled write set."""
    seeds = frozenset(
        reg
        for instr in distilled_program.code
        for reg in instr.defs()
        if reg != ZERO
    )
    return solve(cfg, TaintDomain(seeds))


__all__ = [
    "AbstractDomain",
    "ConstantDomain",
    "DataflowSolution",
    "INT64_MAX",
    "INT64_MIN",
    "IntervalDomain",
    "TOP_RANGE",
    "TaintDomain",
    "UNKNOWN",
    "distill_write_taint",
    "is_fixpoint",
    "solve",
]
