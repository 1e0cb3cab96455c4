"""Speculation-safety prover: which distilled live-ins are *provably* right?

MSSP verifies every task live-in dynamically.  This module closes the loop
statically: it aligns the distilled program with the original through the
pc map's per-instruction provenance, runs a divergence dataflow analysis
along the original program's CFG, and classifies every register that can be
a task live-in at each fork anchor:

* ``PROVEN`` — on every path into the anchor, the master's value for the
  register provably equals the architected (sequential) value.  Verify may
  skip comparing these cells; a squash on one is an analysis soundness bug
  (the engine turns it into a hard :class:`~repro.errors.CheckFailure`).
* ``STABLE`` — not proven equal, but the register is provably never
  written by the original program anywhere reachable from a fork anchor,
  so its checkpointed value cannot go stale *between* fork points.
* ``UNPROVEN`` — everything else; these are exactly the cells dynamic
  verification exists for (and the distiller's re-targeting candidates).

Soundness model
---------------

The abstract state flows along *original* CFG edges and tracks, per
register, whether the master's view provably equals the sequential view at
the corresponding point ("EQ"), plus one bit each for control alignment
and memory agreement.  The alignment between the two programs is rebuilt
instruction by instruction and never trusted:

* every distilled instruction must be *accounted for* — carrying
  provenance, or a recognizably synthesized artifact (fork prologue
  countdown on scratch registers, re-materialized jumps, trap block);
* every mapped instruction must be *faithful* — byte-identical modulo
  retargeted branch labels — or its definitions are poisoned on both
  sides;
* every control transfer's continuation is checked by resolving where the
  master actually goes next (:meth:`_Prover._resolve`) against where the
  original program says it should (:meth:`_Prover._normalize`).

Anything unexpected — corrupted masters from fault injection, hand-built
pc maps without provenance, garbage masters — makes the prover *bail*:
the report marks every cell UNPROVEN, which is always sound (the runtime
simply verifies everything, as it did before this module existed).

Distilled-side speculation (value specialization, store elimination,
asserted branches) is modelled as divergence: an asserted branch keeps the
agreeing edge control-exact and poisons the disagreeing edge with every
register the master could still write from its position (a reachable-defs
sweep over the *distilled* CFG).  Memory cells are never statically
skipped — ``CellVersions`` already covers them dynamically — but the
memory-agreement bit is tracked because faithful loads depend on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis.cfg import build_cfg
from repro.analysis.liveness import compute_liveness
from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS, RA, ZERO, register_name

__all__ = [
    "CellClass",
    "RegionSafety",
    "SafetyReport",
    "prove_safety",
]


class CellClass(enum.Enum):
    """Static verdict for one live-in register at one fork anchor."""

    PROVEN = "proven"
    STABLE = "stable"
    UNPROVEN = "unproven"


@dataclass(frozen=True)
class RegionSafety:
    """Safety classification of one distilled region (one fork anchor)."""

    #: Original pc the region's tasks begin at.
    anchor: int
    #: live-in register -> classification.
    cells: Mapping[int, CellClass] = field(default_factory=dict)
    #: True if the master's memory view provably matches at the anchor.
    mem_proven: bool = False
    _proven: FrozenSet[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", dict(self.cells))
        # Every forked task asks for this set: build it once.
        object.__setattr__(self, "_proven", frozenset(
            r for r, cls in self.cells.items() if cls is CellClass.PROVEN
        ))

    @property
    def proven_regs(self) -> FrozenSet[int]:
        return self._proven

    def counts(self) -> Dict[str, int]:
        out = {cls.value: 0 for cls in CellClass}
        for cls in self.cells.values():
            out[cls.value] += 1
        return out

    def to_json(self) -> Dict[str, object]:
        return {
            "anchor": self.anchor,
            "mem_proven": self.mem_proven,
            "cells": {
                register_name(reg): cls.value
                for reg, cls in sorted(self.cells.items())
            },
            "counts": self.counts(),
        }


@dataclass(frozen=True)
class SafetyReport:
    """Per-region safety classification for one distillation artifact."""

    #: anchor pc -> region classification.
    regions: Mapping[int, RegionSafety] = field(default_factory=dict)
    #: True if the prover could not align the programs; every cell is
    #: UNPROVEN and ``bail_reason`` says why.  Always sound.
    bailed: bool = False
    bail_reason: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", dict(self.regions))

    def proven_for(self, anchor: int) -> FrozenSet[int]:
        """Registers verify may skip for tasks starting at ``anchor``."""
        region = self.regions.get(anchor)
        return region.proven_regs if region is not None else frozenset()

    def counts(self) -> Dict[str, int]:
        out = {cls.value: 0 for cls in CellClass}
        for region in self.regions.values():
            for key, value in region.counts().items():
                out[key] += value
        return out

    @property
    def total_proven(self) -> int:
        return self.counts()[CellClass.PROVEN.value]

    def to_json(self) -> Dict[str, object]:
        return {
            "bailed": self.bailed,
            "bail_reason": self.bail_reason,
            "counts": self.counts(),
            "regions": [
                self.regions[anchor].to_json()
                for anchor in sorted(self.regions)
            ],
        }


class _Bail(Exception):
    """Internal: alignment failed; the report degrades to all-UNPROVEN."""


#: Sentinel original-pc meaning "control provably reaches a halt/trap".
_HALT = -1

#: Abstract state: (divergent registers, control diverged, memory diverged).
_State = Tuple[FrozenSet[int], bool, bool]

_CLEAN: _State = (frozenset(), False, False)


def _join(a: _State, b: _State) -> _State:
    return (a[0] | b[0], a[1] or b[1], a[2] or b[2])


@dataclass
class _Facts:
    """Per-original-pc alignment facts, computed once before the fixpoint."""

    kind: str  # faithful | removed | unfaithful | wild | branch | assert
    #          # | jump | jal | jr | halt
    #: Definitions to poison (removed/unfaithful/wild kinds).
    poison_defs: FrozenSet[int] = frozenset()
    #: True if the instruction's memory effect diverges (removed/mutated sw).
    mem_break: bool = False
    #: Registers the master may still write after a control break here.
    break_poison: FrozenSet[int] = frozenset()
    #: For ``assert``: which original edge the master unconditionally takes.
    agree: Optional[str] = None  # "taken" | "fall"
    #: Faithful-branch directions whose distilled realization is the trap.
    pruned_taken: bool = False
    pruned_fall: bool = False
    #: Master provably halts at/after this instruction (trap retarget).
    master_halts: bool = False


class _Prover:
    def __init__(self, original: Program, distilled: Program, pc_map) -> None:
        self.original = original
        self.distilled = distilled
        self.pc_map = pc_map
        self.ocode = original.code
        self.dcode = distilled.code
        self.provenance: Dict[int, int] = dict(
            getattr(pc_map, "provenance", None) or {}
        )
        self.image: Dict[int, List[int]] = {}
        for dpc in sorted(self.provenance):
            self.image.setdefault(self.provenance[dpc], []).append(dpc)
        self._resolve_memo: Dict[int, object] = {}
        self._visiting = object()

    # -- top level ----------------------------------------------------------

    def prove(self) -> SafetyReport:
        self.ocfg = build_cfg(self.original)
        self.oliveness = compute_liveness(self.ocfg)
        self.anchors = sorted(self.pc_map.anchors)
        try:
            return self._prove_aligned()
        except _Bail as bail:
            return self._bail_report(str(bail))

    def _bail_report(self, reason: str) -> SafetyReport:
        regions = {}
        for anchor in self.anchors:
            block = self.ocfg.block_starting_at(anchor)
            live: FrozenSet[int] = frozenset()
            if block is not None:
                live = self.oliveness.block_live_in(block.index) - {ZERO}
            regions[anchor] = RegionSafety(
                anchor=anchor,
                cells={r: CellClass.UNPROVEN for r in live},
                mem_proven=False,
            )
        return SafetyReport(regions=regions, bailed=True, bail_reason=reason)

    def _prove_aligned(self) -> SafetyReport:
        if not self.provenance:
            raise _Bail("pc map carries no instruction provenance")
        for dpc, opc in self.provenance.items():
            if not 0 <= dpc < len(self.dcode) or not 0 <= opc < len(self.ocode):
                raise _Bail(f"provenance entry {dpc}->{opc} out of range")
        anchor_blocks = []
        for anchor in self.anchors:
            block = self.ocfg.block_starting_at(anchor)
            if block is None:
                raise _Bail(f"anchor {anchor} is not an original block leader")
            anchor_blocks.append(block.index)
        self.scratch = self._scratch_registers()
        self.dcfg = build_cfg(
            self.distilled, jr_targets=self.pc_map.jr_table.values()
        )
        self.reach_defs = self._reachable_defs()
        self._check_synthesized()
        seed_blocks = set(anchor_blocks)
        seed_blocks.add(self.ocfg.entry_block.index)
        reachable = self.ocfg.reachable_from(seed_blocks)
        self.facts: Dict[int, _Facts] = {}
        for index in reachable:
            for pc in self.ocfg.blocks[index].pcs:
                self.facts[pc] = self._classify(pc)
        in_states = self._fixpoint(seed_blocks)
        writable = self._writable_from(anchor_blocks)
        regions = {}
        for anchor, index in zip(self.anchors, anchor_blocks):
            state = in_states.get(index)
            live = sorted(self.oliveness.block_live_in(index) - {ZERO})
            cells: Dict[int, CellClass] = {}
            for reg in live:
                if state is None or reg not in state[0]:
                    cells[reg] = CellClass.PROVEN
                elif reg not in writable:
                    cells[reg] = CellClass.STABLE
                else:
                    cells[reg] = CellClass.UNPROVEN
            regions[anchor] = RegionSafety(
                anchor=anchor,
                cells=cells,
                mem_proven=state is None or not state[2],
            )
        return SafetyReport(regions=regions)

    # -- structural helpers -------------------------------------------------

    def _scratch_registers(self) -> FrozenSet[int]:
        """Registers the original program neither reads nor writes.

        The distiller's fork prologues compute stride countdowns in these;
        they can never appear in a task's live-in set, so distilled writes
        to them are invisible to verification.
        """
        touched: Set[int] = {ZERO}
        for instr in self.ocode:
            touched |= instr.uses() | instr.defs()
        return frozenset(range(NUM_REGS)) - frozenset(touched)

    def _reachable_defs(self) -> Dict[int, FrozenSet[int]]:
        """Per distilled block: registers writable from it (transitively)."""
        own: Dict[int, Set[int]] = {}
        for block in self.dcfg.blocks:
            defs: Set[int] = set()
            for instr in block.instructions:
                defs |= instr.defs()
            own[block.index] = (defs - {ZERO}) - self.scratch
        reach = {index: frozenset(defs) for index, defs in own.items()}
        changed = True
        while changed:
            changed = False
            for block in reversed(self.dcfg.blocks):
                index = block.index
                acc: Set[int] = set(own[index])
                for succ in self.dcfg.successors[index]:
                    acc |= reach[succ]
                frozen = frozenset(acc)
                if frozen != reach[index]:
                    reach[index] = frozen
                    changed = True
        return reach

    def _break_poison_at(self, dpcs) -> FrozenSet[int]:
        """Registers the master can still write from distilled pcs ``dpcs``.

        Used when the master's position at a control break is known to be
        one of ``dpcs``: the master proceeds from there along distilled CFG
        edges (jr edges via the jr table; a table miss traps, writing
        nothing).
        """
        poison: Set[int] = set()
        for dpc in dpcs:
            block = self.dcfg.block_at(dpc)
            for instr in block.instructions[dpc - block.start:]:
                poison |= instr.defs()
            for succ in self.dcfg.successors[block.index]:
                poison |= self.reach_defs[succ]
        return (frozenset(poison) - {ZERO}) - self.scratch

    def _resolve(self, dpc: int):
        """Original pc the distilled text at ``dpc`` next corresponds to.

        Walks through synthesized instructions (fork prologues, threading
        jumps) until it hits a provenance-carrying instruction, a provable
        halt (returns :data:`_HALT`), or something it cannot account for
        (returns ``None``).
        """
        if not 0 <= dpc < len(self.dcode):
            return None
        memo = self._resolve_memo
        if dpc in memo:
            cached = memo[dpc]
            return None if cached is self._visiting else cached
        memo[dpc] = self._visiting
        instr = self.dcode[dpc]
        result = None
        if dpc in self.provenance:
            # Landing anywhere but the *first* instruction of an original
            # pc's image (e.g. a corrupted jump into the middle of a jal
            # lowering pair, skipping its ``li ra``) is unaccountable.
            opc = self.provenance[dpc]
            result = opc if self.image[opc][0] == dpc else None
        elif instr.op is Opcode.HALT:
            result = _HALT
        elif instr.op in (Opcode.FORK, Opcode.NOP):
            result = self._resolve(dpc + 1)
        elif instr.op is Opcode.J:
            result = self._resolve(int(instr.target))
        elif instr.is_branch:
            allowed = self.scratch | {ZERO}
            if instr.rs in allowed and instr.rt in allowed:
                taken = self._resolve(int(instr.target))
                fall = self._resolve(dpc + 1)
                if taken is not None and taken == fall:
                    result = taken
        elif (
            not instr.is_terminator
            and not instr.is_load
            and not instr.is_store
        ):
            defs = instr.defs() - {ZERO}
            if defs and defs <= self.scratch:
                result = self._resolve(dpc + 1)
        memo[dpc] = result
        return result

    def _normalize(self, opc: int):
        """Original pc the master's text next has a counterpart for.

        Skips original instructions without distilled counterparts the way
        the master does: removed straight-line instructions fall through,
        elided jumps are followed, asserted-away branches fall through.
        """
        seen: Set[int] = set()
        pc = opc
        while True:
            if pc == _HALT:
                return _HALT
            if not 0 <= pc < len(self.ocode) or pc in seen:
                return None
            seen.add(pc)
            if self.image.get(pc):
                return pc
            instr = self.ocode[pc]
            if instr.op is Opcode.HALT:
                return _HALT
            if instr.op is Opcode.J:
                pc = int(instr.target)
            elif instr.is_branch:
                pc = pc + 1
            elif instr.op in (Opcode.JAL, Opcode.JR):
                return None
            else:
                pc = pc + 1

    def _check_synthesized(self) -> None:
        """Every provenance-less distilled instruction must be benign."""
        # Every fork in the text — wherever it sits — must be the fork
        # site the layout recorded for its anchor (resume[anchor] points
        # just past it).  A fork whose target disagrees ships a
        # checkpoint from an unrelated master position into another
        # anchor's task, so no per-anchor claim would cover it.
        for dpc, instr in enumerate(self.dcode):
            if instr.op is Opcode.FORK:
                if self.pc_map.resume.get(int(instr.target)) != dpc + 1:
                    raise _Bail(
                        f"fork at distilled pc {dpc} targets anchor "
                        f"{int(instr.target)} without a matching resume "
                        "entry"
                    )
        allowed_branch = self.scratch | {ZERO}
        for dpc, instr in enumerate(self.dcode):
            if dpc in self.provenance:
                continue
            op = instr.op
            if op in (Opcode.FORK, Opcode.NOP, Opcode.HALT):
                continue
            if op is Opcode.J:
                if self._resolve(int(instr.target)) is None:
                    raise _Bail(
                        f"synthesized jump at distilled pc {dpc} has an "
                        "unresolvable target"
                    )
                continue
            if instr.is_branch:
                if (
                    instr.rs in allowed_branch
                    and instr.rt in allowed_branch
                    and self._resolve(dpc) is not None
                ):
                    continue
                raise _Bail(
                    f"synthesized branch at distilled pc {dpc} is not a "
                    "scratch-register countdown"
                )
            if (
                not instr.is_terminator
                and not instr.is_load
                and not instr.is_store
            ):
                defs = instr.defs() - {ZERO}
                if defs and defs <= self.scratch:
                    continue
            raise _Bail(
                f"unaccounted synthesized instruction at distilled pc "
                f"{dpc}: {instr}"
            )

    def _continuation(self, next_dpc: int, next_opc: int) -> bool:
        """Check master/original agreement on what executes next.

        Returns True if the master provably halts instead (the caller
        prunes the flow); raises :class:`_Bail` on any mismatch.
        """
        got = self._resolve(next_dpc)
        if got == _HALT:
            return True
        expected = self._normalize(next_opc)
        if got is None or expected is None or got != expected:
            raise _Bail(
                f"control continuation mismatch: distilled pc {next_dpc} "
                f"resolves to {got}, original expects {expected}"
            )
        return False

    # -- per-pc classification ---------------------------------------------

    def _classify(self, opc: int) -> _Facts:
        instr = self.ocode[opc]
        op = instr.op
        mapped = self.image.get(opc, [])
        minstrs = [self.dcode[d] for d in mapped]
        if op is Opcode.HALT:
            if not mapped or (
                len(mapped) == 1 and minstrs[0].op is Opcode.HALT
            ):
                return _Facts("halt")
            raise _Bail(f"halt at original pc {opc} mapped to non-halt")
        if op is Opcode.J:
            return self._classify_jump(opc, instr, mapped, minstrs)
        if instr.is_branch:
            return self._classify_branch(opc, instr, mapped, minstrs)
        if op is Opcode.JAL:
            return self._classify_call(opc, instr, mapped, minstrs)
        if op is Opcode.JR:
            return self._classify_return(opc, instr, mapped, minstrs)
        return self._classify_straightline(opc, instr, mapped, minstrs)

    def _classify_straightline(self, opc, instr, mapped, minstrs) -> _Facts:
        if not mapped:
            return _Facts(
                "removed",
                poison_defs=instr.defs() - {ZERO},
                mem_break=instr.is_store,
            )
        if any(mi.is_terminator or mi.op is Opcode.FORK for mi in minstrs):
            raise _Bail(
                f"straight-line original pc {opc} mapped to a control "
                "transfer"
            )
        master_halts = self._continuation(mapped[-1] + 1, opc + 1)
        if len(mapped) == 1 and minstrs[0] == instr:
            return _Facts("faithful", master_halts=master_halts)
        poison: Set[int] = set(instr.defs())
        for mi in minstrs:
            poison |= mi.defs()
        return _Facts(
            "unfaithful",
            poison_defs=frozenset(poison) - {ZERO},
            mem_break=instr.is_store or any(mi.is_store for mi in minstrs),
            master_halts=master_halts,
        )

    def _classify_jump(self, opc, instr, mapped, minstrs) -> _Facts:
        if not mapped:
            # Elided by jump threading: the master falls through into the
            # target's (physically next) block; predecessors' continuation
            # checks already walked through this pc on both sides.
            return _Facts("jump")
        if len(mapped) == 1 and minstrs[0].op is Opcode.J:
            got = self._resolve(int(minstrs[0].target))
            if got == _HALT:
                return _Facts("jump", master_halts=True)
            expected = self._normalize(int(instr.target))
            if got is not None and got == expected:
                return _Facts("jump")
        raise _Bail(f"jump at original pc {opc} has no faithful counterpart")

    def _classify_branch(self, opc, instr, mapped, minstrs) -> _Facts:
        expected_taken = self._normalize(int(instr.target))
        expected_fall = self._normalize(opc + 1)
        if not mapped:
            # Asserted-not-taken: branch_removal popped it; the master
            # unconditionally falls through.
            if expected_fall == _HALT:
                return _Facts("assert", agree="fall", master_halts=True)
            if expected_fall is None:
                raise _Bail(
                    f"removed branch at original pc {opc} falls into "
                    "unmappable code"
                )
            landing = self.image.get(expected_fall, [])
            return _Facts(
                "assert",
                agree="fall",
                break_poison=self._break_poison_at(landing),
            )
        if len(mapped) != 1:
            raise _Bail(f"branch at original pc {opc} maps to {len(mapped)} "
                        "instructions")
        mi = minstrs[0]
        if mi.op is Opcode.J:
            # Asserted-taken (or retargeted to the trap by cold-code
            # removal): the master jumps unconditionally.
            got = self._resolve(int(mi.target))
            if got == _HALT:
                return _Facts("assert", master_halts=True)
            poison = self._break_poison_at(mapped)
            if got is not None and got == expected_taken:
                return _Facts("assert", agree="taken", break_poison=poison)
            if got is not None and got == expected_fall:
                return _Facts("assert", agree="fall", break_poison=poison)
            raise _Bail(
                f"asserted branch at original pc {opc} jumps to an "
                "unrelated location"
            )
        if mi.op is instr.op and mi.rs == instr.rs and mi.rt == instr.rt:
            pruned_taken = self._continuation(
                int(mi.target), int(instr.target)
            )
            pruned_fall = self._continuation(mapped[0] + 1, opc + 1)
            return _Facts(
                "branch",
                break_poison=self._break_poison_at(mapped),
                pruned_taken=pruned_taken,
                pruned_fall=pruned_fall,
            )
        raise _Bail(f"branch at original pc {opc} has no faithful "
                    "counterpart")

    def _classify_call(self, opc, instr, mapped, minstrs) -> _Facts:
        if not mapped:
            # Whole-block cold removal; master-aligned flow never gets
            # here (edges into the block resolve to the trap) — if it
            # does, the fixpoint bails.
            return _Facts("wild", poison_defs=frozenset({RA}))
        expected = self._normalize(int(instr.target))
        if len(mapped) == 2:
            li_i, j_i = minstrs
            if (
                li_i.op is Opcode.LI
                and li_i.rd == RA
                and li_i.imm == opc + 1
                and j_i.op is Opcode.J
            ):
                got = self._resolve(int(j_i.target))
                if got == _HALT:
                    return _Facts("jal", master_halts=True)
                if got is not None and got == expected:
                    return _Facts("jal")
        if len(mapped) == 1 and minstrs[0].op is Opcode.JAL:
            got = self._resolve(int(minstrs[0].target))
            if got == _HALT:
                return _Facts("jal", master_halts=True)
            if got is not None and got == expected:
                return _Facts("jal")
        raise _Bail(f"call at original pc {opc} has no faithful lowering")

    def _classify_return(self, opc, instr, mapped, minstrs) -> _Facts:
        if not mapped:
            return _Facts("wild")
        if (
            len(mapped) == 1
            and minstrs[0].op is Opcode.JR
            and minstrs[0].rs == instr.rs
        ):
            # The runtime translates the master's jr through the jr table
            # (an original return address on both sides); with an EQ link
            # register both programs return to corresponding pcs, and a
            # table miss is a master trap (forks nothing).
            return _Facts("jr", break_poison=self._break_poison_at(mapped))
        raise _Bail(f"return at original pc {opc} has no faithful "
                    "counterpart")

    # -- the divergence fixpoint -------------------------------------------

    def _fixpoint(self, seed_blocks) -> Dict[int, _State]:
        in_states: Dict[int, _State] = {}
        worklist = sorted(seed_blocks)
        for index in worklist:
            in_states[index] = _CLEAN
        while worklist:
            index = worklist.pop()
            edges = self._transfer_block(
                self.ocfg.blocks[index], in_states[index]
            )
            for succ, state in edges.items():
                old = in_states.get(succ)
                new = state if old is None else _join(old, state)
                if succ in seed_blocks:
                    new = _join(new, _CLEAN)
                if new != old:
                    in_states[succ] = new
                    if succ not in worklist:
                        worklist.append(succ)
        return in_states

    def _transfer_block(self, block, state: _State) -> Dict[int, _State]:
        div: Set[int] = set(state[0])
        cdiv, mdiv = state[1], state[2]
        last_pc = block.end - 1
        for pc in block.pcs:
            facts = self.facts[pc]
            instr = self.ocode[pc]
            kind = facts.kind
            if kind == "faithful":
                if instr.is_store:
                    if cdiv or instr.rs in div or instr.rt in div:
                        mdiv = True
                elif instr.is_load:
                    self._set(div, instr.rd,
                              cdiv or mdiv or instr.rs in div)
                elif instr.defs():
                    bad = cdiv or any(u in div for u in instr.uses())
                    self._set(div, instr.rd, bad)
            elif kind in ("removed", "unfaithful"):
                div |= facts.poison_defs
                if facts.mem_break:
                    mdiv = True
            elif kind == "wild":
                if not cdiv:
                    raise _Bail(
                        f"master-aligned flow reached a removed call/"
                        f"return at original pc {pc}"
                    )
                div |= facts.poison_defs
            elif kind == "jal":
                if cdiv:
                    div.add(RA)
                else:
                    div.discard(RA)
            if pc != last_pc and facts.master_halts and not cdiv:
                return {}
        current: _State = (frozenset(div), cdiv, mdiv)
        return self._edges_from(block, current)

    @staticmethod
    def _set(div: Set[int], reg: int, diverged: bool) -> None:
        if reg == ZERO:
            return
        if diverged:
            div.add(reg)
        else:
            div.discard(reg)

    def _edges_from(self, block, state: _State) -> Dict[int, _State]:
        last_pc = block.end - 1
        facts = self.facts[last_pc]
        instr = self.ocode[last_pc]
        div, cdiv, mdiv = state
        kind = facts.kind
        succs = self.ocfg.successors[block.index]
        if kind == "halt":
            return {}
        if facts.master_halts and not cdiv:
            return {}
        if kind in ("branch", "assert"):
            taken_block = self.ocfg.block_of_pc.get(int(instr.target))
            fall_block = self.ocfg.block_of_pc.get(last_pc + 1)
            broken: _State = (div | facts.break_poison, True, True)
            edges: Dict[int, _State] = {}
            if kind == "branch":
                if cdiv or instr.rs in div or instr.rt in div:
                    self._add_edge(edges, taken_block, broken)
                    self._add_edge(edges, fall_block, broken)
                else:
                    if not facts.pruned_taken:
                        self._add_edge(edges, taken_block, state)
                    if not facts.pruned_fall:
                        self._add_edge(edges, fall_block, state)
            else:  # assert
                if cdiv:
                    self._add_edge(edges, taken_block, state)
                    self._add_edge(edges, fall_block, state)
                elif facts.agree == "taken":
                    self._add_edge(edges, taken_block, state)
                    self._add_edge(edges, fall_block, broken)
                else:
                    self._add_edge(edges, fall_block, state)
                    self._add_edge(edges, taken_block, broken)
            return edges
        if kind == "jr":
            if cdiv or instr.rs in div:
                broken = (div | facts.break_poison, True, True)
                return {succ: broken for succ in succs}
            return {succ: state for succ in succs}
        # jump, jal, wild terminator, or plain fall-through.
        return {succ: state for succ in succs}

    @staticmethod
    def _add_edge(edges: Dict[int, _State], block_index, state: _State):
        if block_index is None:
            return
        if block_index in edges:
            edges[block_index] = _join(edges[block_index], state)
        else:
            edges[block_index] = state

    def _writable_from(self, anchor_blocks) -> FrozenSet[int]:
        """Registers the original may write anywhere reachable from a fork."""
        writable: Set[int] = set()
        for index in self.ocfg.reachable_from(anchor_blocks):
            for instr in self.ocfg.blocks[index].instructions:
                writable |= instr.defs()
        return frozenset(writable) - {ZERO}


def prove_safety(original: Program, distilled: Program, pc_map) -> SafetyReport:
    """Classify every fork anchor's live-in registers. Never raises.

    Any structural surprise — missing provenance, corrupted or synthetic
    masters, anchors that are not block leaders — degrades to a *bailed*
    report with every cell UNPROVEN, which the runtime treats exactly like
    the pre-analysis world: verify everything dynamically.
    """
    try:
        return _Prover(original, distilled, pc_map).prove()
    except _Bail as bail:  # pragma: no cover - _Prover.prove catches these
        return SafetyReport(bailed=True, bail_reason=str(bail))
    except Exception as exc:  # noqa: BLE001 - deliberate catch-all
        return SafetyReport(
            bailed=True,
            bail_reason=f"prover error: {type(exc).__name__}: {exc}",
        )
