"""Biased-branch assertion pass.

A conditional branch whose profiled bias meets the threshold is *asserted*:
the distilled program simply assumes the dominant direction.

* dominant direction = not-taken  →  the branch is deleted (control falls
  through unconditionally);
* dominant direction = taken      →  the branch becomes an unconditional
  ``j`` to its target.

The condition computation usually dies with the branch and is cleaned up
by dead-code elimination afterwards.

Liveness-of-the-master constraints (the real distiller has the same):

* **back edges are never asserted** — asserting a loop's dominant
  continue direction would make the distilled loop infinite;
* **a loop's last exit is never asserted away** — if the branch's rare
  direction leaves an enclosing loop, it is removed only while that loop
  retains at least one other exit edge in the distilled program.

Violating either would not be *incorrect* (the MSSP engine bounds the
master and recovers), but it would turn every affected task into a
master timeout, which no sane distiller emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import LoopForest
from repro.config import DistillConfig
from repro.distill.ir import DistillIR
from repro.isa.instructions import Instruction, Opcode
from repro.profiling.profile_data import Profile

#: Checker invariants this pass must leave intact (docs/static-checks.md).
#: Branch assertion rewrites terminators and clears fallthroughs; every
#: surviving symbolic edge must still resolve (IR003) and stranded
#: rare-path blocks may only become *unreachable* (IR008 warning), never
#: dangle.
PASS_INVARIANTS = ("IR001", "IR002", "IR003", "IR004", "IR005")


@dataclass
class BranchRemovalStats:
    """What the pass did (for the distillation report)."""

    sites: int = 0
    asserted_taken: int = 0
    asserted_not_taken: int = 0
    skipped_back_edges: int = 0
    skipped_loop_exits: int = 0
    #: ``(original pc, dominant_taken)`` per asserted branch — the
    #: Redistiller walks each suppressed successor's write set against
    #: squash-observed mismatched registers to decide what to de-assert.
    asserted_sites: List[Tuple[int, bool]] = field(default_factory=list)


def run_branch_removal(
    ir: DistillIR,
    profile: Profile,
    cfg: ControlFlowGraph,
    domtree: DominatorTree,
    loops: LoopForest,
    config: DistillConfig,
) -> BranchRemovalStats:
    """Assert sufficiently biased, liveness-safe branches, in place."""
    stats = BranchRemovalStats()
    reachable = set(domtree.reachable)
    exit_budget = _initial_exit_counts(cfg, loops)
    for block in ir.blocks:
        last = block.last
        if last is None or not last.instr.is_branch or last.orig_pc is None:
            continue
        stats.sites += 1
        branch = profile.branch_bias(last.orig_pc)
        if (
            branch is None
            or branch.count < config.min_branch_count
            or branch.bias < config.branch_bias_threshold
        ):
            continue
        source = cfg.block_of_pc[last.orig_pc]
        if source not in reachable:
            continue
        taken_target = cfg.block_of_pc[int(cfg.program.code[last.orig_pc].target)]
        fall_pc = last.orig_pc + 1
        fall_target = cfg.block_of_pc.get(fall_pc)
        if branch.dominant_taken:
            keep, drop = taken_target, fall_target
        else:
            keep, drop = fall_target, taken_target
        if keep is None:
            continue
        if keep in reachable and domtree.dominates(keep, source):
            stats.skipped_back_edges += 1
            continue
        if drop is not None and not _may_drop_edge(
            loops, exit_budget, source, drop
        ):
            stats.skipped_loop_exits += 1
            continue
        if drop is not None:
            _consume_exit(loops, exit_budget, source, drop)
        if branch.dominant_taken:
            block.instrs[-1].instr = Instruction(
                op=Opcode.J, target=last.instr.target
            )
            block.fallthrough = None
            stats.asserted_taken += 1
            stats.asserted_sites.append((last.orig_pc, True))
        else:
            block.instrs.pop()
            stats.asserted_not_taken += 1
            stats.asserted_sites.append((last.orig_pc, False))
    return stats


def _initial_exit_counts(
    cfg: ControlFlowGraph, loops: LoopForest
) -> Dict[int, int]:
    """Exit-edge count per loop header, over all CFG edges."""
    counts: Dict[int, int] = {}
    for loop in loops.loops:
        exits = 0
        for src in loop.body:
            for dst in cfg.successors[src]:
                if dst not in loop.body:
                    exits += 1
        counts[loop.header] = exits
    return counts


def _exit_loops(
    loops: LoopForest, source: int, destination: int
) -> List[int]:
    """Headers of loops the edge source→destination exits."""
    return [
        loop.header
        for loop in loops.loops
        if source in loop.body and destination not in loop.body
    ]


def _may_drop_edge(
    loops: LoopForest, budget: Dict[int, int], source: int, destination: int
) -> bool:
    """True when removing the edge leaves every enclosing loop an exit."""
    return all(
        budget[header] >= 2
        for header in _exit_loops(loops, source, destination)
    )


def _consume_exit(
    loops: LoopForest, budget: Dict[int, int], source: int, destination: int
) -> None:
    for header in _exit_loops(loops, source, destination):
        budget[header] -= 1
