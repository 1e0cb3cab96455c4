"""Fork (task-boundary) placement pass.

Chooses the *anchors* — original-program pcs at which tasks begin — and
inserts task-spawning code at the top of each anchor's distilled block.
When the master reaches a fork it closes the task it is currently
predicting and ships a checkpoint for the next one.

Selection is region-aware, mirroring the paper's goals (boundaries at
loop iterations and call sites, sized near ``target_task_size``):

* every natural loop whose body accounts for at least
  ``MIN_REGION_SHARE`` of the training run gets an anchor at its header
  — this guarantees hot phases are covered (a hot region with no anchor
  would execute as one giant, budget-overflowing task);
* loop-free call-dominated programs fall back to function entries;
* each anchor gets a per-anchor **stride**: if one execution of the
  anchor corresponds to fewer than ``target_task_size`` dynamic
  instructions (a small loop body), the distilled program counts anchor
  arrivals in a scratch register and forks only every *k*-th arrival,
  so tasks span several iterations.

The stride counter lives in a register the original program never
touches (so no slave will ever read the master's counter as a live-in)
and is reset immediately **after** the fork — which is exactly where the
pc map's resume point lands, so a restarted master starts a fresh
countdown for free.  Anchors with no free scratch register degrade to
stride 1.

Each inserted fork carries a register *use set* for dead-code
elimination: the registers live at the anchor **in the original
program** (what a slave may read from the checkpoint), plus the scratch
register when strided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.liveness import LivenessInfo
from repro.analysis.loops import LoopForest
from repro.config import DistillConfig
from repro.distill.ir import DInstr, DistillIR, block_name_for
from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import NUM_REGS, ZERO
from repro.profiling.profile_data import Profile

#: A loop must cover this share of the training run to earn an anchor.
MIN_REGION_SHARE = 0.02

#: Checker invariants this pass must leave intact (docs/static-checks.md).
#: Fork placement is the pass that *establishes* the fork discipline:
#: anchors at original block leaders (IR010), one fork per anchor
#: (IR009), and use sets covering original-program liveness at the
#: anchor (IR006) — plus block-structure integrity across the strided
#: block splits it performs.
PASS_INVARIANTS = (
    "IR001", "IR002", "IR003", "IR004", "IR005", "IR006", "IR009", "IR010",
)


@dataclass(frozen=True)
class AnchorPlan:
    """One selected anchor: where, how often, and with which scratch reg."""

    pc: int
    stride: int
    scratch_reg: Optional[int]
    #: Estimated dynamic instructions between consecutive anchor arrivals.
    spacing: float


@dataclass
class ForkPlacementStats:
    """What the pass did (for the distillation report)."""

    candidates: int = 0
    anchors: List[int] = field(default_factory=list)
    plans: List[AnchorPlan] = field(default_factory=list)
    expected_task_size: float = 0.0


def run_fork_placement(
    ir: DistillIR,
    profile: Profile,
    cfg: ControlFlowGraph,
    loops: LoopForest,
    liveness: LivenessInfo,
    config: DistillConfig,
) -> ForkPlacementStats:
    """Choose anchors and insert (possibly strided) forks, in place."""
    stats = ForkPlacementStats()
    surviving = {
        block.orig_start_pc for block in ir.blocks
        if block.orig_start_pc is not None
    }
    plans = _plan_anchors(profile, cfg, loops, config, surviving)
    stats.candidates = len(plans)
    scratch_pool = _untouched_registers(cfg)
    expected_forks = 0.0
    for plan_index, plan in enumerate(plans):
        scratch = (
            scratch_pool[plan_index % len(scratch_pool)]
            if scratch_pool and plan.stride > 1 else None
        )
        stride = plan.stride if scratch is not None else 1
        final = AnchorPlan(
            pc=plan.pc, stride=stride, scratch_reg=scratch,
            spacing=plan.spacing,
        )
        _insert_fork(ir, cfg, liveness, final)
        stats.plans.append(final)
        stats.anchors.append(plan.pc)
        expected_forks += profile.exec_count(plan.pc) / stride
    if expected_forks:
        stats.expected_task_size = (
            profile.total_instructions / expected_forks
        )
    return stats


# -- anchor selection -----------------------------------------------------------


def _plan_anchors(
    profile: Profile,
    cfg: ControlFlowGraph,
    loops: LoopForest,
    config: DistillConfig,
    surviving: Set[int],
) -> List[AnchorPlan]:
    total = profile.total_instructions
    if not total:
        return []
    candidates: List[AnchorPlan] = []
    seen: Set[int] = set()
    ranked = sorted(
        loops.loops,
        key=lambda loop: -_region_instrs(loop, cfg, profile),
    )
    for loop in ranked:
        header_pc = cfg.blocks[loop.header].start
        count = profile.exec_count(header_pc)
        region = _region_instrs(loop, cfg, profile)
        if (
            header_pc == cfg.program.entry
            or header_pc not in surviving
            or header_pc in seen
            or count == 0
            or region / total < MIN_REGION_SHARE
        ):
            continue
        spacing = region / count
        candidates.append(_make_plan(header_pc, spacing, config))
        seen.add(header_pc)
    if not candidates:
        candidates = _function_entry_plans(
            profile, cfg, config, surviving, total
        )
    return candidates[: config.max_anchors]


def _region_instrs(loop, cfg: ControlFlowGraph, profile: Profile) -> int:
    return sum(
        profile.exec_count(pc)
        for block_index in loop.body
        for pc in cfg.blocks[block_index].pcs
    )


def _function_entry_plans(
    profile: Profile,
    cfg: ControlFlowGraph,
    config: DistillConfig,
    surviving: Set[int],
    total: int,
) -> List[AnchorPlan]:
    plans: List[AnchorPlan] = []
    seen: Set[int] = set()
    entries = sorted(
        {
            int(instr.target)
            for instr in cfg.program.code
            if instr.op is Opcode.JAL
        },
        key=lambda pc: -profile.exec_count(pc),
    )
    for pc in entries:
        count = profile.exec_count(pc)
        if pc == cfg.program.entry or pc not in surviving or pc in seen:
            continue
        if count == 0:
            continue
        spacing = total / count
        plans.append(_make_plan(pc, spacing, config))
        seen.add(pc)
    return plans


def _make_plan(pc: int, spacing: float, config: DistillConfig) -> AnchorPlan:
    stride = max(1, round(config.target_task_size / max(spacing, 1.0)))
    return AnchorPlan(pc=pc, stride=stride, scratch_reg=None, spacing=spacing)


def _untouched_registers(cfg: ControlFlowGraph) -> List[int]:
    """Registers the original program neither reads nor writes.

    Safe as master-private scratch: no slave can ever record one as a
    live-in, and no committed live-out can ever overwrite one.
    """
    touched: Set[int] = {ZERO}
    for instr in cfg.program.code:
        touched |= instr.uses()
        touched |= instr.defs()
    return [reg for reg in range(1, NUM_REGS) if reg not in touched]


# -- fork emission ---------------------------------------------------------------


def _insert_fork(
    ir: DistillIR,
    cfg: ControlFlowGraph,
    liveness: LivenessInfo,
    plan: AnchorPlan,
) -> None:
    block = ir.block(block_name_for(plan.pc))
    live_regs = frozenset(liveness.live_in[cfg.block_of_pc[plan.pc]])
    fork_uses = live_regs | (
        {plan.scratch_reg} if plan.scratch_reg is not None else set()
    )
    fork = DInstr(
        Instruction(op=Opcode.FORK, target=plan.pc),
        orig_pc=None,
        uses_override=frozenset(fork_uses),
    )
    if plan.stride <= 1 or plan.scratch_reg is None:
        block.instrs.insert(0, fork)
        return
    # Strided fork: countdown in the scratch register.  The reset lands
    # immediately after the fork, i.e. exactly at the pc-map resume
    # point, so restarts begin a fresh countdown.
    scratch = plan.scratch_reg
    skip_label = f"{block.name}__strideskip"
    countdown = [
        DInstr(
            Instruction(op=Opcode.ADDI, rd=scratch, rs=scratch, imm=-1),
            uses_override=frozenset({scratch}),
        ),
        DInstr(
            Instruction(op=Opcode.BGE, rs=scratch, rt=ZERO, target=skip_label)
        ),
        fork,
        DInstr(Instruction(op=Opcode.LI, rd=scratch, imm=plan.stride - 1)),
    ]
    # Split the anchor block: countdown prologue falls through into the
    # original body, with the skip label bound to the body's start.
    body = ir.block(block_name_for(plan.pc))
    prologue = countdown
    rest = body.instrs
    body.instrs = prologue + rest
    # The branch target needs a real block: split at the body start.
    _split_block_after_prologue(ir, body, len(prologue), skip_label)


def _split_block_after_prologue(
    ir: DistillIR, block, prologue_len: int, skip_label: str
) -> None:
    """Split ``block`` so its post-prologue tail is addressable."""
    from repro.distill.ir import DBlock

    tail = DBlock(
        name=skip_label,
        # Shares the parent's origin so layout keeps the pair adjacent
        # (the parent sorts first: its name is a strict prefix).
        orig_start_pc=block.orig_start_pc,
        instrs=block.instrs[prologue_len:],
        fallthrough=block.fallthrough,
        requires_adjacent_fallthrough=block.requires_adjacent_fallthrough,
    )
    block.instrs = block.instrs[:prologue_len]
    block.fallthrough = skip_label
    block.requires_adjacent_fallthrough = False
    index = ir.blocks.index(block)
    ir.blocks.insert(index + 1, tail)
