"""Static analyses over Z-ISA programs: CFG, dominators, loops, liveness,
and the soundness checker (:mod:`repro.analysis.checker`)."""

from repro.analysis.cfg import BasicBlock, ControlFlowGraph, build_cfg
from repro.analysis.checker import (
    CHECKS,
    CheckFinding,
    CheckReport,
    Severity,
    check_code,
    check_decoded,
    check_distillation,
    check_ir,
    check_program,
    predicted_squash_reasons,
)
from repro.analysis.dominators import DominatorTree, build_dominator_tree
from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.analysis.loops import Loop, LoopForest, analyze_loops, find_loops

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "build_cfg",
    "CHECKS",
    "CheckFinding",
    "CheckReport",
    "Severity",
    "check_code",
    "check_decoded",
    "check_distillation",
    "check_ir",
    "check_program",
    "predicted_squash_reasons",
    "DominatorTree",
    "build_dominator_tree",
    "LivenessInfo",
    "compute_liveness",
    "Loop",
    "LoopForest",
    "analyze_loops",
    "find_loops",
]
