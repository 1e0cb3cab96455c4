"""Dead-code elimination over the distiller IR.

After branch assertion, the asserted branches' condition chains are
usually dead; after value specialization, address computations feeding
specialized loads may be too.  This pass runs backward register liveness
over the *IR* graph (symbolic successors, ``jr`` → surviving return
sites) and deletes pure instructions whose destinations are dead.

Two MSSP-specific points:

* ``fork`` instructions carry a use-set override — the registers live at
  their anchor in the **original** program — so values slaves will read
  from checkpoints are kept alive in the distilled program;
* nothing with a side effect (stores, control flow, forks, ``jal``) is
  ever deleted here.

The pass iterates to a fixed point: deleting one instruction can kill the
producers feeding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set

from repro.config import DistillConfig
from repro.distill.ir import DistillIR
from repro.isa.registers import ZERO

#: Checker invariants this pass must leave intact (docs/static-checks.md).
#: DCE deletes pure instructions only, so block edges survive; the
#: critical obligation is IR006 — fork use sets must keep anchor-live
#: registers' producers alive, which is exactly what this pass consults
#: them for.
PASS_INVARIANTS = (
    "IR001", "IR002", "IR003", "IR004", "IR005", "IR006", "IR009", "IR010",
)


@dataclass
class DceStats:
    """What the pass did (for the distillation report)."""

    instrs_removed: int = 0
    iterations: int = 0


def run_dce(ir: DistillIR, config: DistillConfig) -> DceStats:
    """Iteratively remove dead pure instructions, in place."""
    del config  # no knobs today; kept for signature symmetry with passes
    stats = DceStats()
    while True:
        stats.iterations += 1
        removed = _one_round(ir)
        stats.instrs_removed += removed
        if not removed:
            return stats


def _one_round(ir: DistillIR) -> int:
    live_out = _block_liveness(ir)
    removed = 0
    for block in ir.blocks:
        live: Set[int] = set(live_out[block.name])
        survivors = []
        for dinstr in reversed(block.instrs):
            defs = dinstr.defs()
            pure = not dinstr.instr.has_side_effect
            if pure and defs and not (defs & live):
                removed += 1
                continue
            if pure and not defs and dinstr.instr.op.mnemonic == "nop":
                removed += 1
                continue
            live -= defs
            live |= {r for r in dinstr.uses() if r != ZERO}
            survivors.append(dinstr)
        survivors.reverse()
        block.instrs = survivors
    return removed


def _block_liveness(ir: DistillIR) -> Dict[str, FrozenSet[int]]:
    """Backward liveness over IR blocks; returns live-out per block name."""
    return_sites = [name for name in ir.return_site_names() if name]
    existing = ir.block_names()
    successors: Dict[str, List[str]] = {
        block.name: [
            s for s in block.successor_names(return_sites) if s in existing
        ]
        for block in ir.blocks
    }
    gen: Dict[str, Set[int]] = {}
    kill: Dict[str, Set[int]] = {}
    for block in ir.blocks:
        used: Set[int] = set()
        defined: Set[int] = set()
        for dinstr in block.instrs:
            used |= {
                r for r in dinstr.uses() if r != ZERO and r not in defined
            }
            defined |= dinstr.defs()
        gen[block.name] = used
        kill[block.name] = defined

    live_in: Dict[str, Set[int]] = {b.name: set() for b in ir.blocks}
    live_out: Dict[str, Set[int]] = {b.name: set() for b in ir.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(ir.blocks):
            name = block.name
            out: Set[int] = set()
            for succ in successors[name]:
                out |= live_in[succ]
            new_in = gen[name] | (out - kill[name])
            if out != live_out[name] or new_in != live_in[name]:
                live_out[name] = out
                live_in[name] = new_in
                changed = True
    return {name: frozenset(s) for name, s in live_out.items()}
