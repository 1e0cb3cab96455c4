"""Static soundness checker for Z-ISA programs, distiller IR, and pc maps.

MSSP's runtime correctness story never depends on the distiller (every
task is verified before commit), but an *unsound* distiller pass is still
a bug — it shows up as a mysterious squash storm instead of a diagnostic.
This module is the LLVM-verifier analogue for this codebase: a set of
cheap static checks, each with a stable ID, that pin every structural
invariant the distiller and the pc map are supposed to maintain.  See
``docs/static-checks.md`` for the catalogue and the paper/DESIGN.md
obligation each check discharges.

Four check layers, mirroring the artifacts:

* :func:`check_program` / :func:`check_code` — any flat Z-ISA
  instruction sequence: target ranges, ``jal`` link-register adjacency,
  may-reach-undef register dataflow, unreachable code, fall-off-the-end;
* :func:`check_ir` — the distiller's block IR between passes: name and
  successor integrity, ``TRAP_BLOCK`` edge discipline, fork use-set
  consistency against original-program liveness, ``orig_pc`` provenance;
* :func:`check_distillation` — the final distilled program against its
  :class:`~repro.distill.pc_map.PcMap`: resume/arrival placement, the
  return-pc (``jr``) table's layout round-trip, fork/anchor coverage;
* :func:`check_decoded` — a program's pre-decoded execution engine
  (:mod:`repro.machine.decoded`): cache identity discipline, decode
  metadata round-trip against the source instructions, superstep chain
  structure.

Checks *report*; they never raise.  The distiller's
``verify_after_each_pass`` debug mode and the ``repro lint`` CLI
subcommand turn error findings into :class:`~repro.errors.CheckFailure`
and a nonzero exit status respectively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_REGS, RA, ZERO

#: Check catalogue: stable ID -> one-line invariant.  ``docs/static-checks.md``
#: documents each entry; a test asserts the two stay in sync.
CHECKS: Dict[str, str] = {
    # -- flat program checks -------------------------------------------------
    "PROG001": "every branch/jump target lies inside the text section",
    "PROG002": "no unresolved symbolic (label) targets survive assembly",
    "PROG003": "no reachable path falls off the end of the text",
    "PROG004": "no reachable use of a register that may still be undefined",
    "PROG005": "all instructions are reachable from the entry point",
    "PROG006": "every jal has a return site (jal never ends the text)",
    "PROG007": "a halt instruction is reachable from the entry point",
    "PROG008": "jr only appears where return sites are known",
    # -- distiller IR checks -------------------------------------------------
    "IR001": "IR block names are unique",
    "IR002": "the IR entry block exists",
    "IR003": "every symbolic successor (target/fallthrough) names a block",
    "IR004": "the trap block is a lone halt with no successors",
    "IR005": "instruction provenance (orig_pc) points into the original text",
    "IR006": "each fork's use set covers original-program liveness at its anchor",
    "IR007": "required-adjacent fallthroughs (jal return sites) exist",
    "IR008": "all IR blocks are reachable from the entry block",
    "IR009": "no two forks share an anchor",
    "IR010": "every fork anchor is an original-program block leader",
    # -- pc-map / distilled-artifact checks ---------------------------------
    "MAP001": "every resume pc lies inside the distilled text",
    "MAP002": "each anchor resumes immediately after its own fork",
    "MAP003": "each arrival pc is the start of its anchor's distilled block",
    "MAP004": "the jr table round-trips return pcs through layout",
    "MAP005": "every fork instruction's target is a mapped anchor",
    "MAP006": "the pc map covers the original program's entry point",
    "MAP007": "every anchor is a valid original-program pc",
    # -- decoded execution-engine checks -------------------------------------
    "DEC001": "decoding is cached per program object and per mode",
    "DEC002": "every decoded closure's bound facts round-trip to its source "
              "instruction",
    "DEC003": "superstep chains stop exactly at block terminators, with "
              "correct halt flags and load counts",
    "DEC004": "every compiled chain leaves exactly the state that stepping "
              "its span with the semantic oracle leaves, on seeded register "
              "files",
    # -- superblock JIT checks ------------------------------------------------
    "JIT001": "jit compilation is cached per program object and per codegen "
              "mode, and regions start only at block leaders",
    "JIT002": "every compiled region's trace, source, and length round-trip "
              "from the program",
    "JIT003": "compiled regions reproduce per-step decoded execution on "
              "fuzzed machine states",
    "JIT004": "every promoted superblock link re-derives: link targets are "
              "compiled leaders inside the fused trace, and followed "
              "branches continue at their taken target",
    # -- runtime event-stream checks ------------------------------------------
    "RT001": "tasks are judged strictly in fork order and committed tids "
             "strictly increase",
    "RT002": "a squash discards every in-flight successor: none is judged "
             "again before being re-forked",
    "RT003": "every 'redistilled' event is preceded by at least its "
             "embedded threshold of live-in squashes attributed to the "
             "re-distilled region",
    "RT004": "every accepted episode reaches exactly one terminal event "
             "(completed or shed) and no server worker ever exceeds its "
             "declared episode capacity",
    # -- dataflow / speculation-safety checks ---------------------------------
    "DF001": "every dataflow solution is a true fixpoint (one more transfer "
             "round does not move it)",
    "DF002": "abstract dataflow states contain every concretely reachable "
             "register state (bounded oracle run)",
    "DF003": "safety-report regions and pc-map fork anchors coincide",
    "DF004": "every statically classified safety cell is live-in at its "
             "anchor in the original program",
    "DF005": "no statically PROVEN live-in register mismatches at runtime "
             "(differential check-mode run)",
    # -- clock checks ---------------------------------------------------------
    "SIM001": "every emitted runtime event carries a clock stamp and, per "
              "emitting actor, stamps never decrease across the stream",
}


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are soundness violations (the artifact breaks an
    invariant the engine or the distiller relies on); ``WARNING``
    findings are suspicious-but-legal (dead code, may-undefined reads —
    the machine zero-initializes registers, so these cannot fault).
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class CheckFinding:
    """One diagnostic: a check ID, a severity, and a location."""

    check_id: str
    severity: Severity
    message: str
    #: Location in the checked artifact's own pc space (flat programs
    #: and distilled artifacts), when known.
    pc: Optional[int] = None
    #: IR block name, for IR-layer findings.
    block: Optional[str] = None
    #: Original-program provenance, when known.
    orig_pc: Optional[int] = None

    def location(self) -> str:
        parts: List[str] = []
        if self.block is not None:
            parts.append(f"block {self.block}")
        if self.pc is not None:
            parts.append(f"pc {self.pc}")
        if self.orig_pc is not None:
            parts.append(f"orig pc {self.orig_pc}")
        return ", ".join(parts) if parts else "program"

    def render(self) -> str:
        return (
            f"{self.severity.value}[{self.check_id}] "
            f"{self.location()}: {self.message}"
        )

    def to_json(self) -> Dict[str, object]:
        """The finding as the shared machine-readable schema.

        ``repro lint --format json`` and ``repro analyze --format json``
        both emit findings in exactly this shape.
        """
        return {
            "check_id": self.check_id,
            "severity": self.severity.value,
            "message": self.message,
            "pc": self.pc,
            "block": self.block,
            "orig_pc": self.orig_pc,
        }


@dataclass
class CheckReport:
    """All findings from one checker run over one artifact."""

    subject: str
    findings: List[CheckFinding] = field(default_factory=list)

    @property
    def errors(self) -> List[CheckFinding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[CheckFinding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no *error* findings exist (warnings are allowed)."""
        return not self.errors

    def extend(self, other: "CheckReport") -> None:
        self.findings.extend(other.findings)

    def render(self, show_warnings: bool = True) -> str:
        status = "ok" if self.ok else "FAIL"
        lines = [
            f"{self.subject}: {status} "
            f"({len(self.errors)} errors, {len(self.warnings)} warnings)"
        ]
        for finding in self.findings:
            if finding.severity is Severity.WARNING and not show_warnings:
                continue
            lines.append("  " + finding.render())
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """The report as the shared machine-readable schema."""
        return {
            "subject": self.subject,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [finding.to_json() for finding in self.findings],
        }


def _finding(
    report: CheckReport,
    check_id: str,
    severity: Severity,
    message: str,
    pc: Optional[int] = None,
    block: Optional[str] = None,
    orig_pc: Optional[int] = None,
) -> None:
    assert check_id in CHECKS, f"unregistered check id {check_id!r}"
    report.findings.append(
        CheckFinding(
            check_id=check_id, severity=severity, message=message,
            pc=pc, block=block, orig_pc=orig_pc,
        )
    )


# ---------------------------------------------------------------------------
# Layer 1: flat Z-ISA instruction sequences
# ---------------------------------------------------------------------------


def check_program(
    program: Program, subject: Optional[str] = None
) -> CheckReport:
    """Statically check an assembled :class:`Program`."""
    return check_code(
        program.code, program.entry, subject=subject or program.name
    )


def check_code(
    code: Sequence[Instruction],
    entry: int = 0,
    subject: str = "code",
    jr_targets: Iterable[int] = (),
) -> CheckReport:
    """Statically check a raw instruction sequence.

    Unlike the :class:`Program` constructor this never raises — it
    reports, which is what lets tests feed it deliberately corrupted
    code.  ``jr_targets`` supplies extra known indirect-jump landing
    sites (a distilled program's ``jr`` goes through the pc map's jr
    table; passing its values here lets reachability flow through
    returns).
    """
    report = CheckReport(subject=subject)
    size = len(code)
    if size == 0:
        _finding(report, "PROG003", Severity.ERROR, "program has no code")
        return report
    if not 0 <= entry < size:
        _finding(
            report, "PROG001", Severity.ERROR,
            f"entry point {entry} outside text [0, {size})",
        )
        return report

    # Structural per-instruction checks (targets, jal adjacency).
    return_sites = sorted(
        {pc + 1 for pc, i in enumerate(code) if i.op is Opcode.JAL}
        | {t for t in jr_targets if 0 <= t < size}
    )
    for pc, instr in enumerate(code):
        target = instr.target
        if isinstance(target, str):
            _finding(
                report, "PROG002", Severity.ERROR,
                f"unresolved symbolic target {target!r}", pc=pc,
            )
            continue
        if instr.op is Opcode.FORK:
            if not isinstance(target, int) or target < 0:
                _finding(
                    report, "PROG001", Severity.ERROR,
                    f"fork target {target!r} is not a valid original pc",
                    pc=pc,
                )
            continue
        if target is not None and not 0 <= target < size:
            _finding(
                report, "PROG001", Severity.ERROR,
                f"{instr.op.mnemonic} target {target} outside text "
                f"[0, {size})", pc=pc,
            )
        if instr.op is Opcode.JAL and pc + 1 >= size:
            _finding(
                report, "PROG006", Severity.ERROR,
                "jal at the last pc: its link register would point past "
                "the end of the text", pc=pc,
            )

    if report.errors:
        # Successor computation below assumes in-range targets.
        return report

    successors = _instruction_successors(code, return_sites)
    reachable = _reachable_pcs(successors, entry, size)

    # PROG003: fall-off-the-end, PROG007: reachable halt, PROG008: blind jr.
    halt_reachable = False
    for pc in sorted(reachable):
        instr = code[pc]
        if instr.op is Opcode.HALT:
            halt_reachable = True
        if instr.op is Opcode.JR and not return_sites:
            _finding(
                report, "PROG008", Severity.WARNING,
                "jr with no statically known return sites (no jal in this "
                "text and no jr table supplied)", pc=pc,
            )
        if size in successors[pc]:
            _finding(
                report, "PROG003", Severity.ERROR,
                "control can run past the end of the text "
                f"({instr.op.mnemonic} falls through to pc {size})", pc=pc,
            )
    if not halt_reachable:
        _finding(
            report, "PROG007", Severity.WARNING,
            "no halt instruction is reachable from the entry point",
        )

    # PROG005: unreachable code, reported as contiguous ranges.
    for start, end in _unreachable_ranges(reachable, size):
        span = f"pc {start}" if end == start + 1 else f"pcs {start}-{end - 1}"
        _finding(
            report, "PROG005", Severity.WARNING,
            f"unreachable code ({span}, {end - start} instructions)",
            pc=start,
        )

    _check_may_undef(report, code, successors, reachable, entry)
    return report


def _instruction_successors(
    code: Sequence[Instruction], return_sites: List[int]
) -> List[List[int]]:
    """Per-pc successor pcs; ``len(code)`` encodes falling off the end."""
    size = len(code)
    successors: List[List[int]] = []
    for pc, instr in enumerate(code):
        if instr.op is Opcode.HALT:
            successors.append([])
        elif instr.is_branch:
            successors.append([pc + 1, int(instr.target)])
        elif instr.op in (Opcode.J, Opcode.JAL):
            successors.append([int(instr.target)])
        elif instr.op is Opcode.JR:
            successors.append(list(return_sites))
        else:  # straight-line (fork included: sequentially it is a nop)
            successors.append([pc + 1])
    return successors


def _reachable_pcs(
    successors: List[List[int]], entry: int, size: int
) -> Set[int]:
    seen: Set[int] = set()
    stack = [entry]
    while stack:
        pc = stack.pop()
        if pc in seen or pc >= size:
            continue
        seen.add(pc)
        stack.extend(successors[pc])
    return seen


def _unreachable_ranges(
    reachable: Set[int], size: int
) -> List[Tuple[int, int]]:
    """Maximal [start, end) runs of unreachable pcs."""
    ranges: List[Tuple[int, int]] = []
    start: Optional[int] = None
    for pc in range(size + 1):
        dead = pc < size and pc not in reachable
        if dead and start is None:
            start = pc
        elif not dead and start is not None:
            ranges.append((start, pc))
            start = None
    return ranges


#: Bitmask with every register marked defined.
_ALL_DEFINED = (1 << NUM_REGS) - 1


def _check_may_undef(
    report: CheckReport,
    code: Sequence[Instruction],
    successors: List[List[int]],
    reachable: Set[int],
    entry: int,
) -> None:
    """PROG004: forward must-be-defined dataflow (bitmask lattice).

    A register is *may-undefined* at a pc if some path from the entry
    reaches that pc without writing it.  Reading one is legal (the
    machine zero-initializes the register file) but is either dead code
    or an unintended dependency on the boot value, so it is a warning.
    Registers are defined at entry only for ``r0`` (architecturally
    constant); ``jal`` defines ``ra``.
    """
    size = len(code)
    # defined_in[pc]: bitmask of registers defined on *every* path to pc.
    defined_in: Dict[int, int] = {pc: _ALL_DEFINED for pc in reachable}
    defined_in[entry] = 1 << ZERO
    worklist = [entry]
    while worklist:
        pc = worklist.pop()
        mask = defined_in[pc]
        instr = code[pc]
        for reg in instr.defs():
            mask |= 1 << reg
        if instr.op is Opcode.JAL:
            mask |= 1 << RA
        for succ in successors[pc]:
            if succ >= size or succ not in reachable:
                continue
            merged = defined_in[succ] & mask
            if merged != defined_in[succ]:
                defined_in[succ] = merged
                worklist.append(succ)
    seen: Set[Tuple[int, int]] = set()
    for pc in sorted(reachable):
        mask = defined_in[pc]
        for reg in sorted(code[pc].uses()):
            if reg == ZERO or mask & (1 << reg):
                continue
            if (pc, reg) in seen:
                continue
            seen.add((pc, reg))
            _finding(
                report, "PROG004", Severity.WARNING,
                f"r{reg} may be read before any definition "
                f"(defaults to the boot value 0)", pc=pc,
            )


# ---------------------------------------------------------------------------
# Layer 2: the distiller IR
# ---------------------------------------------------------------------------


def check_ir(
    ir,
    pass_name: Optional[str] = None,
    cfg=None,
    liveness=None,
) -> CheckReport:
    """Statically check a :class:`~repro.distill.ir.DistillIR` snapshot.

    ``pass_name`` labels the report after the pass that just ran (used
    by the distiller's ``verify_after_each_pass`` mode).  ``cfg`` and
    ``liveness`` are the original program's
    :class:`~repro.analysis.cfg.ControlFlowGraph` and
    :class:`~repro.analysis.liveness.LivenessInfo`; callers that already
    hold them (the distiller computes both once up front) pass them in
    so the per-pass fork checks stop recomputing them.
    """
    from repro.distill.ir import TRAP_BLOCK

    label = f"ir after {pass_name}" if pass_name else "ir"
    report = CheckReport(subject=f"{ir.program.name}: {label}")
    orig_size = len(ir.program.code)

    names: List[str] = [block.name for block in ir.blocks]
    name_set: Set[str] = set()
    for name in names:
        if name in name_set:
            _finding(
                report, "IR001", Severity.ERROR,
                "duplicate IR block name", block=name,
            )
        name_set.add(name)
    if ir.entry_name not in name_set:
        _finding(
            report, "IR002", Severity.ERROR,
            f"entry block {ir.entry_name!r} does not exist",
        )

    fork_sites: List[Tuple[str, object]] = []  # (block name, DInstr)
    for block in ir.blocks:
        last = block.last
        if last is not None and isinstance(last.instr.target, str):
            if last.instr.target not in name_set:
                _finding(
                    report, "IR003", Severity.ERROR,
                    f"terminator targets missing block "
                    f"{last.instr.target!r}",
                    block=block.name, orig_pc=last.orig_pc,
                )
        if block.fallthrough is not None and block.fallthrough not in name_set:
            _finding(
                report, "IR003", Severity.ERROR,
                f"fallthrough names missing block {block.fallthrough!r}",
                block=block.name,
            )
        if block.requires_adjacent_fallthrough and block.fallthrough is None:
            _finding(
                report, "IR007", Severity.ERROR,
                "block requires an adjacent fallthrough but has none "
                "(its jal return site was deleted)", block=block.name,
            )
        if block.name == TRAP_BLOCK:
            shape_ok = (
                len(block.instrs) == 1
                and block.instrs[0].instr.op is Opcode.HALT
                and block.fallthrough is None
            )
            if not shape_ok:
                _finding(
                    report, "IR004", Severity.ERROR,
                    "trap block must be a lone halt with no successors",
                    block=block.name,
                )
        for dinstr in block.instrs:
            if dinstr.orig_pc is not None and not (
                0 <= dinstr.orig_pc < orig_size
            ):
                _finding(
                    report, "IR005", Severity.ERROR,
                    f"provenance orig_pc {dinstr.orig_pc} outside the "
                    f"original text [0, {orig_size})", block=block.name,
                )
            if dinstr.instr.op is Opcode.FORK:
                fork_sites.append((block.name, dinstr))

    _check_ir_forks(report, ir, fork_sites, orig_size, cfg, liveness)

    if ir.entry_name in name_set:
        reachable = ir.reachable_names()
        for block in ir.blocks:
            if block.name not in reachable:
                _finding(
                    report, "IR008", Severity.WARNING,
                    "IR block unreachable from the entry block "
                    "(awaiting pruning)", block=block.name,
                )
    return report


def _check_ir_forks(
    report: CheckReport,
    ir,
    fork_sites: List[Tuple[str, object]],
    orig_size: int,
    cfg=None,
    liveness=None,
) -> None:
    """IR006/IR009/IR010: fork anchors and their liveness use sets."""
    if not fork_sites:
        return
    if cfg is None:
        from repro.analysis.cfg import build_cfg

        cfg = build_cfg(ir.program)
    if liveness is None:
        from repro.analysis.liveness import compute_liveness

        liveness = compute_liveness(cfg)
    anchors_seen: Set[int] = set()
    for block_name, dinstr in fork_sites:
        target = dinstr.instr.target
        if not isinstance(target, int) or not 0 <= target < orig_size:
            _finding(
                report, "IR006", Severity.ERROR,
                f"fork target {target!r} is not an original-program pc",
                block=block_name,
            )
            continue
        if target in anchors_seen:
            _finding(
                report, "IR009", Severity.ERROR,
                f"duplicate fork anchor for original pc {target}",
                block=block_name, orig_pc=target,
            )
        anchors_seen.add(target)
        anchor_block = cfg.block_at(target)
        if anchor_block.start != target:
            _finding(
                report, "IR010", Severity.ERROR,
                f"fork anchor {target} is not a block leader in the "
                "original program", block=block_name, orig_pc=target,
            )
            continue
        if dinstr.uses_override is None:
            _finding(
                report, "IR006", Severity.ERROR,
                "fork carries no liveness use set (uses_override is None); "
                "DCE could delete the anchor's live-in producers",
                block=block_name, orig_pc=target,
            )
            continue
        required = {
            reg
            for reg in liveness.live_in[anchor_block.index]
            if reg != ZERO
        }
        missing = sorted(required - set(dinstr.uses_override))
        if missing:
            regs = ", ".join(f"r{reg}" for reg in missing)
            _finding(
                report, "IR006", Severity.ERROR,
                f"fork use set drops anchor-live registers {regs} "
                "(live at the anchor in the original program)",
                block=block_name, orig_pc=target,
            )


# ---------------------------------------------------------------------------
# Layer 3: the distilled artifact against its pc map
# ---------------------------------------------------------------------------


def check_distillation(
    original: Program,
    distilled: Program,
    pc_map,
    subject: Optional[str] = None,
) -> CheckReport:
    """Check the distilled program plus its :class:`PcMap` as one artifact."""
    report = check_code(
        distilled.code,
        distilled.entry,
        subject=subject or distilled.name,
        jr_targets=pc_map.jr_table.values(),
    )
    size_o = len(original.code)
    size_d = len(distilled.code)

    # Fork sites in the distilled text, keyed by original anchor pc.
    fork_by_anchor: Dict[int, int] = {}
    for pc, instr in enumerate(distilled.code):
        if instr.op is not Opcode.FORK:
            continue
        anchor = instr.target
        if not isinstance(anchor, int):
            continue  # PROG001 already reported
        if anchor in fork_by_anchor:
            _finding(
                report, "MAP002", Severity.ERROR,
                f"second fork for anchor {anchor} "
                f"(first at pc {fork_by_anchor[anchor]})",
                pc=pc, orig_pc=anchor,
            )
            continue
        fork_by_anchor[anchor] = pc
        if anchor not in pc_map.resume:
            _finding(
                report, "MAP005", Severity.ERROR,
                f"fork target {anchor} has no resume entry in the pc map "
                "(the engine could never restart the master after this "
                "task)", pc=pc, orig_pc=anchor,
            )

    if pc_map.entry_orig != original.entry:
        _finding(
            report, "MAP006", Severity.ERROR,
            f"pc map entry_orig {pc_map.entry_orig} differs from the "
            f"original entry {original.entry}",
        )

    block_starts = sorted(set(distilled.symbols.values()))
    for orig in sorted(pc_map.arrival):
        if orig not in pc_map.resume:
            _finding(
                report, "MAP003", Severity.ERROR,
                f"arrival entry for {orig}, which is not an anchor",
                orig_pc=orig,
            )
    for anchor in sorted(pc_map.resume):
        resume = pc_map.resume[anchor]
        if not 0 <= anchor < size_o:
            _finding(
                report, "MAP007", Severity.ERROR,
                f"anchor {anchor} outside the original text [0, {size_o})",
                orig_pc=anchor,
            )
            continue
        if not 0 <= resume < size_d:
            _finding(
                report, "MAP001", Severity.ERROR,
                f"resume pc {resume} outside the distilled text "
                f"[0, {size_d})", orig_pc=anchor,
            )
            continue
        fork_pc = fork_by_anchor.get(anchor)
        if fork_pc is not None:
            if resume != fork_pc + 1:
                _finding(
                    report, "MAP002", Severity.ERROR,
                    f"anchor resumes at {resume} but its fork sits at "
                    f"{fork_pc} (resume must be the pc immediately after "
                    "the fork, or a restarted master re-forks its open "
                    "task)", pc=resume, orig_pc=anchor,
                )
            _check_arrival(
                report, pc_map, anchor, fork_pc, block_starts, size_d
            )
        elif not (
            anchor == pc_map.entry_orig and resume == distilled.entry
        ):
            _finding(
                report, "MAP002", Severity.ERROR,
                f"anchor {anchor} has no fork in the distilled text and "
                "is not the entry fallback", pc=resume, orig_pc=anchor,
            )

    for ret_pc, dist_pc in sorted(pc_map.jr_table.items()):
        if not 0 <= ret_pc < size_o:
            _finding(
                report, "MAP004", Severity.ERROR,
                f"jr table key {ret_pc} outside the original text "
                f"[0, {size_o})", orig_pc=ret_pc,
            )
            continue
        if not 0 <= dist_pc < size_d:
            _finding(
                report, "MAP004", Severity.ERROR,
                f"jr table maps return pc {ret_pc} outside the distilled "
                f"text (to {dist_pc})", orig_pc=ret_pc,
            )
            continue
        laid_out = distilled.symbols.get(f"B{ret_pc}")
        if laid_out is None:
            _finding(
                report, "MAP004", Severity.ERROR,
                f"jr table return pc {ret_pc} has no distilled block "
                f"B{ret_pc} (its return site did not survive layout)",
                pc=dist_pc, orig_pc=ret_pc,
            )
        elif laid_out != dist_pc:
            _finding(
                report, "MAP004", Severity.ERROR,
                f"jr table maps return pc {ret_pc} to {dist_pc} but "
                f"layout placed block B{ret_pc} at {laid_out}",
                pc=dist_pc, orig_pc=ret_pc,
            )
    return report


def _check_arrival(
    report: CheckReport,
    pc_map,
    anchor: int,
    fork_pc: int,
    block_starts: List[int],
    size_d: int,
) -> None:
    """MAP003: the anchor's arrival pc is its fork block's first pc."""
    arrival = pc_map.arrival.get(anchor)
    if arrival is None:
        _finding(
            report, "MAP003", Severity.ERROR,
            f"fork anchor {anchor} has no arrival entry (the master "
            "could not count arrivals for strided tasks)",
            pc=fork_pc, orig_pc=anchor,
        )
        return
    if not 0 <= arrival < size_d:
        _finding(
            report, "MAP003", Severity.ERROR,
            f"arrival pc {arrival} outside the distilled text "
            f"[0, {size_d})", orig_pc=anchor,
        )
        return
    # The block holding the fork, per layout's own symbol table.
    containing = None
    for start in block_starts:
        if start <= fork_pc:
            containing = start
        else:
            break
    if arrival not in block_starts or arrival != containing:
        _finding(
            report, "MAP003", Severity.ERROR,
            f"arrival pc {arrival} is not the start of the block holding "
            f"the anchor's fork (expected {containing})",
            pc=arrival, orig_pc=anchor,
        )


# ---------------------------------------------------------------------------
# Layer 4: the pre-decoded execution engine
# ---------------------------------------------------------------------------


def check_decoded(
    program: Program, subject: Optional[str] = None
) -> CheckReport:
    """Check a program's decoding (:mod:`repro.machine.decoded`).

    The decoded engine bakes each instruction's operands, immediates,
    targets, and fall-through pc into a closure at decode time; a decoder
    bug would misexecute silently at full speed.  This layer re-derives
    the baked-in facts from the source :class:`Instruction` and compares
    them against the decoding actually served by the cache — so ``repro
    lint`` catches decoder/ISA drift (or a corrupted cache attachment)
    statically, before the differential tests have to.
    """
    from repro.machine.decoded import _decode_meta, decode
    from repro.machine.semantics import execute

    report = CheckReport(subject=subject or f"{program.name}: decoded")
    decoded = decode(program)

    # DEC001: the cache returns one decoding per (program object, mode).
    if decode(program) is not decoded:
        _finding(
            report, "DEC001", Severity.ERROR,
            "repeated decode() calls returned distinct decodings for the "
            "same program object (cache attachment broken)",
        )
    if decode(program, oracle=True) is decoded:
        _finding(
            report, "DEC001", Severity.ERROR,
            "oracle-mode decode() returned the fast-mode decoding "
            "(modes must cache separately)",
        )

    # DEC002: per-pc decode metadata round-trips to the source text.
    size = len(program.code)
    if decoded.size != size or len(decoded.steppers) != size or (
        len(decoded.meta) != size
    ):
        _finding(
            report, "DEC002", Severity.ERROR,
            f"decoding covers {decoded.size} pcs "
            f"({len(decoded.steppers)} steppers, {len(decoded.meta)} "
            f"meta records) but the text has {size}",
        )
        return report
    for pc, instr in enumerate(program.code):
        expected = _decode_meta(pc, instr)
        if decoded.meta[pc] != expected:
            _finding(
                report, "DEC002", Severity.ERROR,
                f"decoded facts {decoded.meta[pc]!r} do not match the "
                f"source instruction's {expected!r}", pc=pc,
            )

    # DEC003: superstep chains mirror the text's terminator structure.
    if not len(decoded.chain_spans) == len(decoded.chain_halts) == len(
        decoded.chain_loads
    ) == len(decoded.chain_reads) == len(decoded.chain_writes) == size:
        _finding(
            report, "DEC003", Severity.ERROR,
            f"chain tables cover {len(decoded.chain_spans)} pcs but the "
            f"text has {size}",
        )
        return report
    end = size
    halts = False
    expected_spans = [0] * size
    expected_halts = [False] * size
    for pc in range(size - 1, -1, -1):
        instr = program.code[pc]
        if instr.is_terminator:
            end = pc + 1
            halts = instr.op is Opcode.HALT
        expected_spans[pc] = end - pc
        expected_halts[pc] = halts
        expected_loads = sum(
            1 for other in program.code[pc:end] if other.is_load
        )
        if decoded.chain_loads[pc] != expected_loads:
            _finding(
                report, "DEC003", Severity.ERROR,
                f"chain load count is {decoded.chain_loads[pc]} but the "
                f"chain's span holds {expected_loads} lw", pc=pc,
            )
    for pc in range(size):
        if decoded.chain_spans[pc] != expected_spans[pc]:
            _finding(
                report, "DEC003", Severity.ERROR,
                f"chain spans {decoded.chain_spans[pc]} instruction(s) "
                f"but the block suffix from here holds "
                f"{expected_spans[pc]}", pc=pc,
            )
        if decoded.chain_halts[pc] != expected_halts[pc]:
            _finding(
                report, "DEC003", Severity.ERROR,
                f"chain halt flag is {decoded.chain_halts[pc]} but the "
                f"terminator {'is' if expected_halts[pc] else 'is not'} "
                "a halt", pc=pc,
            )
        # The slave records chain_reads as live-ins and marks
        # chain_writes written: recompute both from the ISA's use/def
        # sets, operands in evaluation order (rs before rt).
        reads: List[int] = []
        writes: List[int] = []
        for instr in program.code[pc:pc + expected_spans[pc]]:
            for reg in (instr.rs, instr.rt):
                if reg in instr.uses() - {ZERO} and reg not in reads + writes:
                    reads.append(reg)
            writes += [r for r in instr.defs() - {ZERO} if r not in writes]
        for name, table, expected in (
            ("reads", decoded.chain_reads, reads),
            ("writes", decoded.chain_writes, writes),
        ):
            if list(table[pc]) != expected:
                _finding(
                    report, "DEC003", Severity.ERROR,
                    f"chain_{name} is {list(table[pc])} but the chain's "
                    f"span {name} {expected}", pc=pc,
                )

    # DEC004: the generated chain entered at each pc equals stepping the
    # text's span from there through the oracle, on register files that
    # include the int64 bounds and values outside them; so does its
    # recording variant, on a slave's recording view.
    for pc in range(size):
        span = program.code[pc:pc + expected_spans[pc]]
        for variant in range(5):
            got = _fuzz_states(program, pc, variant)
            want = _fuzz_states(program, pc, variant)
            try:
                decoded.chains[pc](got.regs, got)
            except Exception as exc:  # noqa: BLE001 - report, never raise
                _finding(
                    report, "DEC004", Severity.ERROR,
                    f"chain raised {type(exc).__name__}: {exc} (seed "
                    f"{variant})", pc=pc,
                )
                break
            for instr in span:
                execute(instr, want)
            if got != want:
                _finding(
                    report, "DEC004", Severity.ERROR,
                    f"chain diverges from stepping its span with execute "
                    f"(seed {variant}): {want.diff(got)[:3]}", pc=pc,
                )
                break
        problem = _recording_chain_problem(program, decoded, pc, span)
        if problem:
            _finding(
                report, "DEC004", Severity.ERROR,
                f"recording chain {problem}", pc=pc,
            )
    return report


def _recording_chain_problem(program: Program, decoded, pc: int, span) -> str:
    """How the recording chain the slave enters at ``pc`` differs from
    stepping its span with ``semantics.execute`` on a recording view, or
    ``""``.  Each of :func:`_fuzz_states`' register files is tried on a
    fresh view and on one whose registers were partly written or
    recorded already (a loop's second iteration)."""
    from repro.machine.semantics import execute

    for variant in range(5):
        for reentered in (False, True):
            got = _fuzz_view(program, pc, variant, reentered)
            want = _fuzz_view(program, pc, variant, reentered)
            seed = f"(seed {variant}{', re-entered' if reentered else ''})"
            try:
                decoded.recording_chains[pc](
                    got.regs, got, got._reg_written, got.live_in_regs
                )
            except Exception as exc:  # noqa: BLE001 - report, never raise
                return f"raised {type(exc).__name__}: {exc} {seed}"
            for instr in span:
                execute(instr, want)
            problem = _view_difference(want, got)
            if problem:
                return f"{problem} {seed}"
    return ""


def _fuzz_view(program: Program, entry: int, variant: int, reentered: bool):
    """A slave recording view over :func:`_fuzz_states`' registers for
    the recording-chain differential.  ``reentered`` marks every third
    register written and records a stale value for the next of each
    three, as a chain entered again in a task would find them."""
    from repro.mssp.slave import SlaveView
    from repro.mssp.task import Checkpoint

    state = _fuzz_states(program, entry, variant)
    view = SlaveView(Checkpoint(tuple(state.regs), {}), state, entry)
    if reentered:
        for reg in range(1, NUM_REGS):
            if (reg + entry) % 3 == 0:
                view._reg_written[reg] = True
            elif (reg + entry) % 3 == 1:
                view.live_in_regs[reg] = -reg
    return view


def _view_difference(want, got) -> str:
    """What differs between two recording views, or ``""``."""
    for name, mine, theirs in (
        ("pc", got.pc, want.pc),
        ("registers", got.regs, want.regs),
        ("written registers", got._reg_written, want._reg_written),
        ("register live-ins", list(got.live_in_regs.items()),
         list(want.live_in_regs.items())),
        ("memory live-ins", list(got.live_in_mem.items()),
         list(want.live_in_mem.items())),
        ("stores", got.live_out_mem(), want.live_out_mem()),
    ):
        if mine != theirs:
            return (
                f"diverges from stepping its span on a recording view: "
                f"{name} {mine!r:.120} != {theirs!r:.120}"
            )
    return ""


# ---------------------------------------------------------------------------
# Layer 5: the superblock JIT
# ---------------------------------------------------------------------------


def _fuzz_states(program: Program, entry: int, variant: int):
    """Deterministic machine states for the JIT003 and DEC004
    differentials.

    Register-file shapes per entry: boot-like zeros, small in-range
    values (so memory ops hit the seeded data image), a splitmix-style
    pseudo-random 64-bit fill, the int64 bounds, and values outside them
    (variant 4, which only chains must survive: a checkpoint may seed a
    slave's registers with any value, while jit regions assume canonical
    ones).  No global RNG — lint output must be reproducible run to run.
    """
    from repro.machine.state import ArchState, wrap64

    state = ArchState(pc=entry, mem=program.memory)
    if variant == 1:
        for reg in range(1, NUM_REGS):
            state.write_reg(reg, (reg * 3 + entry) % 64)
    elif variant == 2:
        x = (entry + 1) * 0x9E3779B97F4A7C15
        for reg in range(1, NUM_REGS):
            x = wrap64(x * 6364136223846793005 + 1442695040888963407)
            state.write_reg(reg, x)
    elif variant == 3:
        bounds = (-(1 << 63), (1 << 63) - 1, -1, 1)
        for reg in range(1, NUM_REGS):
            state.write_reg(reg, bounds[(reg + entry) % len(bounds)])
    elif variant == 4:
        for reg in range(1, NUM_REGS):
            state.regs[reg] = (
                (1 << 63) + reg if (reg + entry) % 2 else -(1 << 64) - reg
            )
    return state


def check_jit(program: Program, subject: Optional[str] = None) -> CheckReport:
    """Check a program's superblock JIT (:mod:`repro.machine.jit`).

    The JIT *generates Python source* per hot region — the riskiest
    compilation step in the codebase, since a codegen bug executes at
    full speed with no per-step oracle watching.  Four checks: cache
    identity discipline (JIT001, mirroring DEC001), region metadata
    re-derivation (JIT002 — the stored trace, followed-branch set, and
    source must equal what :meth:`JitProgram.trace`/
    :meth:`JitProgram.generate_source` produce today, which also guards
    the persistent code cache against schema drift), a state-level
    differential (JIT003 — every ``arch`` region's function, the one
    :meth:`JitProgram.run` executes, run on fuzzed register files, must
    leave exactly the machine state the decoded per-step engine reaches
    after the same number of steps), and superblock-link
    validation (JIT004 — promotion is forced along every
    compiled-region-to-compiled-region exit edge and the fused traces
    must re-derive, keep their link targets at traced leaders, and pass
    the same differential).
    """
    from repro.machine.decoded import decode
    from repro.machine.jit import (
        EXIT_HALT,
        JitProgram,
        block_leaders,
        jit_for,
    )

    report = CheckReport(subject=subject or f"{program.name}: jit")

    # JIT001: one cached JitProgram per (program object, codegen mode).
    jp_cached = jit_for(program)
    if jit_for(program) is not jp_cached:
        _finding(
            report, "JIT001", Severity.ERROR,
            "repeated jit_for() calls returned distinct JitPrograms for "
            "the same program object (cache attachment broken)",
        )
    if jit_for(program, "master") is jp_cached:
        _finding(
            report, "JIT001", Severity.ERROR,
            "master-mode jit_for() returned the arch-mode JitProgram "
            "(modes must cache separately)",
        )

    # Compile every leader eagerly in a private instance (no disk I/O,
    # no hotness warmup) so JIT002/JIT003 see the full region set.
    jp = JitProgram(program, mode="arch", threshold=1, persist=False)
    leaders = block_leaders(program)
    if jp.leaders != leaders:
        _finding(
            report, "JIT001", Severity.ERROR,
            "JitProgram's leader set differs from block_leaders() "
            "(regions would compile at the wrong pcs)",
        )
    regions = []
    for entry in sorted(leaders):
        region = jp.region_for(entry)
        if region is not None:
            regions.append(region)

    # JIT002: stored region metadata re-derives from the program.
    for region in regions:
        if region.entry not in leaders:
            _finding(
                report, "JIT002", Severity.ERROR,
                "compiled region starts at a non-leader pc",
                pc=region.entry,
            )
        expected_pcs, expected_taken = jp.trace(region.entry)
        if region.pcs != expected_pcs or region.taken != expected_taken:
            _finding(
                report, "JIT002", Severity.ERROR,
                f"region trace {region.pcs} (taken {sorted(region.taken)}) "
                f"does not re-derive ({expected_pcs} / "
                f"{sorted(expected_taken)} expected)", pc=region.entry,
            )
            continue
        if region.linear_len != len(region.pcs):
            _finding(
                report, "JIT002", Severity.ERROR,
                f"linear_len {region.linear_len} != trace length "
                f"{len(region.pcs)} (budget guards would be wrong)",
                pc=region.entry,
            )
        if region.source != jp.generate_source(region.entry):
            _finding(
                report, "JIT002", Severity.ERROR,
                "stored generated source differs from regeneration "
                "(codegen is not deterministic, or the region is stale)",
                pc=region.entry,
            )

    # JIT003: region execution == decoded per-step execution, state for
    # state, on fuzzed register files, for every region's function.
    decoded = decode(program)
    steppers = decoded.steppers

    def differential(region, label: str) -> None:
        budget = 3 * region.linear_len + 2
        for variant in range(3):
            fuzzed = _fuzz_states(program, region.entry, variant)
            reference = _fuzz_states(program, region.entry, variant)
            try:
                steps, status = region.fn(fuzzed, 0, budget)
            except Exception as exc:  # noqa: BLE001 - report, never raise
                _finding(
                    report, "JIT003", Severity.ERROR,
                    f"{label} region raised {type(exc).__name__}: {exc} "
                    f"(fuzz variant {variant})", pc=region.entry,
                )
                continue
            for _ in range(steps):
                steppers[reference.pc](reference)
            if status == EXIT_HALT and (
                program.code[reference.pc].op is not Opcode.HALT
            ):
                _finding(
                    report, "JIT003", Severity.ERROR,
                    f"{label} region reported halt but the decoded engine "
                    f"sits at a {program.code[reference.pc].op.mnemonic} "
                    f"after {steps} steps (fuzz variant {variant})",
                    pc=region.entry,
                )
            if fuzzed != reference:
                _finding(
                    report, "JIT003", Severity.ERROR,
                    f"{label} state diverges from the decoded engine after "
                    f"{steps} steps (fuzz variant {variant}): "
                    f"{reference.diff(fuzzed)[:3]}", pc=region.entry,
                )
                break

    for region in regions:
        differential(region, "compiled")

    # JIT004: promoted superblock links re-derive.  Force promotion on a
    # private instance (link threshold 1) along every static exit edge
    # that lands on another compiled region, then validate the fused
    # traces — and run the JIT003 differential over them, since fused
    # regions contain inverted branch guards no plain trace exercises.
    jp_linked = JitProgram(
        program, mode="arch", threshold=1, persist=False, link_threshold=1
    )
    for entry in sorted(leaders):
        jp_linked.region_for(entry)
    for entry, region in sorted(jp_linked.compiled.items()):
        for target in sorted(region.exit_targets):
            if target in jp_linked.compiled:
                jp_linked.region_for(entry)
                jp_linked.region_for(target)  # transit: promotes at 1
    for entry, region in sorted(jp_linked.compiled.items()):
        if not region.links:
            continue
        expected_pcs, expected_taken = jp_linked.trace(
            entry, frozenset(region.links)
        )
        if region.pcs != expected_pcs or region.taken != expected_taken:
            _finding(
                report, "JIT004", Severity.ERROR,
                f"fused trace {region.pcs} does not re-derive from links "
                f"{sorted(region.links)} ({expected_pcs} expected)",
                pc=entry,
            )
            continue
        traced = set(region.pcs)
        for target in region.links:
            if target not in leaders or target not in traced:
                _finding(
                    report, "JIT004", Severity.ERROR,
                    f"link target {target} is not a block leader inside "
                    "the fused trace", pc=entry,
                )
        index_of = {pc: i for i, pc in enumerate(region.pcs)}
        for branch_pc in region.taken:
            instr = program.code[branch_pc]
            position = index_of.get(branch_pc)
            if (
                not instr.is_branch
                or position is None
                or position + 1 >= len(region.pcs)
                or region.pcs[position + 1] != instr.target
            ):
                _finding(
                    report, "JIT004", Severity.ERROR,
                    f"followed branch at pc {branch_pc} does not continue "
                    f"at its taken target {instr.target}", pc=entry,
                )
        differential(region, "fused")
    return report


# ---------------------------------------------------------------------------
# Layer 5: runtime event streams (the pipeline's in-order protocol)
# ---------------------------------------------------------------------------


def _check_stamps(report: CheckReport, events) -> None:
    """SIM001: clock stamps present and nondecreasing per actor.

    The :class:`~repro.mssp.runtime.events.EventBus` stamps every event
    it publishes with ``clock.now()`` under a lock, so within one
    emitting actor the stream's stamps must never run backwards,
    whichever clock the engine or server was handed.
    Hand-built (never-emitted) events all read t=0 and pass trivially.
    """
    last_at: Dict[str, float] = {}
    for index, event in enumerate(events):
        at = getattr(event, "at", None)
        if not isinstance(at, (int, float)):
            _finding(
                report, "SIM001", Severity.ERROR,
                f"event {index} ({getattr(event, 'kind', '?')}) carries "
                f"no clock stamp",
            )
            continue
        actor = getattr(event, "actor", "")
        previous = last_at.get(actor)
        if previous is not None and at < previous:
            _finding(
                report, "SIM001", Severity.ERROR,
                f"event {index} ({getattr(event, 'kind', '?')}) from "
                f"actor {actor!r} is stamped {at!r}, before its "
                f"predecessor's {previous!r} — the stream's clock ran "
                f"backwards",
            )
        last_at[actor] = at


def check_runtime_events(events, subject: str = "runtime") -> CheckReport:
    """Check a recorded runtime-event stream against the MSSP protocol.

    ``events`` is a sequence of
    :class:`~repro.mssp.runtime.events.RuntimeEvent`\\ s in emission
    order (an :class:`~repro.mssp.runtime.events.EventLog` qualifies).
    Two invariants are enforced, both independent of the executor
    backend:

    * **RT001** — in-order judgement: every ``task_committed`` /
      ``task_squashed`` names the *oldest* forked-but-unjudged tid (no
      task is judged before its predecessor), and committed tids
      strictly increase across the whole run;
    * **RT002** — squash discard: a squash (or master failure) kills
      every forked-but-unjudged successor; a killed tid may only be
      judged again after a fresh ``task_forked`` re-opens it;
    * **RT003** — re-distillation audit: a ``redistilled`` event must be
      preceded by at least its embedded ``threshold`` of live-in
      misprediction squashes attributed (via ``origin_pc``) to the
      re-distilled region since the previous ``redistilled`` event — the
      adaptive loop may only hot-swap the master on accumulated squash
      evidence, never spontaneously;
    * **SIM001** — clock stamps: every event carries a stamp and, per
      emitting actor, stamps never decrease (see :func:`_check_stamps`).
    """
    from repro.mssp.redistill import LIVE_IN_REASONS

    report = CheckReport(subject=subject)
    _check_stamps(report, events)
    #: Forked, not yet judged — episode order; the head judges first.
    outstanding: List[int] = []
    #: Killed by a squash/failure, awaiting re-fork before re-judgement.
    discarded: Set[int] = set()
    last_committed: Optional[int] = None
    #: Live-in squashes per origin region since the last redistillation
    #: (the evidence trail RT003 audits).
    live_in_misses: Dict[int, int] = {}
    for event in events:
        kind = getattr(event, "kind", "")
        if kind == "redistilled":
            seen = live_in_misses.get(event.region, 0)
            if seen < event.threshold:
                _finding(
                    report, "RT003", Severity.ERROR,
                    f"region {event.region} re-distilled after only "
                    f"{seen} live-in squash(es); its threshold is "
                    f"{event.threshold}",
                )
            # The runtime starts a clean evidence slate after a swap.
            live_in_misses.clear()
            continue
        if kind == "task_forked":
            discarded.discard(event.tid)
            outstanding.append(event.tid)
        elif kind in ("task_committed", "task_squashed"):
            tid = event.tid
            if kind == "task_squashed" and event.reason in LIVE_IN_REASONS:
                origin = getattr(event.record, "origin_pc", None)
                if origin is not None:
                    live_in_misses[origin] = (
                        live_in_misses.get(origin, 0) + 1
                    )
            if tid in discarded:
                discarded.discard(tid)
                _finding(
                    report, "RT002", Severity.ERROR,
                    f"tid {tid} was discarded by an earlier squash but "
                    f"judged again without an intervening fork",
                )
            if not outstanding:
                _finding(
                    report, "RT001", Severity.ERROR,
                    f"tid {tid} judged with no task outstanding",
                )
            elif outstanding[0] != tid:
                _finding(
                    report, "RT001", Severity.ERROR,
                    f"tid {tid} judged before its predecessor "
                    f"(oldest outstanding is {outstanding[0]})",
                )
                if tid in outstanding:
                    outstanding.remove(tid)
            else:
                outstanding.pop(0)
            if kind == "task_committed":
                if last_committed is not None and tid <= last_committed:
                    _finding(
                        report, "RT001", Severity.ERROR,
                        f"committed tid {tid} does not exceed the "
                        f"previously committed tid {last_committed}",
                    )
                last_committed = tid
            else:
                discarded.update(outstanding)
                outstanding.clear()
        elif kind == "master_failure":
            discarded.update(outstanding)
            outstanding.clear()
    return report


def check_runtime_execution(
    program, distillation, subject: str = "runtime", profile=None
) -> CheckReport:
    """Run MSSP under the process backend and lint its event stream.

    Uses two worker processes (real in-flight windows) with a small
    chunk size so episodes actually cross chunk boundaries, records
    every event through an :class:`~repro.mssp.runtime.events.EventLog`,
    and hands the stream to :func:`check_runtime_events`.

    With a training ``profile``, the run also enables the adaptive
    prediction loop (live-in value predictors + squash-driven online
    re-distillation), so squashing workloads emit ``redistilled``
    events for **RT003** to audit.
    """
    from repro.config import MsspConfig
    from repro.mssp.engine import create_engine
    from repro.mssp.runtime.events import EventLog

    config = MsspConfig(
        runtime="process", num_slaves=2, parallel_chunk_tasks=4,
        max_inflight_tasks=16,
    )
    if profile is not None:
        config = config.with_adaptation()
    log = EventLog()
    with create_engine(program, distillation, config) as engine:
        if profile is not None:
            engine.enable_adaptation(profile)
        engine.events.subscribe(log)
        engine.run()
    return check_runtime_events(log.events, subject=subject)


def check_server_events(events, subject: str = "server") -> CheckReport:
    """Check an episode-server event stream against the serving protocol.

    ``events`` is an emission-ordered sequence of runtime events; only
    the ``episode_*`` kinds are inspected, so a mixed stream (engine
    events interleaved with server events) lints cleanly.  One
    invariant family is enforced:

    * **RT004** — admission accounting: every ``episode_accepted``
      reaches *exactly one* terminal event (``episode_completed`` or
      ``episode_shed``) — no lost requests, no double answers; every
      ``episode_dispatched`` names an accepted, still-open request; and
      no worker ever holds more dispatched-but-unfinished episodes than
      the capacity its dispatch events declare.  A request re-dispatched
      to another worker (fault recovery re-queue) releases its previous
      worker's slot.

    The stream's clock stamps are also audited (**SIM001**, see
    :func:`_check_stamps`).
    """
    report = CheckReport(subject=subject)
    _check_stamps(report, events)
    ever: Set[int] = set()
    open_requests: Set[int] = set()
    assigned: Dict[int, int] = {}       # request -> current worker
    loads: Dict[int, Set[int]] = {}     # worker -> open requests held
    for event in events:
        kind = getattr(event, "kind", "")
        if kind == "episode_accepted":
            rid = event.request_id
            if rid in ever:
                _finding(
                    report, "RT004", Severity.ERROR,
                    f"request {rid} accepted more than once",
                )
            ever.add(rid)
            open_requests.add(rid)
        elif kind == "episode_dispatched":
            rid = event.request_id
            if rid not in open_requests:
                _finding(
                    report, "RT004", Severity.ERROR,
                    f"request {rid} dispatched to worker {event.worker} "
                    f"without being accepted and open",
                )
                continue
            previous = assigned.pop(rid, None)
            if previous is not None:
                loads.setdefault(previous, set()).discard(rid)
            assigned[rid] = event.worker
            held = loads.setdefault(event.worker, set())
            held.add(rid)
            if len(held) > event.capacity:
                _finding(
                    report, "RT004", Severity.ERROR,
                    f"worker {event.worker} holds {len(held)} episodes, "
                    f"exceeding its declared capacity {event.capacity}",
                )
        elif kind in ("episode_completed", "episode_shed"):
            rid = event.request_id
            if rid not in open_requests:
                _finding(
                    report, "RT004", Severity.ERROR,
                    f"terminal '{kind}' for request {rid} without a "
                    f"matching open 'episode_accepted' (lost or "
                    f"double-terminated request)",
                )
                continue
            open_requests.discard(rid)
            worker = assigned.pop(rid, None)
            if worker is not None:
                loads.setdefault(worker, set()).discard(rid)
    for rid in sorted(open_requests):
        _finding(
            report, "RT004", Severity.ERROR,
            f"request {rid} was accepted but never reached a terminal "
            f"event (completed or shed)",
        )
    return report


def check_server_execution(
    workload: str,
    program,
    distillation,
    subject: str = "server",
    profile=None,
    size: int = 0,
) -> CheckReport:
    """Serve a burst through an in-process episode server; lint RT004.

    The server is preloaded with the lint-computed distillation (no
    re-distilling) and driven with digest-addressed requests over a
    deliberately tight fleet — two workers of capacity one with a
    two-deep queue — so the burst exercises direct dispatch, queueing,
    and (when the burst outruns the fleet) the shed path; the recorded
    episode event stream then goes to :func:`check_server_events`.
    """
    from repro.config import MsspConfig, ServeConfig
    from repro.experiments import cache as artifact_cache
    from repro.mssp.runtime.events import EventLog
    from repro.serve import EpisodeRequest, EpisodeServer, ServedProgram

    content = artifact_cache.program_digest(program)
    entry = ServedProgram(
        name=workload, size=size,
        key=artifact_cache.digest(workload, size, content, None),
        digest=content, program=program, distillation=distillation,
        profile=profile,
    )
    config = MsspConfig(runtime="process", num_slaves=2)
    log = EventLog()
    server = EpisodeServer(ServeConfig(
        workers=2, worker_capacity=1, max_queue_depth=2,
    ))
    server.events.subscribe(log)
    server.preload(entry)
    with server:
        handles = [
            server.submit(EpisodeRequest(
                digest=content, config=config, tenant=f"lint-{i}",
            ))
            for i in range(5)
        ]
        for handle in handles:
            handle.result()
    return check_server_events(log.events, subject=subject)


# ---------------------------------------------------------------------------
# Layer 6: dataflow analyses and the speculation-safety prover
# ---------------------------------------------------------------------------


def check_dataflow(
    program: Program,
    subject: Optional[str] = None,
    max_steps: int = 5_000,
) -> CheckReport:
    """DF001/DF002: the shipped abstract domains against ``program``.

    Solves constant propagation and intervals over the program's CFG,
    re-checks each solution really is a fixpoint (``DF001``), then runs
    the concrete machine for up to ``max_steps`` instructions and checks
    that at every basic-block entry the concrete register file is
    contained in the abstract in-state (``DF002`` — the soundness
    obligation the hypothesis suite fuzzes on random programs).
    """
    from repro.analysis.cfg import build_cfg
    from repro.analysis.dataflow import (
        ConstantDomain,
        IntervalDomain,
        UNKNOWN,
        is_fixpoint,
        solve,
    )
    from repro.machine import ArchState
    from repro.machine.interpreter import step

    report = CheckReport(subject=f"{subject or program.name}: dataflow")
    cfg = build_cfg(program)
    solutions = {}
    for name, domain in (
        ("const", ConstantDomain()), ("interval", IntervalDomain())
    ):
        solution = solve(cfg, domain)
        solutions[name] = solution
        if not is_fixpoint(solution):
            _finding(
                report, "DF001", Severity.ERROR,
                f"the {name} solution is not a fixpoint: one more "
                "transfer round still moves it",
            )

    leaders = {block.start: block.index for block in cfg.blocks}
    state = ArchState.initial(program)
    const_ok = interval_ok = True
    for _ in range(max_steps):
        index = leaders.get(state.pc)
        if index is not None and (const_ok or interval_ok):
            regs = [state.read_reg(r) for r in range(NUM_REGS)]
            if const_ok:
                abstract = solutions["const"].block_in[index]
                for reg in range(NUM_REGS):
                    value = abstract[reg]
                    if value is not UNKNOWN and value != regs[reg]:
                        const_ok = False
                        _finding(
                            report, "DF002", Severity.ERROR,
                            f"constant analysis claims r{reg} == {value} "
                            f"at block entry, but the concrete run "
                            f"arrived with {regs[reg]}", pc=state.pc,
                        )
                        break
            if interval_ok:
                abstract = solutions["interval"].block_in[index]
                for reg in range(NUM_REGS):
                    lo, hi = abstract[reg]
                    if not lo <= regs[reg] <= hi:
                        interval_ok = False
                        _finding(
                            report, "DF002", Severity.ERROR,
                            f"interval analysis claims r{reg} in "
                            f"[{lo}, {hi}] at block entry, but the "
                            f"concrete run arrived with {regs[reg]}",
                            pc=state.pc,
                        )
                        break
        if step(program, state).halted:
            break
    return report


def check_safety_report(
    original: Program,
    pc_map,
    safety,
    subject: Optional[str] = None,
) -> CheckReport:
    """DF003/DF004: a :class:`SafetyReport`'s shape against its artifact.

    ``safety`` is the :class:`repro.analysis.specsafe.SafetyReport` for
    ``(original, distilled, pc_map)``.  Regions must coincide with the
    pc map's fork anchors, and every classified cell must actually be
    live-in at its anchor (a cell outside the live-in set can never be
    compared by verify, so classifying it is meaningless at best and a
    prover bug at worst).
    """
    from repro.analysis.cfg import build_cfg
    from repro.analysis.liveness import compute_liveness

    report = CheckReport(
        subject=f"{subject or original.name}: safety report"
    )
    anchors = set(pc_map.anchors)
    regions = set(safety.regions)
    for anchor in sorted(regions - anchors):
        _finding(
            report, "DF003", Severity.ERROR,
            f"safety report covers pc {anchor}, which is not a pc-map "
            "fork anchor", orig_pc=anchor,
        )
    for anchor in sorted(anchors - regions):
        _finding(
            report, "DF003", Severity.ERROR,
            f"fork anchor {anchor} has no safety-report region",
            orig_pc=anchor,
        )
    cfg = build_cfg(original)
    liveness = compute_liveness(cfg)
    for anchor in sorted(regions & anchors):
        block = cfg.block_starting_at(anchor)
        if block is None:
            continue  # MAP003/IR010 report non-leader anchors
        live = liveness.block_live_in(block.index) - {ZERO}
        extra = sorted(set(safety.regions[anchor].cells) - live)
        if extra:
            regs = ", ".join(f"r{reg}" for reg in extra)
            _finding(
                report, "DF004", Severity.ERROR,
                f"safety report classifies {regs}, not live-in at "
                f"anchor {anchor}", orig_pc=anchor,
            )
    return report


def check_safety_runtime(
    program: Program, distillation, subject: str = "safety runtime"
) -> CheckReport:
    """DF005: differential check-mode run — PROVEN cells must never squash.

    Runs the full MSSP engine with ``static_safety="check"``: every
    live-in is still compared dynamically, and a mismatch on a cell the
    prover marked PROVEN raises :class:`~repro.errors.CheckFailure`
    inside the engine.  That failure — an analysis soundness bug, never
    a legal misspeculation — is what ``DF005`` reports.
    """
    from repro.config import MsspConfig
    from repro.errors import CheckFailure
    from repro.mssp.engine import MsspEngine

    report = CheckReport(subject=subject)
    config = MsspConfig(static_safety="check")
    try:
        MsspEngine(program, distillation, config=config).run_and_check()
    except CheckFailure as failure:
        _finding(report, "DF005", Severity.ERROR, str(failure))
    return report


# ---------------------------------------------------------------------------
# Static squash prediction (the engine's opt-in cross-check)
# ---------------------------------------------------------------------------

#: Squash reasons possible even under a perfectly sound (semantics-
#: preserving) distillation: budget bounds and protected-region policy
#: are engine configuration, not distiller soundness.
SOUND_SQUASH_REASONS: FrozenSet[str] = frozenset(
    {"overrun", "master-timeout", "protected-access"}
)

#: Squash reasons an *approximating* pass can additionally cause: once
#: the master's state may diverge from the original program's, any
#: live-in, control, or termination deviation follows.
APPROXIMATION_SQUASH_REASONS: FrozenSet[str] = SOUND_SQUASH_REASONS | frozenset(
    {"wrong-start-pc", "register-live-in", "memory-live-in", "fault"}
)


def predicted_squash_reasons(distillation) -> FrozenSet[str]:
    """Squash reasons this distillation can legitimately produce.

    Reads the :class:`~repro.distill.distiller.DistillReport` pass
    statistics: a distillation in which no approximating transformation
    fired (no specialized load, eliminated store, asserted branch, or
    deleted cold block) predicts the original program exactly, so any
    data-driven squash indicates a distiller or engine bug.  The MSSP
    engine's ``assert_static_soundness`` mode enforces exactly this.
    """
    stats = distillation.report.pass_stats

    def count(pass_name: str, attr: str) -> int:
        pass_stats = stats.get(pass_name)
        return getattr(pass_stats, attr, 0) if pass_stats is not None else 0

    approximated = (
        count("value_spec", "specialized")
        or count("store_elim", "eliminated")
        or count("branch_removal", "asserted_taken")
        or count("branch_removal", "asserted_not_taken")
        or count("cold_code", "blocks_removed")
    )
    if approximated:
        return APPROXIMATION_SQUASH_REASONS
    return SOUND_SQUASH_REASONS
