"""The verify/commit unit.

This is the *only* component allowed to write architected state, and the
component on which all of MSSP's correctness rests (the companion formal
paper's "task safety": a task may commit iff its recorded live-ins are
consistent with architected state).  The checks, in order:

1. execution integrity — the slave neither overran its budget nor faulted;
2. control consistency — the task starts exactly where the machine is;
3. data consistency — every recorded live-in value (registers and memory)
   equals the corresponding architected cell right now.

On success the task's live-outs are superimposed onto architected state
and the pc jumps to the task's end: the machine "jumps" ``n_instrs``
sequential steps at once.  On failure nothing is written.

The full live-in set is always scanned (no early exit) so the engine can
report live-in prediction *accuracy*, not just a pass/fail bit.

The verify fast path
--------------------

Comparing every memory live-in against architected state is the
dominant verify-stage cost for workloads with large read sets (the
measured cause of hashlookup's parallel-runtime slowdown in E14).
:class:`CellVersions` removes it: the engine stamps every architected
memory cell it writes (task commits) with a monotonically increasing
sequence number, and recovery — which writes cells without itemizing
them — bumps a floor that invalidates everything at once.  A task
carrying ``base_version`` (the sequence number at which its view of
architected memory was known current) can then *skip the value compare*
for any live-in cell that (a) was read through to architected state
(i.e. is not covered by the checkpoint overlay) and (b) has not been
stamped since ``base_version``: the unchanged cell still holds exactly
the value the slave read, so the compare is a proof, not a check.
Skipped cells still count in ``VerifyOutcome.checked`` — the outcome
(and therefore every record and counter) is bit-identical with and
without the fast path, which the differential suites assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.machine.state import ArchState
from repro.mssp.task import SquashReason, Task, TaskStatus


class CellVersions:
    """Monotonic write-version stamps over architected memory cells.

    ``seq`` advances on every architected write event; per-address
    stamps record the last event that wrote each cell.  ``floor``
    handles bulk invalidation (recovery writes cells without itemizing
    them): every address is implicitly stamped at least ``floor``.
    ``skipped`` counts fast-path hits for diagnostics only — it is
    deliberately *not* an :class:`~repro.mssp.trace.MsspCounters` field,
    because eager and parallel runs skip different numbers of cells and
    the counters must stay bit-identical across runtimes.
    """

    __slots__ = ("seq", "floor", "_stamps", "skipped")

    def __init__(self) -> None:
        self.seq = 0
        self.floor = 0
        self._stamps: Dict[int, int] = {}
        self.skipped = 0

    def stamp_commit(self, addresses: Iterable[int]) -> None:
        """Record one commit event writing ``addresses``."""
        self.seq += 1
        seq = self.seq
        stamps = self._stamps
        for address in addresses:
            stamps[address] = seq

    def invalidate_all(self) -> None:
        """Record a write event of unknown extent (recovery)."""
        self.seq += 1
        self.floor = self.seq
        self._stamps.clear()

    def changed_since(self, address: int, base: int) -> bool:
        """Might ``address`` have been written after event ``base``?"""
        stamp = self._stamps.get(address, 0)
        if stamp < self.floor:
            stamp = self.floor
        return stamp > base


@dataclass(slots=True)
class VerifyOutcome:
    """Result of checking one task against architected state (built
    once per judged task, positionally, and never mutated)."""

    ok: bool
    reason: SquashReason
    checked: int
    mismatched: int
    detail: str = ""
    #: Original-program pc the failure is attributed to: the task's
    #: anchor for live-in/control mismatches (the distiller's prediction
    #: for that anchor was wrong), or the pc the slave stopped at for
    #: faults/overruns/protected accesses.  ``None`` on success.
    origin_pc: Optional[int] = None
    #: Register live-in compares covered by the static safety prover
    #: (:mod:`repro.analysis.specsafe`).  Counted identically in ``skip``
    #: and ``check`` modes, so counters match between them when the
    #: analysis is sound.
    static_skips: int = 0
    #: ``check`` mode only: a statically PROVEN register mismatched —
    #: an analysis soundness bug the engine escalates to a hard
    #: :class:`~repro.errors.CheckFailure`.
    proven_mismatch: bool = False


def verify_task(
    task: Task,
    arch: ArchState,
    versions: Optional[CellVersions] = None,
    safety_mode: str = "off",
) -> VerifyOutcome:
    """Check ``task``'s live-ins against ``arch`` without modifying either.

    With ``versions`` (and a task carrying ``base_version``), memory
    live-ins provably unchanged since the task's view of architected
    state skip the value compare — see the module docstring.  The
    returned outcome is identical either way.

    ``safety_mode`` activates the *static* register fast path over
    ``task.proven_regs`` (registers the speculation-safety prover
    guarantees for this anchor): ``"skip"`` skips their value compare,
    ``"check"`` still compares and flags any mismatch as an analysis
    soundness failure (``proven_mismatch``), ``"off"`` ignores the set.
    Skips apply only when the task starts exactly where the machine is —
    the proof is relative to the anchor's architected state.  Skipped
    cells still count in ``checked`` so records and counters stay
    bit-identical across all three modes when the analysis is sound.
    """
    if task.faulted:
        return VerifyOutcome(
            False, SquashReason.FAULT, task.live_in_count, 0,
            f"speculative execution faulted at pc {task.end_state_pc}",
            task.end_state_pc,
        )
    if task.protected_access:
        return VerifyOutcome(
            False, SquashReason.PROTECTED, task.live_in_count, 0,
            f"pc {task.end_state_pc} would access a protected region; "
            "deferring to non-speculative execution",
            task.end_state_pc,
        )
    if task.overrun:
        return VerifyOutcome(
            False, SquashReason.OVERRUN, task.live_in_count, 0,
            f"no arrival at end pc within {task.n_instrs} instructions",
            task.end_state_pc,
        )
    live_in_regs = task.live_in_regs
    live_in_mem = task.live_in_mem
    # Every live-in counts as checked, skipped or compared (+1: the pc).
    checked = len(live_in_regs) + len(live_in_mem) + 1
    mismatched = 0
    reason = SquashReason.NONE
    detail = ""
    if task.start_pc != arch.pc:
        mismatched += 1
        reason = SquashReason.WRONG_START_PC
        detail = f"task starts at {task.start_pc}, machine at {arch.pc}"
    static_skips = 0
    proven_mismatch = False
    proven = (
        task.proven_regs
        if safety_mode in ("skip", "check") and task.start_pc == arch.pc
        else frozenset()
    )
    regs = arch.regs
    for index, value in live_in_regs.items():
        if index in proven:
            static_skips += 1
            if safety_mode == "skip":
                continue
        if regs[index] != value:
            if index in proven:
                proven_mismatch = True
            mismatched += 1
            if reason is SquashReason.NONE:
                reason = SquashReason.REGISTER_LIVE_IN
                detail = (
                    f"r{index}: predicted {value}, architected {regs[index]}"
                )
    # The version stamps, read inline: a cell is unchanged since ``base``
    # iff neither its stamp nor the floor is past it.
    base = task.base_version if versions is not None else None
    if base is not None and versions.floor > base:
        base = None  # a bulk invalidation since base: compare every cell
    stamps = versions._stamps if base is not None else None
    ckpt_mem = task.checkpoint.mem
    mem = arch.mem
    skipped = 0
    for address, value in live_in_mem.items():
        if (
            base is not None
            and address not in ckpt_mem
            and stamps.get(address, 0) <= base
        ):
            # The cell was read through to architected state and has
            # not been written since the task's view was current: it
            # still holds ``value``, so the compare cannot fail.
            skipped += 1
            continue
        if mem.get(address, 0) != value:
            mismatched += 1
            if reason is SquashReason.NONE:
                reason = SquashReason.MEMORY_LIVE_IN
                detail = (
                    f"mem[{address}]: predicted {value}, "
                    f"architected {mem.get(address, 0)}"
                )
    if skipped:
        versions.skipped += skipped
    return VerifyOutcome(
        mismatched == 0, reason, checked, mismatched, detail,
        None if mismatched == 0 else task.start_pc,
        static_skips, proven_mismatch,
    )


def commit_task(task: Task, arch: ArchState) -> None:
    """Superimpose ``task``'s live-outs onto ``arch`` (must be verified)."""
    arch.apply_delta(
        task.live_out_regs, task.live_out_mem, pc=task.end_state_pc
    )
    task.status = TaskStatus.COMMITTED


def squash_task(task: Task, reason: SquashReason) -> None:
    """Mark ``task`` squashed; architected state is untouched by design."""
    task.status = TaskStatus.SQUASHED
    task.squash_reason = reason
