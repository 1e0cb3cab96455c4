"""The MSSP engine: orchestrates master, slaves, and verify/commit.

This is the functional model of the whole machine.  The episode state
machine itself lives in the runtime core
(:class:`repro.mssp.runtime.pipeline.TaskPipeline`); this module owns
what surrounds it — the restart/recovery loop, the verify/commit
decisions, and the result assembly — plus the engine's executor backend
(:mod:`repro.mssp.runtime.executors`), selected by
``MsspConfig.runtime``:

* ``"eager"`` executes every task inline in commit order (the
  functional reference model);
* ``"process"`` overlaps slave chunks on forked worker processes.

Both are behaviourally equivalent to the concurrent machine — and
bit-identical to each other — because (a) commits are in order,
(b) slaves never write architected state, and (c) verification outcomes
depend only on architected state at commit time, not on when slaves
physically ran.  The timing model (:mod:`repro.timing`) replays the
resulting trace to recover the concurrency.

One *episode* = one master (re)start:

1. the master is reseeded from architected state at the pc-map resume
   point, and an *exact* task (perfect checkpoint) is opened at the
   current architected pc;
2. each master fork closes the open task (fixing its end pc) and opens
   the next one with the fork's checkpoint; the closed task is executed
   by a slave and then verified in order;
3. a verification failure, master trap/timeout, or slave overrun squashes
   the rest of the episode; a *recovery* then executes the original
   program non-speculatively from architected state to the next anchor
   (or halt), after which the next episode begins.

Forward progress is unconditional: every recovery advances architected
state by at least one instruction, and committed tasks only ever advance
it, so arbitrary master misbehaviour degrades performance, never
correctness or termination.

Everything observable along the way is announced on the engine's
:class:`~repro.mssp.runtime.events.EventBus`; :attr:`MsspResult.records`
and :attr:`MsspResult.counters` are both folded from those events by
one :class:`~repro.mssp.trace.TraceRecorder` subscription.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.analysis.specsafe import SafetyReport, prove_safety
from repro.config import MsspConfig
from repro.errors import CheckFailure
from repro.distill.distiller import DistillationResult
from repro.distill.pc_map import PcMap
from repro.errors import InvalidPcError, MsspError, StepLimitExceeded
from repro.isa.program import Program
from repro.machine.decoded import decode, resolve_exec_tier
from repro.machine.interpreter import run_to_halt
from repro.machine.state import ArchState
from repro.mssp.master import Master, MasterEvent
from repro.mssp.regions import DeviceAccess, ProtectedRegions
from repro.mssp.runtime.events import (
    EventBus,
    MasterFailed,
    RecoveryRun,
    Redistilled,
    TaskCommitted,
    TaskSquashed,
)
from repro.mssp.runtime.executors import create_executor, resolve_runtime
from repro.mssp.runtime.pipeline import TaskPipeline
from repro.mssp.task import SquashReason, Task
from repro.mssp.trace import (
    MasterFailureRecord,
    MsspCounters,
    RecoveryRecord,
    TaskAttemptRecord,
    TraceRecord,
    TraceRecorder,
)
from repro.mssp.verify import (
    CellVersions,
    commit_task,
    squash_task,
    verify_task,
)


@dataclass
class MsspResult:
    """Everything one MSSP run produced."""

    final_state: ArchState
    halted: bool
    records: List[TraceRecord] = field(default_factory=list)
    counters: MsspCounters = field(default_factory=MsspCounters)
    #: Ordered non-speculative accesses to protected regions (the
    #: machine's externally visible I/O sequence).
    device_trace: List[DeviceAccess] = field(default_factory=list)

    @property
    def task_records(self) -> List[TaskAttemptRecord]:
        return [r for r in self.records if isinstance(r, TaskAttemptRecord)]

    @property
    def recovery_records(self) -> List[RecoveryRecord]:
        return [r for r in self.records if isinstance(r, RecoveryRecord)]

    @property
    def total_loads(self) -> int:
        """Loads that advanced architected state: committed tasks' plus
        recovery's (the loads behind ``counters.total_instrs``)."""
        return sum(
            r.n_loads for r in self.task_records if r.committed
        ) + sum(r.n_loads for r in self.recovery_records)


class MsspEngine:
    """Functional simulator of one MSSP machine running one program."""

    def __init__(
        self,
        original: Program,
        distillation: Union[DistillationResult, tuple],
        config: Optional[MsspConfig] = None,
        safety_report=None,
        clock=None,
    ):
        if isinstance(distillation, DistillationResult):
            distilled, pc_map = distillation.distilled, distillation.pc_map
        else:
            distilled, pc_map = distillation
        if not isinstance(pc_map, PcMap):
            raise MsspError("second element of distillation must be a PcMap")
        self.original = original
        self.distilled = distilled
        self.pc_map = pc_map
        self.config = config or MsspConfig()
        #: Full distillation artifact when one was provided (the adaptive
        #: re-distillation loop needs its pass statistics); swapped by
        #: :meth:`_install_distillation`, with the construction-time
        #: artifact kept so repeated runs start identically.
        self._distillation: Optional[DistillationResult] = (
            distillation if isinstance(distillation, DistillationResult)
            else None
        )
        self._initial_distillation = self._distillation
        #: Live-in value predictor bank (:mod:`repro.mssp.predict`);
        #: rebuilt fresh at each :meth:`run` so repeated runs are
        #: identical.  ``None`` when ``config.predictors == "off"``.
        self.predictor = None
        #: Squash-driven re-distiller, armed by :meth:`enable_adaptation`.
        self.redistiller = None
        #: Execution tier (config beats the ``REPRO_EXEC`` environment
        #: variable; default decoded).  The master, slaves and recovery
        #: run decoded chains on every tier but ``oracle``.
        self.exec_tier = resolve_exec_tier(self.config.exec_tier)
        self._decoded_original = decode(
            original, oracle=self.exec_tier == "oracle"
        )
        self.regions = ProtectedRegions.from_config(
            self.config.protected_regions
        )
        self._recover_chains = self._recovery_chains()
        #: Write-version stamps over architected memory, driving the
        #: verify fast path (re-created per run; see repro.mssp.verify).
        self._versions = CellVersions()
        #: Resolved executor backend name: eager or process
        #: (config beats the ``REPRO_RUNTIME`` environment variable;
        #: default eager).
        self.runtime = resolve_runtime(self.config.runtime)
        #: Structured runtime-event seam.  Subscribe any callable to
        #: observe forks, dispatches, judgements, squashes, recoveries
        #: and pool degradations as they happen.  Every event it emits
        #: is stamped with ``self.clock.now()``.
        self.events = EventBus(clock=clock)
        #: The engine's one time source: wall time unless a clock is
        #: injected (tests drive time themselves).
        self.clock = self.events.clock
        #: The current run's fold of its events; the step budget reads it.
        self._recorder = TraceRecorder()
        self._executor = None
        #: Static speculation-safety report driving the verify register
        #: fast path (``config.static_safety``).  Computed here unless
        #: injected (tests inject fabricated reports to prove the
        #: ``check``-mode escalation fires); ``"off"`` skips the prover
        #: entirely.  The prover never raises — unprovable or unaligned
        #: artifacts yield a bailed, all-UNPROVEN report, which makes
        #: verify behave exactly as it did without the analysis.
        if safety_report is not None:
            self.safety_report = safety_report
        elif self.config.static_safety == "off":
            self.safety_report = SafetyReport()
        else:
            self.safety_report = prove_safety(original, distilled, pc_map)
        self._allowed_squash_reasons: Optional[frozenset] = None
        if self.config.assert_static_soundness:
            if not isinstance(distillation, DistillationResult):
                raise MsspError(
                    "assert_static_soundness needs a DistillationResult "
                    "(its pass statistics predict the legal squash causes)"
                )
            from repro.analysis.checker import predicted_squash_reasons

            self._allowed_squash_reasons = predicted_squash_reasons(
                distillation
            )
        #: The master over the current distilled artifact, rebuilt by
        #: :meth:`_install_distillation`: its per-pc trace table fills
        #: at each pc's first entry and serves every later run.
        self._master = self._build_master()

    # -- public API ---------------------------------------------------------------

    def run(self) -> MsspResult:
        """Execute the program under MSSP to completion."""
        arch = ArchState.initial(self.original)
        self._versions = CellVersions()
        # Fresh adaptive state per run, so repeated runs of one engine
        # are identical: a new predictor bank, a reset redistiller, and
        # the construction-time artifact if a prior run hot-swapped it.
        self.predictor = self._make_predictor()
        redistiller = self.redistiller
        if redistiller is not None:
            redistiller.reset()
            if (
                self._initial_distillation is not None
                and self._distillation is not self._initial_distillation
            ):
                self._install_distillation(self._initial_distillation)
        master = self._master
        device_trace: List[DeviceAccess] = []
        recent_outcomes: deque = deque(maxlen=self.config.throttle_window)
        next_tid = 0
        halted = False

        executor = self._executor
        if executor is None:
            executor = self._executor = self._make_executor()
        executor.begin_run()
        pipeline = TaskPipeline(self, executor, self.events)
        recorder = self._recorder = TraceRecorder()
        unsubscribe = self.events.subscribe(recorder)
        try:
            while not halted:
                # Adaptive hot swap, strictly between episodes (so never
                # under an in-flight speculation): if squash evidence
                # crossed the threshold, re-distill and replace the
                # master with every dependent cache invalidated.
                if redistiller is not None:
                    swap = redistiller.maybe_redistill(arch)
                    if swap is not None:
                        region, misses, result, delta = swap
                        self._install_distillation(result)
                        master = self._master
                        self.events.emit(Redistilled(
                            region=region,
                            misses=misses,
                            threshold=redistiller.threshold,
                            despecialized=len(delta.despecialized),
                            deasserted=len(delta.deasserted),
                            generation=redistiller.generation,
                        ))
                if not self.pc_map.is_anchor(arch.pc):
                    # The machine is at a pc the master cannot restart
                    # from (possible only with a malformed map, e.g. a
                    # fork whose target never got a map entry).
                    # Sequential execution to the next anchor is always
                    # a safe fallback.
                    recovery = self._recover(arch, device_trace)
                    halted = recovery.halted
                    continue
                master.restart(arch, self.pc_map.resume_pc(arch.pc))
                if self.predictor is not None:
                    # Freeze this episode's override snapshot: training
                    # continues at every judge, but what forks see is
                    # fixed here, identically for every backend.
                    self.predictor.begin_episode()
                halted, next_tid = pipeline.run_episode(
                    arch, master, recent_outcomes, next_tid
                )
                if halted:
                    break
                # Episode failed: recover non-speculatively, then
                # restart.  Persistent misspeculation triggers dual-mode
                # throttling: a long sequential stretch before
                # speculation is retried.
                min_instrs = 0
                threshold = self.config.throttle_threshold
                if (
                    threshold is not None
                    and len(recent_outcomes) == recent_outcomes.maxlen
                ):
                    failures = sum(1 for ok in recent_outcomes if not ok)
                    if failures / len(recent_outcomes) >= threshold:
                        min_instrs = self.config.throttle_chunk
                        recent_outcomes.clear()
                recovery = self._recover(
                    arch, device_trace, min_instrs=min_instrs
                )
                if recovery.halted:
                    halted = True
        finally:
            unsubscribe()

        return MsspResult(
            final_state=arch, halted=True, records=recorder.records,
            counters=recorder.counters, device_trace=device_trace,
        )

    def run_and_check(self) -> MsspResult:
        """Run MSSP, then assert equivalence with sequential execution."""
        result = self.run()
        reference = run_to_halt(
            self.original, max_steps=self.config.max_total_instrs
        )
        differences = result.final_state.diff(reference.state)
        if differences:
            raise MsspError(
                "MSSP final state diverged from SEQ: " + "; ".join(differences)
            )
        return result

    def enable_adaptation(self, profile, distill_config=None, threshold=None):
        """Arm the squash-driven re-distillation loop.

        ``profile`` is the training profile distillation started from
        (observed counterexamples are folded into it);
        ``distill_config`` defaults to the distiller's own defaults;
        ``threshold`` defaults to ``config.redistill_threshold``.
        Returns the armed :class:`~repro.mssp.redistill.Redistiller`,
        or ``None`` when no threshold is configured anywhere (the loop
        stays off).  Requires the engine to have been built from a full
        :class:`DistillationResult` — re-distillation reads its pass
        statistics to know which speculative bets to revisit.
        """
        if threshold is None and self.config.redistill_threshold is None:
            return None
        if self._distillation is None:
            raise MsspError(
                "adaptation needs a full DistillationResult (its pass "
                "statistics identify the distiller's speculative bets)"
            )
        from repro.mssp.redistill import Redistiller

        if self.redistiller is not None:
            self.redistiller.close()
        self.redistiller = Redistiller(
            self, profile, distill_config=distill_config,
            threshold=threshold,
        )
        return self.redistiller

    def close(self) -> None:
        """Release the executor backend (its worker processes).

        Idempotent; a closed engine rebuilds the backend lazily if run
        again.  ``with create_engine(...) as engine:`` closes for you.
        """
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.close()
        if self.redistiller is not None:
            self.redistiller.close()
            self.redistiller = None

    def __enter__(self) -> "MsspEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------------------

    def static_proven_regs(self, start_pc: int) -> frozenset:
        """Registers verify may skip for tasks anchored at ``start_pc``."""
        if self.config.static_safety == "off":
            return frozenset()
        return self.safety_report.proven_for(start_pc)

    def _make_predictor(self):
        """A fresh predictor bank for one run (None when disabled)."""
        if self.config.predictors == "off":
            return None
        from repro.mssp.predict import ValuePredictorBank

        bank = ValuePredictorBank(
            kind=self.config.predictors,
            confidence=self.config.predict_confidence,
            miss_gate=self.config.predict_miss_gate,
        )
        bank.retarget(
            self.pc_map.anchors,
            self.safety_report if self.config.static_safety != "off"
            else None,
        )
        return bank

    def _build_master(self) -> Master:
        """A master over the *current* distilled artifact (see
        :attr:`_master`)."""
        return Master(
            self.distilled, self.config,
            arrival_pcs=self.pc_map.arrival_pcs(),
            jr_table=self.pc_map.jr_table,
            tier=self.exec_tier,
        )

    def _install_distillation(self, result: DistillationResult) -> None:
        """Hot-swap the distilled artifact, coherently.

        Everything derived from the old distilled program / pc map is
        rebuilt or invalidated here: the master, the recovery chain
        table (:meth:`_recovery_chains`, which reads the anchors), the
        safety report (and with it the verify fast path and the per-task
        proven sets), the statically allowed squash causes, the memory
        version stamps (bulk invalidation — the cheap, always-sound
        option), and the predictor bank's targets (whose master-miss
        streaks reset: the old master's miss history says nothing about
        the new master).
        """
        self._distillation = result
        self.distilled = result.distilled
        self.pc_map = result.pc_map
        self._master = self._build_master()
        self._recover_chains = self._recovery_chains()
        if self.config.static_safety == "off":
            self.safety_report = SafetyReport()
        else:
            self.safety_report = prove_safety(
                self.original, self.distilled, self.pc_map
            )
        if self._allowed_squash_reasons is not None:
            from repro.analysis.checker import predicted_squash_reasons

            self._allowed_squash_reasons = predicted_squash_reasons(result)
        self._versions.invalidate_all()
        if self.predictor is not None:
            self.predictor.retarget(
                self.pc_map.anchors,
                self.safety_report if self.config.static_safety != "off"
                else None,
            )

    def _recovery_chains(self) -> Optional[Tuple[tuple, ...]]:
        """Per pc of the original text: ``(key, n, halts)`` for the
        chain recovery runs from that pc: the trace (key ``pc``), or,
        when an anchor lies strictly inside it, the trace cut before the
        first such anchor (key ``(pc, n)``), so that recovery tests the
        anchor stop once, at the chain's exit; ``n`` is the chain's
        length and ``halts`` whether it ends in ``halt``.  ``None`` on
        the oracle tier, or with protected regions (device accesses are
        logged per step)."""
        if self.exec_tier == "oracle" or self.regions is not None:
            return None
        anchors = self.pc_map.anchors
        decoded = self._decoded_original
        spans = decoded.chain_spans
        table: List[tuple] = [()] * len(spans)
        # The nearest anchor above pc (none: past every span's end).
        above = len(spans)
        for pc in range(len(spans) - 1, -1, -1):
            n = spans[pc]
            table[pc] = (
                (pc, n, decoded.chain_halts[pc]) if above >= pc + n
                else ((pc, above - pc), above - pc, False)
            )
            if pc in anchors:
                above = pc
        return tuple(table)

    def _make_executor(self):
        """Build the executor backend ``self.runtime`` names.

        Subclasses override this (not the episode loop) to supply a
        custom backend; the pipeline and all verify/commit decisions
        (:meth:`_judge_task`) are shared, which is what keeps every
        backend bit-identical.
        """
        return create_executor(self, self.events)

    def _record_master_failure(self, task: Task, event: MasterEvent) -> None:
        """Announce a terminal TRAP/TIMEOUT: the open task is undelimited."""
        record = MasterFailureRecord(
            kind=event.kind.value, master_instrs=event.instrs,
            exact=task.exact,
        )
        squash_task(task, SquashReason.MASTER_TIMEOUT)
        self._assert_predicted(SquashReason.MASTER_TIMEOUT, None)
        self.events.emit(MasterFailed(tid=task.tid, record=record))

    def _judge_task(
        self, task: Task, event: MasterEvent, arch: ArchState
    ) -> tuple:
        """Verify + (maybe) commit one already-executed task.

        This is the in-order verify/commit stage every backend shares:
        it is the only code that writes architected state or announces
        task records (which the counters fold), so any execution strategy
        that feeds it identical task objects in identical order produces
        an identical :class:`MsspResult`.  Returns
        ``(committed, machine_halted)``.
        """
        outcome = verify_task(
            task, arch, versions=self._versions,
            safety_mode=self.config.static_safety,
        )
        if outcome.proven_mismatch:
            # ``check`` mode found a statically PROVEN register whose
            # prediction was wrong: the safety analysis is unsound for
            # this artifact.  This must never be recovered from — it is
            # the strongest differential oracle the prover has.
            raise CheckFailure(
                f"statically PROVEN live-in mismatched at anchor "
                f"{task.start_pc}: {outcome.detail}"
            )
        hits = misses = 0
        bank = self.predictor
        if (
            bank is not None
            and not task.exact
            and task.start_pc == arch.pc
        ):
            # Train the bank from architected truth at the anchor (arch
            # has not moved yet: commit applies live-outs below).  The
            # judge is the one stage every backend passes through in the
            # same order, so training — and therefore every later
            # override — is bit-identical across runtimes.
            hits, misses = bank.observe_task(task, arch)
        # Positional, in TaskAttemptRecord's field order (keywords cost
        # a third of its construction time).
        record = TaskAttemptRecord(
            task.tid, task.start_pc, task.end_pc, task.n_instrs,
            event.instrs, outcome.ok, task.n_loads, event.loads,
            outcome.reason.value, outcome.origin_pc, outcome.checked,
            outcome.mismatched, task.exact, task.final, task.halted,
            len(task.checkpoint), outcome.static_skips, hits, misses,
        )
        if outcome.ok:
            commit_task(task, arch)
            self._versions.stamp_commit(task.live_out_mem)
            self.events.emit(TaskCommitted(tid=task.tid, record=record))
            return True, task.halted
        squash_task(task, outcome.reason)
        self._assert_predicted(outcome.reason, outcome.origin_pc)
        mismatched_regs: tuple = ()
        if task.start_pc == arch.pc:
            # Redistillation evidence: which register live-ins actually
            # disagreed with architected truth (the slave recorded the
            # value it read, so compare those against arch directly).
            regs = arch.regs
            mismatched_regs = tuple(
                r for r, value in sorted(task.live_in_regs.items())
                if value != regs[r]
            )
        self.events.emit(TaskSquashed(
            tid=task.tid, reason=outcome.reason.value, record=record,
            mismatched_regs=mismatched_regs,
        ))
        return False, False

    def _recover(
        self,
        arch: ArchState,
        device_trace: List[DeviceAccess],
        min_instrs: int = 0,
    ) -> RecoveryRecord:
        """Execute the original program non-speculatively from ``arch``.

        Stops at the first arrival (after at least one instruction) at an
        anchor the master can restart from, or at ``halt``.  Architected
        state is advanced directly — this is ordinary sequential
        execution, exactly the paper's fallback path — and it is the only
        path allowed to touch protected regions, so device accesses are
        logged here, in program order, exactly once each.
        """
        anchors = self.pc_map.anchors
        regions = self.regions
        decoded = self._decoded_original
        steppers = decoded.steppers
        size = decoded.size
        table = self._recover_chains
        chains = decoded.chains
        chain_loads = decoded.chain_loads
        regs = arch.regs
        steps = 0
        loads = 0
        accesses = 0
        halted = False
        total = self._recorder.counters.total_instrs
        budget = self.config.max_total_instrs - total
        # Chains are cut before anchors, and run only while the cap and
        # the budget stay unreachable within one body; the per-step loop
        # below handles those boundaries (stops and budget raises fire
        # at exactly the per-step instruction counts).
        cap = min(budget, max(min_instrs, self.config.recovery_max_instrs))
        while True:
            pc = arch.pc
            if not 0 <= pc < size:
                raise InvalidPcError(pc, size)
            if table is not None:
                key, n, halts = table[pc]
                if steps + n < cap:
                    k = chains[key](regs, arch)
                    loads += chain_loads[pc + k] - chain_loads[pc]
                    if k == n and halts:
                        steps += k - 1
                        halted = True
                        break
                    steps += k
                    if steps >= min_instrs and arch.pc in anchors:
                        break
                    continue
            effect = steppers[pc](arch)
            if effect.halted:
                halted = True
                break
            steps += 1
            if effect.mem_addr is not None and not effect.is_store:
                loads += 1
            if (
                regions is not None
                and effect.mem_addr is not None
                and effect.mem_addr in regions
            ):
                device_trace.append(
                    DeviceAccess(
                        pc=pc, address=effect.mem_addr,
                        value=effect.mem_value, is_store=effect.is_store,
                    )
                )
                accesses += 1
            if steps >= min_instrs and arch.pc in anchors:
                break
            if steps >= budget:
                raise StepLimitExceeded(self.config.max_total_instrs)
            if steps >= max(min_instrs, self.config.recovery_max_instrs):
                # Episode cap: hand control back; the engine will start
                # another recovery episode if no anchor was reached.
                break
        # Recovery wrote architected cells without itemizing them:
        # invalidate every version stamp at once.
        self._versions.invalidate_all()
        record = RecoveryRecord(
            n_instrs=steps, halted=halted,
            resumed_at=None if halted else arch.pc,
            n_loads=loads, throttled=min_instrs > 0,
            device_accesses=accesses,
        )
        self.events.emit(RecoveryRun(record=record))
        return record

    def _assert_predicted(
        self, reason: SquashReason, origin_pc: Optional[int]
    ) -> None:
        """Cross-check a squash cause against the static prediction.

        Active only under ``config.assert_static_soundness``: a squash
        whose cause no distiller pass statistic can account for means
        either the distillation pipeline or the checker's model of it is
        wrong, so fail loudly instead of silently recovering.
        """
        allowed = self._allowed_squash_reasons
        if allowed is None or reason.value in allowed:
            return
        where = f" (origin pc {origin_pc})" if origin_pc is not None else ""
        raise MsspError(
            f"statically unpredicted squash cause {reason.value!r}{where}: "
            f"pass statistics only license {sorted(allowed)}"
        )

    def _check_budget(self) -> None:
        """Raise once the instructions that advanced architected state
        reach ``max_total_instrs``: the sequential machine's boundary
        (:func:`~repro.machine.interpreter.run_to_halt` raises when its
        ``max_steps``-th non-halt instruction retires), and recovery's."""
        total = self._recorder.counters.total_instrs
        if total >= self.config.max_total_instrs:
            raise StepLimitExceeded(self.config.max_total_instrs)


def create_engine(
    original: Program,
    distillation: Union[DistillationResult, tuple],
    config: Optional[MsspConfig] = None,
    clock=None,
) -> MsspEngine:
    """Build an engine for ``config.runtime``: eager or process.

    Every runtime is the same :class:`MsspEngine` over a different
    executor backend.  The process backend holds worker processes:
    close the engine when done — ``with create_engine(...) as engine:``
    — or rely on garbage collection's finalizers as a backstop.
    """
    return MsspEngine(original, distillation, config=config, clock=clock)


def run_mssp(
    original: Program,
    distillation: DistillationResult,
    config: Optional[MsspConfig] = None,
) -> MsspResult:
    """Convenience wrapper: build an engine, run it, release its workers."""
    with create_engine(original, distillation, config=config) as engine:
        return engine.run()
