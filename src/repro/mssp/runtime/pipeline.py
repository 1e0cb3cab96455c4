"""The MSSP episode state machine, written exactly once.

:class:`TaskPipeline` owns the fork/HALT/TRAP production loop — the
engine's only call into the master's run-ahead entry point lives here —
and runs it against any :class:`SlaveExecutor` backend:

* master production into a bounded in-flight window (window = one task
  for non-pipelined backends, which reproduces the eager engine's
  master/slave interleaving exactly);
* chunked dispatch to the executor (pipelined backends only);
* in-order judge via the engine core's shared ``_judge_task``: the
  worker result for the head task is awaited, staleness-checked against
  architected state at its commit point, and either adopted or replaced
  by local re-execution — the eager path itself — so the judged task is
  identical either way;
* squash/trap/halt ends the episode, discarding every produced-but-
  unjudged successor, exactly as the eager engine discards them by
  never producing them.

Accounting follows consume order, never production order: each master
event's instruction count folds into the counters when its task is
judged, so events past the first squash — which the eager engine never
produces — are never counted.  That, plus the staleness check, is the
bit-identity argument (see :meth:`TaskPipeline._result_valid` for the
staleness half).

Everything observable is announced on the engine's
:class:`~repro.mssp.runtime.events.EventBus` as it happens.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.machine.state import ArchState
from repro.mssp.master import Master, MasterEvent, MasterEventKind
from repro.mssp.runtime.events import (
    ChunkDispatched,
    EventBus,
    JitDeopt,
    LiveInPredicted,
    ResultAdopted,
    TaskExecuted,
    TaskForked,
)
from repro.mssp.runtime.executors import ChunkHandle, SlaveExecutor
from repro.mssp.slave import execute_task
from repro.mssp.task import (
    Checkpoint,
    Task,
    TaskStatus,
    adopt_wire_result,
)

__all__ = ["TaskPipeline", "_Pending"]


@dataclass
class _Pending:
    """One produced-but-not-yet-judged task in episode order."""

    task: Task
    event: MasterEvent
    failure: bool = False
    #: Master store-delta of the event that OPENED this task (wire
    #: chain-encoding input); None ships the full checkpoint map.
    open_delta: Optional[Dict[int, int]] = None


@dataclass
class _Chunk:
    """One in-flight executor submission."""

    last_tid: int
    handle: ChunkHandle


class TaskPipeline:
    """Runs episodes for an engine core over one executor backend.

    ``core`` is the engine (duck-typed): the pipeline reads its config,
    program, regions, tier, and version stamps, and calls back into its
    ``_judge_task`` / ``_record_master_failure`` / ``_check_budget`` —
    the verify/commit stage stays on the engine so subclasses that hook
    judgement keep working identically under every backend.
    """

    def __init__(self, core, executor: SlaveExecutor, events: EventBus):
        self.core = core
        self.executor = executor
        self.events = events
        # Mirror of the jit tier's whole-task deopt conditions in
        # execute_task, so local executions announce their deopts.
        self._jit_deopt_why: Optional[str] = None
        self._jit_leaders = None
        if core.exec_tier == "jit":
            if core.regions is not None:
                self._jit_deopt_why = "protected-regions"
            else:
                from repro.machine.jit import jit_for

                self._jit_leaders = jit_for(core.original, "view").leaders

    # -- episode ------------------------------------------------------------------

    def run_episode(
        self,
        arch: ArchState,
        master: Master,
        counters,
        recent_outcomes: deque,
        next_tid: int,
    ) -> tuple:
        """One episode: the master just restarted at ``arch``.

        Runs production/dispatch/judge until the machine halts or the
        episode fails (squash, master trap/timeout).  Returns
        ``(machine_halted, next_tid)``; the engine handles recovery and
        throttling around it.
        """
        core = self.core
        config = core.config
        events = self.events
        executor = self.executor
        pipelined = executor.pipelined and not executor.broken
        if pipelined:
            chunk_size = min(
                config.parallel_chunk_tasks, config.max_inflight_tasks
            )
            window = max(
                chunk_size,
                min(
                    config.max_inflight_tasks,
                    executor.workers * chunk_size,
                ),
            )
            executor.begin_episode(arch)
        else:
            chunk_size = 1
            window = 1
        # Workers execute against an image of architected memory frozen
        # at this point; cells unstamped since now are provably equal to
        # that image at every later judge point in the episode (the
        # verify fast path's precondition for adopted results).
        episode_version = core._versions.seq
        stats = core.dispatch_stats

        #: Produced, not yet judged — episode order; head judged first.
        pending: Deque[_Pending] = deque()
        #: Produced, not yet shipped — suffix of the episode order.
        to_dispatch: List[_Pending] = []
        inflight: Deque[_Chunk] = deque()
        results: Dict[int, tuple] = {}
        production_done = False

        open_task = Task(
            tid=next_tid, start_pc=arch.pc,
            checkpoint=Checkpoint.exact(arch), exact=True,
            proven_regs=core.static_proven_regs(arch.pc),
        )
        open_delta: Optional[Dict[int, int]] = None
        next_tid += 1

        try:
            while True:
                # 1. Master run-ahead: fork tasks into the window.
                while not production_done and len(pending) < window:
                    event = master.run_until_fork()
                    if event.kind is MasterEventKind.FORK:
                        open_task.end_pc = event.anchor
                        open_task.end_arrivals = event.arrivals
                        entry = _Pending(open_task, event,
                                         open_delta=open_delta)
                        pending.append(entry)
                        if pipelined:
                            to_dispatch.append(entry)
                        events.emit(TaskForked(
                            tid=open_task.tid, start_pc=open_task.start_pc,
                            end_pc=open_task.end_pc, exact=open_task.exact,
                        ))
                        # Start-image patching: override the master's
                        # guess for cells the predictor bank is both
                        # confident about and gate-open on (episode-
                        # frozen snapshot, so every backend patches
                        # identically).  Only registers are patched —
                        # checkpoint memory is delta-chained on the
                        # process wire.  Exact tasks are never patched.
                        checkpoint = event.checkpoint
                        predicted: Dict[int, int] = {}
                        bank = getattr(core, "predictor", None)
                        if bank is not None:
                            overrides = bank.predictions_for(event.anchor)
                            if overrides:
                                checkpoint, predicted = checkpoint.patched(
                                    overrides
                                )
                        open_task = Task(
                            tid=next_tid, start_pc=event.anchor,
                            checkpoint=checkpoint,
                            proven_regs=core.static_proven_regs(
                                event.anchor
                            ),
                            predicted_cells=predicted,
                        )
                        if predicted:
                            events.emit(LiveInPredicted(
                                tid=open_task.tid, anchor=event.anchor,
                                cells=tuple(sorted(predicted)),
                            ))
                        open_delta = event.mem_delta
                        next_tid += 1
                    elif event.kind is MasterEventKind.HALT:
                        open_task.end_pc = None
                        open_task.final = True
                        entry = _Pending(open_task, event,
                                         open_delta=open_delta)
                        pending.append(entry)
                        if pipelined:
                            to_dispatch.append(entry)
                        events.emit(TaskForked(
                            tid=open_task.tid, start_pc=open_task.start_pc,
                            end_pc=None, exact=open_task.exact, final=True,
                        ))
                        production_done = True
                    else:  # TRAP / TIMEOUT: the open task is undelimited.
                        pending.append(_Pending(open_task, event,
                                                failure=True))
                        production_done = True

                # 2. Ship closed tasks in chunks.  Partial chunks go out
                # only when nothing is in flight (the pipeline would
                # starve) or nothing more is coming.
                while to_dispatch and (
                    len(to_dispatch) >= chunk_size
                    or production_done
                    or not inflight
                ):
                    batch = to_dispatch[:chunk_size]
                    del to_dispatch[:chunk_size]
                    self._dispatch(batch, inflight, stats)

                # 3. Verify/commit the next task in episode order.
                entry = pending.popleft()
                counters.master_instrs += entry.event.instrs
                task = entry.task
                if entry.failure:
                    core._record_master_failure(task, entry.event, counters)
                    recent_outcomes.append(False)
                    return False, task.tid + 1
                result = self._await_result(task.tid, inflight, results)
                adopted = False
                if result is not None:
                    task.base_version = episode_version
                    if self._result_valid(task, result, arch):
                        adopt_wire_result(task, result)
                        adopted = True
                        stats.adopted += 1
                        events.emit(
                            ResultAdopted(
                                tid=task.tid, cost=task.exec_seconds
                            )
                        )
                    else:
                        stats.stale += 1
                if not adopted:
                    if pipelined:
                        if result is None:
                            stats.missing += 1
                        stats.reexecuted += 1
                    self._execute_locally(task, arch)
                events.emit(
                    TaskExecuted(
                        task=task, adopted=adopted, cost=task.exec_seconds
                    )
                )
                committed, slave_halted = core._judge_task(
                    task, entry.event, arch, counters
                )
                recent_outcomes.append(committed)
                if not committed:
                    return False, task.tid + 1
                if slave_halted:
                    return True, next_tid
                core._check_budget(counters)
        finally:
            # Episode over: every produced-but-unjudged successor is
            # discarded, exactly as the eager engine discards it by
            # never producing it.
            stats.discarded += len(pending) + len(to_dispatch)
            for chunk in inflight:
                chunk.handle.cancel()
            if pipelined:
                executor.end_episode()

    # -- stages -------------------------------------------------------------------

    def _dispatch(
        self,
        batch: List[_Pending],
        inflight: Deque[_Chunk],
        stats,
    ) -> None:
        handle = self.executor.submit_chunk(batch)
        if handle is None:
            return  # undispatched tasks re-execute locally when judged
        inflight.append(_Chunk(last_tid=batch[-1].task.tid, handle=handle))
        stats.chunks += 1
        stats.dispatched += len(batch)
        self.events.emit(ChunkDispatched(
            executor=self.executor.name,
            first_tid=batch[0].task.tid,
            last_tid=batch[-1].task.tid,
            n_tasks=len(batch),
        ))

    def _await_result(
        self,
        tid: int,
        inflight: Deque[_Chunk],
        results: Dict[int, tuple],
    ) -> Optional[tuple]:
        """The worker result for ``tid``, or None (→ local re-execution).

        Chunks are submitted and consumed in episode order, so draining
        the head handle is enough; a drained chunk that *should* have
        contained ``tid`` but stopped early (task fault/overrun) yields
        None immediately instead of draining the whole pipeline.
        """
        while tid not in results:
            if not inflight:
                return None
            chunk = inflight.popleft()
            try:
                chunk_results = chunk.handle()
            except Exception:
                self.executor.mark_broken("a chunk failed to complete")
                return None
            for item in chunk_results:
                results[item[0]] = item
            if tid not in results and tid <= chunk.last_tid:
                return None
        return results.pop(tid)

    def _result_valid(
        self, task: Task, result: tuple, arch: ArchState
    ) -> bool:
        """True iff the worker's execution is what eager would produce.

        Register live-ins come from the checkpoint (shipped verbatim)
        and the memory overlay is reconstructed exactly, so the worker
        can only have diverged through a memory cell it read from its
        (possibly stale) image of architected state — by the slave
        view's lookup order, exactly the recorded ``live_in_mem``
        entries whose address the checkpoint overlay does not cover.
        If every such cell matches architected state *now* (this task's
        commit point), the worker's execution was step-for-step the
        eager one.

        Cells the version stamps prove unchanged since episode start
        skip the value compare (``task.base_version`` is the episode's
        base version here): an unchanged cell still holds the episode
        base image's value, which is exactly what the worker read —
        unless a chunk predecessor's overlay served the read, in which
        case that predecessor has committed by now and stamped the cell,
        forcing the full compare.  The verdict is identical either way.
        """
        ckpt_mem = task.checkpoint.mem
        load = arch.load
        versions = self.core._versions
        base = task.base_version
        for address, value in result[2].items():
            if address in ckpt_mem:
                continue
            if base is not None and not versions.changed_since(address, base):
                versions.skipped += 1
                continue
            if load(address) != value:
                return False
        return True

    def _execute_locally(self, task: Task, arch: ArchState) -> None:
        """The eager path: execute against architected state as of now."""
        core = self.core
        task.status = TaskStatus.READY
        # Nothing commits between this execution and the judge that
        # follows it, so the version stamp taken now never invalidates.
        task.base_version = core._versions.seq
        if self._jit_deopt_why is not None:
            self.events.emit(JitDeopt(tid=task.tid, why=self._jit_deopt_why))
        elif (
            self._jit_leaders is not None
            and task.end_pc is not None
            and task.end_pc not in self._jit_leaders
        ):
            self.events.emit(JitDeopt(tid=task.tid, why="non-leader-end-pc"))
        t0 = time.perf_counter()
        execute_task(
            core.original, task, arch, core.config.max_task_instrs,
            regions=core.regions, tier=core.exec_tier,
        )
        task.exec_seconds = time.perf_counter() - t0
