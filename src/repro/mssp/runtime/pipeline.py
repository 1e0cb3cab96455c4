"""The MSSP episode state machine, written exactly once.

:class:`TaskPipeline` owns the fork/HALT/TRAP production loop — the
engine's only call into the master's run-ahead entry point lives here —
and runs it against any :class:`SlaveExecutor` backend:

* master production into a bounded in-flight window (window = one task
  for non-pipelined backends, which reproduces the eager engine's
  master/slave interleaving exactly; pipelined backends size it with a
  :class:`RunAheadWindow`);
* chunked dispatch to the executor (pipelined backends only): a chunk
  ships as soon as the master has closed enough tasks to fill it, so
  workers execute while the master forks on and the parent judges;
* in-order judge via the engine core's shared ``_judge_task``: the
  worker result for the head task is awaited, staleness-checked against
  architected state at its commit point, and either adopted or replaced
  by local re-execution — the eager path itself — so the judged task is
  identical either way;
* squash/trap/halt ends the episode, discarding every produced-but-
  unjudged successor, exactly as the eager engine discards them by
  never producing them.  Chunks still in flight are dropped with them:
  the pool discards their replies by chunk id.

Everything observable is announced on the engine's
:class:`~repro.mssp.runtime.events.EventBus` as it happens; the
pipeline counts nothing, the engine's
:class:`~repro.mssp.trace.TraceRecorder` folds the counters.  That fold
follows consume order: a master event's instruction count arrives on
the record its task is judged (or fails) with, so events past the first
squash — which the eager engine never produces — are never counted.
That, plus the staleness check, is the bit-identity argument (see
:meth:`TaskPipeline._result_valid`).  Only the backend-dependent
``discarded`` follows production: forked tasks no verdict followed.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.machine.state import ArchState
from repro.mssp.master import Master, MasterEvent, MasterEventKind
from repro.mssp.runtime.events import (
    ChunkDispatched,
    EventBus,
    LiveInPredicted,
    ResultAdopted,
    TaskExecuted,
    TaskForked,
)
from repro.mssp.runtime.executors import SlaveExecutor
from repro.mssp.slave import execute_task
from repro.mssp.task import (
    Checkpoint,
    Task,
    TaskStatus,
    adopt_wire_result,
)

__all__ = ["RunAheadWindow", "TaskPipeline", "_Pending"]


@dataclass(slots=True)
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
    #: Blocks for the chunk's wire results.
    result: Callable[[], List[tuple]]


class RunAheadWindow:
    """How far the master may run ahead of in-order judgement, in tasks.

    The window of one run's pipelined episodes.  It starts at two chunks
    per worker, so each worker has its next chunk queued while it
    executes one and the parent judges the one before (double
    buffering); it grows by one task per commit up to
    ``max_inflight_tasks``, and halves on a squash or a stale worker
    result — work the run-ahead wasted — down to one task.  The chunk
    size follows the window: ``tasks // (2 * workers)``, clamped to
    ``1..parallel_chunk_tasks``.

    Every input is a verdict of the in-order judge, which every backend
    reaches in the same order, so a run's dispatch schedule is a pure
    function of the run: repeated runs of one engine dispatch
    identically.  The window decides only where and when tasks execute,
    never what is judged.
    """

    __slots__ = ("workers", "max_chunk", "limit", "tasks")

    def __init__(self, workers: int, max_chunk: int, limit: int):
        self.workers = workers
        self.max_chunk = max_chunk
        self.limit = limit
        self.tasks = min(limit, 2 * workers * max_chunk)

    @property
    def chunk(self) -> int:
        """Tasks per dispatched chunk at the current window."""
        return max(1, min(self.max_chunk, self.tasks // (2 * self.workers)))

    def committed(self) -> None:
        """A judged task committed: run one task further ahead."""
        if self.tasks < self.limit:
            self.tasks += 1

    def wasted(self) -> None:
        """A squash or a stale result: halve the run-ahead."""
        self.tasks = max(1, self.tasks // 2)


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
        config = core.config
        self.runahead = RunAheadWindow(
            executor.workers, config.parallel_chunk_tasks,
            config.max_inflight_tasks,
        )

    # -- episode ------------------------------------------------------------------

    def run_episode(
        self,
        arch: ArchState,
        master: Master,
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
        events = self.events
        executor = self.executor
        pipelined = executor.pipelined and not executor.broken
        runahead = self.runahead
        if pipelined:
            executor.begin_episode(arch)
        window = chunk_size = 1
        # Workers execute against an image of architected memory frozen
        # at this point; cells unstamped since now are provably equal to
        # that image at every later judge point in the episode (the
        # verify fast path's precondition for adopted results).
        episode_version = core._versions.seq

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

        while True:
            if pipelined:
                window, chunk_size = runahead.tasks, runahead.chunk
            # 1. Master run-ahead: fork tasks into the window, and ship
            # each chunk the moment it fills.
            while not production_done and len(pending) < window:
                event = master.run_until_fork()
                if event.kind is MasterEventKind.FORK:
                    closed = open_task
                    closed.end_pc = event.anchor
                    closed.end_arrivals = event.arrivals
                    entry = _Pending(closed, event, False, open_delta)
                    pending.append(entry)
                    if pipelined:
                        to_dispatch.append(entry)
                    # Open the successor before announcing the fork, so
                    # opening it is master time.  Start-image patching:
                    # override the master's guess for cells the predictor
                    # bank is both confident about and gate-open on
                    # (episode-frozen snapshot, so every backend patches
                    # identically).  Only registers are patched —
                    # checkpoint memory is delta-chained on the process
                    # wire.  Exact tasks are never patched.
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
                        proven_regs=core.static_proven_regs(event.anchor),
                        predicted_cells=predicted,
                    )
                    open_delta = event.mem_delta
                    next_tid += 1
                    events.emit(TaskForked(
                        tid=closed.tid, start_pc=closed.start_pc,
                        end_pc=closed.end_pc, exact=closed.exact,
                    ))
                    if predicted:
                        events.emit(LiveInPredicted(
                            tid=open_task.tid, anchor=event.anchor,
                            cells=tuple(sorted(predicted)),
                        ))
                elif event.kind is MasterEventKind.HALT:
                    open_task.end_pc = None
                    open_task.final = True
                    entry = _Pending(open_task, event, open_delta=open_delta)
                    pending.append(entry)
                    if pipelined:
                        to_dispatch.append(entry)
                    events.emit(TaskForked(
                        tid=open_task.tid, start_pc=open_task.start_pc,
                        end_pc=None, exact=open_task.exact, final=True,
                    ))
                    production_done = True
                else:  # TRAP / TIMEOUT: the open task is undelimited.
                    pending.append(_Pending(open_task, event, failure=True))
                    production_done = True
                if len(to_dispatch) >= chunk_size:
                    self._dispatch(to_dispatch, chunk_size, inflight)

            # 2. Partial chunks go out only when nothing is in flight
            # (the workers would starve) or nothing more is coming.
            while to_dispatch and (
                len(to_dispatch) >= chunk_size
                or production_done
                or not inflight
            ):
                self._dispatch(to_dispatch, chunk_size, inflight)

            # 3. Verify/commit the next task in episode order.
            entry = pending.popleft()
            task = entry.task
            if entry.failure:
                core._record_master_failure(task, entry.event)
                recent_outcomes.append(False)
                if pipelined:
                    runahead.wasted()
                return False, task.tid + 1
            result = self._await_result(task.tid, inflight, results)
            adopted = False
            reexecuted = ""
            if result is not None:
                task.base_version = episode_version
                if self._result_valid(task, result, arch):
                    adopt_wire_result(task, result)
                    adopted = True
                    events.emit(
                        ResultAdopted(tid=task.tid, cost=task.exec_seconds)
                    )
                else:
                    reexecuted = "stale"
                    runahead.wasted()
            elif pipelined:
                reexecuted = "missing"
            if not adopted:
                self._execute_locally(task, arch)
            events.emit(
                TaskExecuted(
                    task=task, adopted=adopted, cost=task.exec_seconds,
                    reexecuted=reexecuted,
                )
            )
            committed, slave_halted = core._judge_task(task, entry.event, arch)
            recent_outcomes.append(committed)
            if pipelined:
                if committed:
                    runahead.committed()
                else:
                    runahead.wasted()
            if not committed:
                return False, task.tid + 1
            # Every commit, the halting one included, counts against the
            # step budget.
            core._check_budget()
            if slave_halted:
                return True, next_tid

    # -- stages -------------------------------------------------------------------

    def _dispatch(
        self,
        to_dispatch: List[_Pending],
        chunk_size: int,
        inflight: Deque[_Chunk],
    ) -> None:
        """Ship the first ``chunk_size`` closed tasks as one chunk."""
        batch = to_dispatch[:chunk_size]
        del to_dispatch[:chunk_size]
        result = self.executor.submit_chunk(batch)
        if result is None:
            return  # undispatched tasks re-execute locally when judged
        inflight.append(_Chunk(last_tid=batch[-1].task.tid, result=result))
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
        the head chunk is enough; a drained chunk that *should* have
        contained ``tid`` but stopped early (task fault/overrun) yields
        None immediately instead of draining the whole pipeline.
        """
        while tid not in results:
            if not inflight:
                return None
            chunk = inflight.popleft()
            try:
                chunk_results = chunk.result()
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
        t0 = time.perf_counter()
        execute_task(
            core.original, task, arch, core.config.max_task_instrs,
            regions=core.regions, tier=core.exec_tier,
        )
        task.exec_seconds = time.perf_counter() - t0
