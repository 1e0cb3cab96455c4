"""Pluggable slave-execution backends for the task pipeline.

One protocol, three substrates:

* :class:`InlineExecutor` — no dispatch at all.  The pipeline runs with
  a window of one and executes every task locally at judge time, which
  *is* the eager reference path.
* :class:`ThreadExecutor` — slave chunks on a
  :class:`~concurrent.futures.ThreadPoolExecutor`.  Zero pickling and
  zero wire encoding (tasks are read in place through an episode-start
  memory snapshot), so its entire cost is the thread handoff: the right
  overlap story on 1-core containers and free-threaded CPython, and a
  much cheaper differential target for tests than a process pool.
* :class:`ProcessExecutor` — the :class:`~repro.mssp.runtime.procpool`
  substrate: chunks are wire-encoded (delta-chained checkpoints),
  shipped to forked workers over raw pipes, and decoded against
  per-worker program/base caches.

Every backend returns the same flat :func:`repro.mssp.task.wire_result`
tuples, and the pipeline treats a missing/stale result identically
regardless of backend (local re-execution), which is what keeps
:class:`~repro.mssp.engine.MsspResult` bit-identical across all three.

A backend that cannot start or breaks mid-run flags itself ``broken``
and announces a :class:`~repro.mssp.runtime.events.PoolDegraded` event;
from the next episode on the pipeline treats it as inline.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable, Dict, List, Optional

from repro.config import RUNTIME_CHOICES
from repro.machine.state import ArchState
from repro.mssp.runtime.events import EventBus, PoolDegraded
from repro.mssp.runtime.procpool import (
    _RUN_TOKENS,
    _ChainMemory,
    _PipePool,
    _execute_chunk,
    _execute_tasks,
    program_wire_digest,
)
from repro.mssp.task import Task

__all__ = [
    "SlaveExecutor",
    "InlineExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "ChunkHandle",
    "create_executor",
    "resolve_runtime",
    "RUNTIME_CHOICES",
]

def resolve_runtime(setting: Optional[str]) -> str:
    """Resolve a config/CLI runtime setting to a backend name.

    ``None`` defers to the ``REPRO_RUNTIME`` environment variable
    (default eager), mirroring how ``exec_tier``/``REPRO_EXEC`` resolve.
    """
    if setting is None:
        setting = os.environ.get("REPRO_RUNTIME") or "eager"
    if setting not in RUNTIME_CHOICES:
        raise ValueError(
            f"unknown runtime {setting!r}: expected one of {RUNTIME_CHOICES}"
        )
    return setting


class ChunkHandle:
    """One in-flight chunk: call to block for its wire results."""

    __slots__ = ("_result", "_cancel")

    def __init__(
        self,
        result: Callable[[], List[tuple]],
        cancel: Optional[Callable[[], object]] = None,
    ):
        self._result = result
        self._cancel = cancel

    def __call__(self) -> List[tuple]:
        return self._result()

    def cancel(self) -> None:
        """Best-effort abandon (pipe chunks cannot be cancelled; their
        replies are dropped by chunk id instead)."""
        if self._cancel is not None:
            self._cancel()


class SlaveExecutor:
    """Protocol (and inline default) every backend implements.

    The pipeline drives it per episode: ``begin_run`` once per engine
    run, ``begin_episode(arch)`` before production starts, then
    ``submit_chunk(batch)`` for each batch of closed tasks — returning a
    :class:`ChunkHandle` or ``None`` when the backend is (now) broken —
    and ``end_episode`` when the episode ends (commit, squash, or halt).
    ``close`` releases OS resources and must be idempotent.
    """

    name = "inline"
    #: Whether the pipeline should run the master ahead and dispatch
    #: chunks at all.  Non-pipelined backends get a window of one task —
    #: exactly the eager engine's interleaving.
    pipelined = False

    def __init__(self, core, events: EventBus):
        self.core = core
        self.events = events
        self.broken = False

    @property
    def workers(self) -> int:
        return 1

    def begin_run(self) -> None:
        pass

    def begin_episode(self, arch: ArchState) -> None:
        pass

    def submit_chunk(self, batch) -> Optional[ChunkHandle]:
        raise NotImplementedError(
            f"{self.name} executor does not dispatch chunks"
        )

    def end_episode(self) -> None:
        pass

    def close(self) -> None:
        pass

    def mark_broken(self, why: str) -> None:
        """Flag the backend dead and announce the degradation (once)."""
        if not self.broken:
            self.broken = True
            self.events.emit(PoolDegraded(executor=self.name, why=why))


class InlineExecutor(SlaveExecutor):
    """Today's eager path: every task executes locally at judge time."""


class ThreadExecutor(SlaveExecutor):
    """Slave chunks on an in-process thread pool, no wire cost.

    Chunks execute against a memory snapshot taken at episode start
    (the exact analogue of the process workers' ``_episode_base``
    image), chaining live-outs through a chunk-local
    :class:`~repro.mssp.runtime.procpool._ChainMemory` overlay.  Worker
    threads run *shadow* tasks built from the authoritative tasks'
    immutable fields, so the main thread's judge/re-execute path never
    races a thread over task state; results travel back as the same
    :func:`~repro.mssp.task.wire_result` tuples the process backend
    produces.
    """

    name = "thread"
    pipelined = True

    def __init__(self, core, events: EventBus):
        super().__init__(core, events)
        self._pool = None
        self._finalizer = None
        self._base: Dict[int, int] = {}
        self._ended = threading.Event()
        if core.exec_tier == "jit" and core.regions is None:
            # Compile the JitProgram on the main thread before worker
            # threads race to attach it to the program object.
            from repro.machine.jit import jit_for

            jit_for(core.original, "view")

    @property
    def workers(self) -> int:
        return self.core.config.num_slaves

    def _ensure_pool(self):
        if self._pool is None and not self.broken:
            try:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="mssp-slave",
                )
                self._finalizer = weakref.finalize(
                    self, self._pool.shutdown, wait=False,
                    cancel_futures=True,
                )
            except Exception:  # pragma: no cover - thread-less hosts
                self.mark_broken("thread pool failed to start")
        return self._pool

    def begin_episode(self, arch: ArchState) -> None:
        # Freeze the episode-start image: committing tasks mutate
        # arch.mem on the main thread while chunks read concurrently.
        self._base = dict(arch.mem)
        self._ended = threading.Event()

    def end_episode(self) -> None:
        # Chunks already running stop at their next task: their results
        # can no longer be judged, and the work holds the GIL.
        self._ended.set()

    def submit_chunk(self, batch) -> Optional[ChunkHandle]:
        pool = self._ensure_pool()
        if pool is None:
            return None
        core = self.core
        specs = [
            (entry.task.tid, entry.task.start_pc, entry.task.end_pc,
             entry.task.end_arrivals, entry.task.checkpoint)
            for entry in batch
        ]
        # Shadow tasks, built on the worker thread as the loop reaches
        # them, until the episode ends.
        ended = self._ended
        shadows = (
            Task(
                tid=tid, start_pc=start_pc, checkpoint=checkpoint,
                end_pc=end_pc, end_arrivals=end_arrivals,
            )
            for tid, start_pc, end_pc, end_arrivals, checkpoint in specs
            if not ended.is_set()
        )
        try:
            future = pool.submit(
                _execute_tasks, core.original, shadows,
                _ChainMemory(self._base), core.config.max_task_instrs,
                core.regions, core.exec_tier,
            )
        except Exception:
            self.mark_broken("thread pool rejected a submission")
            return None
        return ChunkHandle(future.result, future.cancel)

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()
        self._pool = None


class ProcessExecutor(SlaveExecutor):
    """Slave chunks on forked worker processes (the procpool substrate).

    Owns a lazily started :class:`~repro.mssp.runtime.procpool._PipePool`
    kept across runs (worker spawns are the dominant fixed cost;
    steady-state reuse is what benchmarking measures), or wraps an
    externally supplied executor — then the program ships with every
    chunk instead of preloading workers, and the pool is never shut
    down.  Chunks go over the wire delta-encoded: in cumulative
    checkpoint mode consecutive checkpoints satisfy
    ``mem_k == mem_{k-1} | delta_k``, so only a chunk's first task ships
    its full overlay.  The episode's base image (memory changed since
    boot) is computed at the episode's first dispatch and ships with the
    first chunk each pipe worker gets in the episode; workers cache it
    by (run token, episode).  An external pool may hand any chunk to
    any worker, so there every chunk carries it.
    """

    name = "process"
    pipelined = True

    def __init__(self, core, events: EventBus, external=None):
        super().__init__(core, events)
        self._external = external
        self._pool = None
        self._finalizer = None
        self._digest = program_wire_digest(core.original)
        self._boot_mem: Dict[int, int] = dict(core.original.memory)
        self._run_token = -1
        self._episode_seq = 0
        self._base_key: tuple = (-1, -1)
        self._episode_arch: Optional[ArchState] = None
        #: This episode's base delta, once its first chunk is encoded.
        self._base_delta: Optional[Dict[int, int]] = None
        #: Pipe workers that hold this episode's base image.
        self._based: set = set()

    @property
    def workers(self) -> int:
        return self.core.config.num_slaves

    def begin_run(self) -> None:
        self._run_token = next(_RUN_TOKENS)
        self._episode_seq = 0
        if self._external is not None:
            self._pool = self._external
        elif self._pool is None and not self.broken:
            self._pool = self._create_pool()
            if self._pool is None:
                self.mark_broken("worker pool failed to start")

    def _create_pool(self):
        """A :class:`_PipePool` preloaded with the program, or None.

        The worker processes are started from a background thread:
        submissions buffer in the pipes meanwhile, so the per-fork spawn
        cost overlaps master production instead of serializing in the
        dispatch path.
        """
        try:
            pool = _PipePool(
                self.core.config.num_slaves, self._digest,
                self.core.original, tier=self.core.exec_tier,
            )
            threading.Thread(target=pool.start, daemon=True).start()
            self._finalizer = weakref.finalize(self, pool.shutdown)
            return pool
        except (ImportError, NotImplementedError, OSError, PermissionError):
            return None

    def begin_episode(self, arch: ArchState) -> None:
        self._base_key = (self._run_token, self._episode_seq)
        self._episode_seq += 1
        self._episode_arch = arch
        self._base_delta = None
        self._based.clear()

    def _episode_base_delta(self) -> Dict[int, int]:
        """Memory changed since boot (value 0 encodes a deleted cell).

        Computed at the episode's first dispatch, which the pipeline
        makes before its first judgement, so it is the episode-start
        image.
        """
        if self._base_delta is None:
            boot = self._boot_mem
            current = self._episode_arch.mem
            delta = dict(current.items() - boot.items())
            for address in boot.keys() - current.keys():
                if boot[address]:
                    delta[address] = 0
            self._base_delta = delta
        return self._base_delta

    def _encode_chunk(
        self, batch, base_delta: Optional[Dict[int, int]] = None
    ) -> tuple:
        """The picklable worker payload for one chunk of tasks.

        ``base_delta`` None: the worker already holds the episode base.
        """
        core = self.core
        chained = core.config.checkpoint_mode == "cumulative"
        wire = []
        first = True
        for entry in batch:
            task = entry.task
            ckpt = task.checkpoint
            if not first and chained and entry.open_delta is not None:
                mem_full, mem_delta = None, entry.open_delta
            else:
                mem_full, mem_delta = ckpt.mem, None
            wire.append(
                (task.tid, task.start_pc, task.end_pc, task.end_arrivals,
                 ckpt.regs, mem_full, mem_delta)
            )
            first = False
        shipped = None if self._external is None else core.original
        return (
            self._digest, shipped, core.config.protected_regions,
            core.config.max_task_instrs, self._base_key, base_delta,
            wire, core.exec_tier,
        )

    def submit_chunk(self, batch) -> Optional[ChunkHandle]:
        if self.broken or self._pool is None:
            return None
        pool = self._pool
        try:
            if isinstance(pool, _PipePool):
                worker = pool.next_worker()
                base_delta = None
                if worker not in self._based:
                    base_delta = self._episode_base_delta()
                    self._based.add(worker)
                ticket = pool.submit(
                    worker, self._encode_chunk(batch, base_delta)
                )
                return ChunkHandle(lambda: pool.get(ticket))
            future = pool.submit(
                _execute_chunk,
                self._encode_chunk(batch, self._episode_base_delta()),
            )
        except Exception:
            self.mark_broken("worker pool rejected a submission")
            return None
        return ChunkHandle(future.result, future.cancel)

    def close(self) -> None:
        """Shut down the executor's own pool (external pools stay up)."""
        if self._finalizer is not None:
            self._finalizer()
        self._pool = None


def create_executor(core, events: EventBus) -> SlaveExecutor:
    """The backend ``core.runtime`` names, bound to ``core``."""
    runtime = core.runtime
    if runtime == "thread":
        return ThreadExecutor(core, events)
    if runtime == "process":
        return ProcessExecutor(core, events)
    return InlineExecutor(core, events)
