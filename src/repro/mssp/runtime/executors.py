"""Pluggable slave-execution backends for the task pipeline.

One protocol, two substrates:

* :class:`InlineExecutor` — no dispatch at all.  The pipeline runs with
  a window of one and executes every task locally at judge time, which
  *is* the eager reference path.
* :class:`ProcessExecutor` — the :class:`~repro.mssp.runtime.procpool`
  substrate: chunks are wire-encoded (delta-chained checkpoints),
  shipped to forked workers over raw pipes, and decoded against
  per-worker program/base caches.  Workers are separate processes, so
  slave work really overlaps the master; under the interpreter lock,
  threads would only take turns with it.

Workers return flat :func:`repro.mssp.task.wire_result` tuples, and the
pipeline replaces a missing or stale one by local re-execution — the
inline path itself — which is what keeps
:class:`~repro.mssp.engine.MsspResult` bit-identical across the two.

A backend that cannot start or breaks mid-run flags itself ``broken``
and announces a :class:`~repro.mssp.runtime.events.PoolDegraded` event;
from the next episode on the pipeline treats it as inline.
"""

from __future__ import annotations

import functools
import os
import threading
import weakref
from typing import Callable, Dict, List, Optional

from repro.config import RUNTIME_CHOICES
from repro.machine.state import ArchState
from repro.mssp.runtime.events import EventBus, PoolDegraded
from repro.mssp.runtime.procpool import (
    _RUN_TOKENS,
    _PipePool,
    program_wire_digest,
)

__all__ = [
    "SlaveExecutor",
    "InlineExecutor",
    "ProcessExecutor",
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


class SlaveExecutor:
    """Protocol (and inline default) every backend implements.

    The pipeline drives it per episode: ``begin_run`` once per engine
    run, ``begin_episode(arch)`` before production starts, then
    ``submit_chunk(batch)`` for each batch of closed tasks — returning a
    callable that blocks for the chunk's wire results, or ``None`` when
    the backend is (now) broken.  ``close`` releases OS resources and
    must be idempotent.
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

    def submit_chunk(self, batch) -> Optional[Callable[[], List[tuple]]]:
        raise NotImplementedError(
            f"{self.name} executor does not dispatch chunks"
        )

    def close(self) -> None:
        pass

    def mark_broken(self, why: str) -> None:
        """Flag the backend dead and announce the degradation (once)."""
        if not self.broken:
            self.broken = True
            self.events.emit(PoolDegraded(executor=self.name, why=why))


class InlineExecutor(SlaveExecutor):
    """Today's eager path: every task executes locally at judge time."""


class ProcessExecutor(SlaveExecutor):
    """Slave chunks on forked worker processes (the procpool substrate).

    Owns a lazily started :class:`~repro.mssp.runtime.procpool._PipePool`,
    preloaded with the program and kept across runs (worker spawns are
    the dominant fixed cost; steady-state reuse is what benchmarking
    measures).  Chunks go over the wire delta-encoded: in cumulative
    checkpoint mode consecutive checkpoints satisfy
    ``mem_k == mem_{k-1} | delta_k``, so only a chunk's first task ships
    its full overlay.  The episode's base image (memory changed since
    boot) is computed at the episode's first dispatch and ships with the
    first chunk each worker gets in the episode; workers cache it by
    (run token, episode).
    """

    name = "process"
    pipelined = True

    def __init__(self, core, events: EventBus):
        super().__init__(core, events)
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
        #: Workers that hold this episode's base image.
        self._based: set = set()

    @property
    def workers(self) -> int:
        return self.core.config.num_slaves

    def begin_run(self) -> None:
        self._run_token = next(_RUN_TOKENS)
        self._episode_seq = 0
        if self._pool is None and not self.broken:
            self._pool = self._create_pool()
            if self._pool is None:
                self.mark_broken("worker pool failed to start")

    def _create_pool(self):
        """A :class:`_PipePool` preloaded with the program, or None.

        The worker processes are started from a background thread:
        submissions buffer in the pipes meanwhile, so the per-fork spawn
        cost overlaps master production instead of serializing in the
        dispatch path.  A start-up thread the OS refuses (``RuntimeError``)
        leaves no pool: its pipes are closed and the run goes inline.
        """
        try:
            pool = _PipePool(
                self.core.config.num_slaves, self._digest, self.core.original
            )
        except (ImportError, NotImplementedError, OSError):
            return None
        try:
            threading.Thread(target=pool.start, daemon=True).start()
        except RuntimeError:
            pool.shutdown()
            return None
        self._finalizer = weakref.finalize(self, pool.shutdown)
        return pool

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
        return (
            self._digest, core.config.protected_regions,
            core.config.max_task_instrs, self._base_key, base_delta,
            wire, core.exec_tier,
        )

    def submit_chunk(self, batch) -> Optional[Callable[[], List[tuple]]]:
        if self.broken or self._pool is None:
            return None
        pool = self._pool
        try:
            worker = pool.next_worker()
            base_delta = None
            if worker not in self._based:
                base_delta = self._episode_base_delta()
                self._based.add(worker)
            ticket = pool.submit(worker, self._encode_chunk(batch, base_delta))
        except Exception:
            self.mark_broken("worker pool rejected a submission")
            return None
        return functools.partial(pool.get, ticket)

    def close(self) -> None:
        """Shut down the pool; idempotent."""
        if self._finalizer is not None:
            self._finalizer()
        self._pool = None


def create_executor(core, events: EventBus) -> SlaveExecutor:
    """The backend ``core.runtime`` names, bound to ``core``."""
    if core.runtime == "process":
        return ProcessExecutor(core, events)
    return InlineExecutor(core, events)
