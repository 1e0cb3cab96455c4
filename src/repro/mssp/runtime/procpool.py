"""Worker-process substrate of the process executor.

This module is the *slave side* of the process backend: everything that
runs (or is pickled into) a worker process lives here, deliberately free
of any import of the engine layer so the runtime core
(:mod:`repro.mssp.runtime.executors`, :mod:`repro.mssp.runtime.pipeline`)
can build on it without cycles.

Workers keep two process-local caches: programs (and, via the global
decode cache, their decodings) keyed by content digest — so the program
ships once per worker, through the pool initializer, not once per task —
and per-episode base memory images keyed by (run token, episode).  The
token, unique per engine run within the parent process, keeps an
externally shared executor from resurrecting a previous run's episode
bases.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import time
from typing import Dict, Iterable, Iterator, List, Optional

from repro.isa.program import Program
from repro.machine.decoded import decode
from repro.mssp.regions import ProtectedRegions
from repro.mssp.slave import execute_task
from repro.mssp.task import Checkpoint, Task, wire_result

__all__ = [
    "program_wire_digest",
    "_ChainMemory",
    "_PipePool",
    "_episode_base",
    "_execute_chunk",
    "_execute_tasks",
    "_pipe_worker",
    "_wire_tasks",
    "_worker_init",
    "_WORKER_BASES",
    "_WORKER_PROGRAMS",
    "_RUN_TOKENS",
]


def program_wire_digest(program: Program) -> bytes:
    """Content digest keying the per-worker program/decode cache."""
    hasher = hashlib.sha256()
    hasher.update(
        pickle.dumps(
            (program.code, tuple(sorted(program.memory.items())),
             program.entry),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    return hasher.digest()


_WORKER_PROGRAMS: Dict[bytes, Program] = {}
_WORKER_BASES: Dict[tuple, Dict[int, int]] = {}
_WORKER_BASE_LIMIT = 4

_RUN_TOKENS = itertools.count()


def _worker_init(
    digest: bytes, program: Program, tier: str = "decoded"
) -> None:
    """Pool initializer: preload + pre-decode the original program.

    Under the jit tier the worker also builds its
    :class:`~repro.machine.jit.JitProgram` up front, which replays any
    superblocks already in the persistent code cache — workers reuse
    compilations (typically the parent's) instead of re-JITting through
    their own warmup.
    """
    _WORKER_PROGRAMS[digest] = program
    _WORKER_BASES.clear()
    decode(program)
    if tier == "jit":
        from repro.machine.jit import jit_for

        jit_for(program, "view")


def _pipe_worker(
    conn, digest: bytes, program: Program, tier: str = "decoded"
) -> None:
    """Slave process main loop: execute chunks arriving on ``conn``.

    Messages are ``(chunk_id, payload)``; replies are
    ``(chunk_id, results)``.  ``None`` (or a closed pipe) shuts the
    worker down.  The chunk id is echoed so the engine can discard
    replies to chunks it stopped caring about (episode squash).
    """
    _worker_init(digest, program, tier)
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            chunk_id, payload = message
            conn.send((chunk_id, _execute_chunk(payload)))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _PipePool:
    """A minimal process pool over raw pipes, one per worker.

    ``ProcessPoolExecutor`` routes every submission and result through a
    manager thread plus a queue-feeder thread; with a busy main thread
    (master production + verify) each hop costs GIL handoffs that dwarf
    the actual (sub-millisecond) pickling work.  Here the main thread
    talks to each worker over its own duplex pipe directly: submission
    is one ``send``, retrieval one ``recv`` (which releases the GIL
    while blocking), and there are no auxiliary threads at all.

    Chunks are assigned round-robin; each worker processes its pipe in
    FIFO order, so consuming results in submission order per worker is a
    plain ``recv`` loop.  Stale replies (chunks abandoned on episode
    squash) are skipped by chunk id.
    """

    def __init__(
        self,
        num_workers: int,
        digest: bytes,
        program: Program,
        tier: str = "decoded",
    ):
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()
        self._conns = []
        self._procs = []
        self._next_worker = 0
        self._chunk_ids = itertools.count()
        self.num_workers = num_workers
        for _ in range(num_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_pipe_worker,
                args=(child_conn, digest, program, tier),
                daemon=True,
            )
            self._conns.append(parent_conn)
            self._procs.append((proc, child_conn))

    def start(self) -> None:
        """Start the worker processes (run from a background thread:
        submissions buffer in the pipes until workers come up, so the
        ~10ms-per-fork spawn cost overlaps master production)."""
        for proc, child_conn in self._procs:
            proc.start()
            # The child inherited its end; drop the parent's duplicate
            # so a dead worker surfaces as EOF instead of a hang.
            child_conn.close()

    def submit(self, payload: tuple):
        """Ship one chunk; returns an opaque ticket for :meth:`get`."""
        worker = self._next_worker
        self._next_worker = (worker + 1) % self.num_workers
        chunk_id = next(self._chunk_ids)
        self._conns[worker].send((chunk_id, payload))
        return (worker, chunk_id)

    def get(self, ticket) -> List[tuple]:
        """Block for one chunk's results, discarding stale replies."""
        worker, chunk_id = ticket
        conn = self._conns[worker]
        while True:
            got_id, results = conn.recv()
            if got_id == chunk_id:
                return results
            # else: a reply for an episode-squashed chunk; drop it.

    def shutdown(self, wait: bool = False, cancel_futures: bool = False):
        for conn in self._conns:
            try:
                conn.send(None)
            except (OSError, ValueError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        for proc, _ in self._procs:
            proc.join(timeout=0.5 if wait else 0.05)
            if proc.is_alive():
                proc.terminate()
        for proc, _ in self._procs:
            if not proc.is_alive():
                proc.join(timeout=0.1)


class _ChainMemory:
    """Architected-memory stand-in for one chunk's optimistic chain.

    ``overlay`` accumulates the live-outs of the chunk's earlier tasks
    (their would-be commits); ``base`` is the episode-start memory
    image.  Mirrors :meth:`ArchState.load`: absent cells read as zero.
    Only :meth:`load` is required — slave execution never stores through
    its architected-state handle.
    """

    __slots__ = ("overlay", "base")

    def __init__(self, base: Dict[int, int]):
        self.overlay: Dict[int, int] = {}
        self.base = base

    def load(self, address: int) -> int:
        value = self.overlay.get(address)
        if value is not None:
            return value
        return self.base.get(address, 0)

    def apply(self, mem_writes: Dict[int, int]) -> None:
        self.overlay.update(mem_writes)


def _episode_base(
    key: tuple, base_delta: Dict[int, int], program: Program
) -> Dict[int, int]:
    """The episode-start memory image (boot image + commit delta)."""
    base = _WORKER_BASES.get(key)
    if base is None:
        base = dict(program.memory)
        for address, value in base_delta.items():
            if value:
                base[address] = value
            else:  # a boot-image cell the machine has since zeroed
                base.pop(address, None)
        while len(_WORKER_BASES) >= _WORKER_BASE_LIMIT:
            _WORKER_BASES.pop(next(iter(_WORKER_BASES)))
        _WORKER_BASES[key] = base
    return base


def _execute_tasks(
    program: Program,
    tasks: Iterable[Task],
    chain: _ChainMemory,
    max_task_instrs: int,
    regions: Optional[ProtectedRegions],
    tier: str,
) -> List[tuple]:
    """The slave chunk loop, shared by the thread and process backends.

    Executes ``tasks`` in order against ``chain``, stamps each task's
    measured ``exec_seconds``, and returns one wire result per executed
    task.  A task that faults, overruns or aborts on a protected access
    ends the chunk: in-order verification squashes it unconditionally,
    ending the episode, so its successors can never be consumed (and if
    the abort was itself an artifact of stale reads, the missing results
    simply fall back to local re-execution).  Otherwise its live-outs
    join the chain for the next task.
    """
    results: List[tuple] = []
    for task in tasks:
        t0 = time.perf_counter()
        execute_task(
            program, task, chain, max_task_instrs, regions=regions, tier=tier
        )
        task.exec_seconds = time.perf_counter() - t0
        results.append(wire_result(task))
        if task.faulted or task.overrun or task.protected_access:
            break
        chain.apply(task.live_out_mem)
    return results


def _wire_tasks(wire_tasks) -> Iterator[Task]:
    """Rebuild a chunk's tasks from the wire, one at a time."""
    prev_mem: Optional[Dict[int, int]] = None
    for (tid, start_pc, end_pc, end_arrivals, regs,
         mem_full, mem_delta) in wire_tasks:
        if mem_full is not None:
            ckpt_mem = mem_full
        else:  # cumulative chain: mem_k == mem_{k-1} | delta_k
            ckpt_mem = {**prev_mem, **mem_delta}
        prev_mem = ckpt_mem
        yield Task(
            tid=tid, start_pc=start_pc,
            checkpoint=Checkpoint(regs=regs, mem=ckpt_mem),
            end_pc=end_pc, end_arrivals=end_arrivals,
        )


def _execute_chunk(payload: tuple) -> List[tuple]:
    """Execute one wire-encoded chunk of tasks; the pool worker entry.

    ``payload`` is built by
    :meth:`repro.mssp.runtime.executors.ProcessExecutor._encode_chunk`.
    Returns one result tuple per executed task (see
    :func:`_execute_tasks`).
    """
    (digest, shipped_program, regions_ranges, max_task_instrs,
     base_key, base_delta, wire_tasks, tier) = payload
    program = _WORKER_PROGRAMS.get(digest)
    if program is None:
        if shipped_program is None:  # pragma: no cover - defensive
            raise RuntimeError("worker received no program for digest")
        program = shipped_program
        _WORKER_PROGRAMS[digest] = program
    return _execute_tasks(
        program, _wire_tasks(wire_tasks),
        _ChainMemory(_episode_base(base_key, base_delta, program)),
        max_task_instrs, ProtectedRegions.from_config(regions_ranges), tier,
    )
