"""Worker-process substrate of the process executor.

This module is the *slave side* of the process backend: everything that
runs (or is pickled into) a worker process lives here, deliberately free
of any import of the engine layer so the runtime core
(:mod:`repro.mssp.runtime.executors`, :mod:`repro.mssp.runtime.pipeline`)
can build on it without cycles.

Workers keep two process-local caches: programs (and, via the global
decode cache, their decodings) keyed by content digest — so the program
ships once per worker, through the pool initializer, not once per task —
and per-episode base memory images keyed by (run token, episode), so a
worker receives each episode's base once, with its first chunk of the
episode.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import select
import struct
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional, Set

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

#: Unique per engine run in this process.  One pool serves every run of
#: its engine and episode numbers restart each run, so the token keeps a
#: worker from reading the base an earlier run cached for the same
#: episode number.
_RUN_TOKENS = itertools.count()

#: Every pool pipe end this process holds: the parent ends of live
#: pools and the child ends not yet handed to a started worker.  A
#: forked worker inherits all of them and closes every one but its own
#: child end, so no worker keeps another pool's pipe open.
_OPEN_ENDS: Set = set()


def _worker_init(digest: bytes, program: Program) -> None:
    """Pool initializer: preload + pre-decode the original program.

    Workers run the decoded chains on every tier but ``oracle`` (the
    jit compiles only the master's regions), so the decoding is all
    there is to warm."""
    _WORKER_PROGRAMS[digest] = program
    _WORKER_BASES.clear()
    decode(program)


def _pipe_worker(conn, digest: bytes, program: Program) -> None:
    """Slave process main loop: execute chunks arriving on ``conn``.

    Messages are ``(chunk_id, payload)``; replies are
    ``(chunk_id, results)``.  ``None`` (or a closed pipe) shuts the
    worker down.  The chunk id is echoed so the engine can discard
    replies to chunks it stopped caring about (episode squash).  With
    every other pool pipe end closed, the worker sees EOF or EPIPE once
    the parent is gone.

    The worker runs as a batch task: Linux never lets one preempt the
    task that wakes it.  A chunk sent to a sleeping worker otherwise
    took the parent's core until the chunk was done, and the master and
    the worker took turns on one core while the other idled."""
    for end in list(_OPEN_ENDS):
        if end is not conn:
            end.close()
    _OPEN_ENDS.clear()
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):  # not Linux, or not permitted
        pass
    _worker_init(digest, program)
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

    The caller picks each chunk's worker with :meth:`next_worker`
    (round-robin); each worker processes its pipe in FIFO order.
    ``submit`` never blocks on a full socket while the worker waits for
    its own reply to be read: it first reads the replies already
    waiting, then writes without blocking and reads a reply whenever
    the socket will take no more.  So any number of chunks may be in
    flight per worker.  Replies wait for :meth:`get` by chunk id; those
    of chunks abandoned on episode squash are dropped by the next
    ``get``.
    """

    def __init__(self, num_workers: int, digest: bytes, program: Program):
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()
        pipes = [ctx.Pipe(duplex=True) for _ in range(num_workers)]
        self._conns = [parent_conn for parent_conn, _ in pipes]
        self._procs = []
        self._next_worker = 0
        self._chunk_ids = itertools.count()
        self._unanswered = [0] * num_workers
        self._replies: Dict[int, List[tuple]] = {}
        self.num_workers = num_workers
        #: Orders :meth:`start` (run from a background thread) against
        #: :meth:`shutdown`, so no worker starts once the pool is closed.
        self._lock = threading.Lock()
        self._closed = False
        for pipe in pipes:
            _OPEN_ENDS.update(pipe)
        for _, child_conn in pipes:
            proc = ctx.Process(
                target=_pipe_worker,
                args=(child_conn, digest, program),
                daemon=True,
            )
            self._procs.append((proc, child_conn))

    def start(self) -> None:
        """Start the worker processes (run from a background thread:
        submissions buffer in the pipes until workers come up, so the
        ~10ms-per-fork spawn cost overlaps master production).  Starts
        none once the pool is shut down."""
        for proc, child_conn in self._procs:
            with self._lock:
                if self._closed:
                    return
                proc.start()
                # The child inherited its end; drop the parent's
                # duplicate so a dead worker surfaces as EOF instead of a
                # hang.
                _OPEN_ENDS.discard(child_conn)
                child_conn.close()

    def next_worker(self) -> int:
        """The worker the next chunk goes to (round-robin)."""
        worker = self._next_worker
        self._next_worker = (worker + 1) % self.num_workers
        return worker

    def submit(self, worker: int, payload: tuple):
        """Ship one chunk to ``worker``; returns a ticket for :meth:`get`."""
        conn = self._conns[worker]
        while self._unanswered[worker] and conn.poll():
            self._read(worker)
        chunk_id = next(self._chunk_ids)
        self._send(worker, (chunk_id, payload))
        self._unanswered[worker] += 1
        return (worker, chunk_id)

    def _send(self, worker: int, message) -> None:
        """Write ``message`` in the framing ``Connection.recv`` reads.

        A blocking ``send`` could wait on a worker that is itself
        blocked sending a reply into a full socket; so the bytes go out
        without blocking, and whenever the socket takes no more, a reply
        that arrives meanwhile is read first.
        """
        data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        view = memoryview(struct.pack("!i", len(data)) + data)
        fd = self._conns[worker].fileno()
        while view:
            os.set_blocking(fd, False)
            try:
                view = view[os.write(fd, view):]
            except BlockingIOError:
                pass
            finally:
                os.set_blocking(fd, True)
            if view:
                readable, _, _ = select.select([fd], [fd], [])
                if readable:
                    self._read(worker)

    def get(self, ticket) -> List[tuple]:
        """Block for one chunk's results, discarding stale replies."""
        worker, chunk_id = ticket
        while chunk_id not in self._replies:
            self._read(worker)
        # Chunks are consumed in submission order: an older reply still
        # here belongs to a chunk an episode squash abandoned.
        for stale in [c for c in self._replies if c < chunk_id]:
            del self._replies[stale]
        return self._replies.pop(chunk_id)

    def _read(self, worker: int) -> None:
        got_id, results = self._conns[worker].recv()
        self._unanswered[worker] -= 1
        self._replies[got_id] = results

    def shutdown(self, wait: bool = False) -> None:
        """Stop the started workers; a later :meth:`start` starts none."""
        with self._lock:
            self._closed = True
            started = []
            for proc, child_conn in self._procs:
                if proc.pid is None:  # never started: its end is ours
                    _OPEN_ENDS.discard(child_conn)
                    child_conn.close()
                else:
                    started.append(proc)
        for conn in self._conns:
            try:
                conn.send(None)
            except (OSError, ValueError):
                pass
            try:
                conn.close()
            except OSError:
                pass
            _OPEN_ENDS.discard(conn)
        for proc in started:
            proc.join(timeout=0.5 if wait else 0.05)
            if proc.is_alive():
                proc.terminate()
        for proc in started:
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
    key: tuple, base_delta: Optional[Dict[int, int]], program: Program
) -> Dict[int, int]:
    """The episode-start memory image (boot image + commit delta).

    ``base_delta`` is None on every chunk but the first a worker gets in
    an episode, which built the image this one reads.
    """
    base = _WORKER_BASES.get(key)
    if base is None:
        if base_delta is None:
            raise RuntimeError(f"no episode base cached for {key}")
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
    """The slave chunk loop a worker runs for each chunk.

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
    (digest, regions_ranges, max_task_instrs, base_key, base_delta,
     wire_tasks, tier) = payload
    program = _WORKER_PROGRAMS[digest]
    return _execute_tasks(
        program, _wire_tasks(wire_tasks),
        _ChainMemory(_episode_base(base_key, base_delta, program)),
        max_task_instrs, ProtectedRegions.from_config(regions_ranges), tier,
    )
