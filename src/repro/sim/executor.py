"""The ``sim`` runtime backend: simulated slaves on a virtual clock.

:class:`SimExecutor` plugs into the *identical*
:class:`~repro.mssp.runtime.pipeline.TaskPipeline` state machine the
real backends use.  Functionally it mirrors :class:`ThreadExecutor`
chunk-for-chunk — episode-start memory snapshot, chunk-local chained
overlay, shadow tasks, the same :func:`~repro.mssp.task.wire_result`
wire — executed synchronously at submit, which is what makes a ``sim``
run's :class:`~repro.mssp.engine.MsspResult` bit-identical to the eager
engine's (an acceptance test).

Time is where it differs: instead of measuring wall seconds, it *prices*
each chunk with the default :class:`~repro.config.TimingConfig`
(checkpoint transfer, then per-task execution) onto per-slot virtual
free times, and advances the engine's
:class:`~repro.timing.clock.VirtualClock` to each chunk's completion
when the pipeline consumes its handle.  Every event the engine emits is
therefore stamped with simulated time — the stream the SIM001 lint
check audits.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import TimingConfig
from repro.machine.state import ArchState
from repro.mssp.runtime.events import EventBus
from repro.mssp.runtime.executors import ChunkHandle, SlaveExecutor
from repro.mssp.runtime.procpool import _ChainMemory
from repro.mssp.slave import execute_task
from repro.mssp.task import Task, wire_result

__all__ = ["SimExecutor"]


class SimExecutor(SlaveExecutor):
    """Simulated slaves: real execution, virtual time."""

    name = "sim"
    pipelined = True

    def __init__(self, core, events: EventBus):
        super().__init__(core, events)
        # The engine's clock travels on the bus; a VirtualClock when the
        # engine was built for the sim runtime.
        self.clock = events.clock
        self.timing = TimingConfig()
        self._base: Dict[int, int] = {}
        #: Virtual time at which each simulated slave frees up.
        self._free: List[float] = [0.0] * self.workers

    @property
    def workers(self) -> int:
        return self.core.config.num_slaves

    def begin_episode(self, arch: ArchState) -> None:
        self._base = dict(arch.mem)
        if len(self._free) != self.workers:
            self._free = [0.0] * self.workers

    def submit_chunk(self, batch) -> Optional[ChunkHandle]:
        core = self.core
        timing = self.timing
        clock = self.clock
        chain = _ChainMemory(self._base)
        # Dispatch to the earliest-free simulated slave.
        slot = min(range(len(self._free)), key=self._free.__getitem__)
        t = max(clock.now(), self._free[slot])
        results: List[tuple] = []
        for entry in batch:
            task = entry.task
            shadow = Task(
                tid=task.tid, start_pc=task.start_pc,
                checkpoint=task.checkpoint, end_pc=task.end_pc,
                end_arrivals=task.end_arrivals,
            )
            t += timing.transfer_time(len(task.checkpoint))
            execute_task(
                core.original, shadow, chain,
                core.config.max_task_instrs,
                regions=core.regions, tier=core.exec_tier,
            )
            priced = timing.slave_time(shadow.n_instrs, shadow.n_loads)
            shadow.exec_seconds = priced
            t += priced
            results.append(wire_result(shadow))
            if shadow.faulted or shadow.overrun or shadow.protected_access:
                break
            chain.apply(shadow.live_out_mem)
        completion = t
        self._free[slot] = completion

        def consume() -> List[tuple]:
            # The pipeline blocks on the chunk: virtual time advances to
            # its completion (never backwards — later chunks on other
            # slots may already have pushed the clock past it).
            advance_to = getattr(clock, "advance_to", None)
            if advance_to is not None:
                advance_to(completion)
            return results

        return ChunkHandle(consume)
