"""Task-level timing model of the MSSP chip multiprocessor.

Replays the functional engine's trace — an :class:`MsspResult`, or a
captured event stream reduced by :func:`records_from_events` — onto a
resource model (which decides *how long it took*).  It is the one
timing model: every price comes from the :class:`TimingConfig` that
configures it.

The resource model:

* the **master** retires distilled instructions at ``master_cpi`` and
  stalls when no slave is free to receive the next checkpoint;
* each **slave** receives a checkpoint ``transfer_time`` after its fork
  — queued in fork order when ``link_channels`` bounds the link —
  retires original instructions at ``slave_cpi`` divided by its slot's
  speed, pauses across any outage on its slot, and cannot complete
  before its closing fork (its end pc is defined by the next fork);
* the **verify/commit unit** processes completed tasks in order, one per
  ``commit_latency``;
* a **squash** costs ``squash_penalty`` after the failing verify, then a
  recovery episode runs serially on one slave (``restart_latency`` to
  seed it plus its instructions), and the next speculative episode's
  master resumes when recovery completes.

Every queue is FIFO and every arrival comes in trace order, so one
pass over the records is the whole simulation.  A task goes to the
earliest-free slave, the lowest slot index on a tie.

Fidelity note (repro band 2/5): this is deliberately a latency/through-
put model, not a pipeline simulator.  It preserves the quantities the
evaluation reports — who is the bottleneck, how speedup scales with
slave count, task size and interconnect latency — and its invariants
(monotonicity in resources and latencies) are property-tested.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.config import BaselineConfig, SlaveFailure, TimingConfig
from repro.errors import TimingError
from repro.mssp.engine import MsspResult
from repro.mssp.trace import (
    MasterFailureRecord,
    RecoveryRecord,
    TaskAttemptRecord,
    TraceRecord,
    TraceRecorder,
)


def records_from_events(events: Iterable) -> List[TraceRecord]:
    """Rebuild the trace-record stream from a captured event stream.

    Feeds the events through a :class:`~repro.mssp.trace.TraceRecorder`
    — the exact subscriber the engine uses — so a stamped ``EventLog``
    (live or imported from JSONL) replays into the same records an
    :class:`MsspResult` would carry.
    """
    recorder = TraceRecorder()
    for event in events:
        recorder(event)
    return recorder.records


@dataclass(frozen=True)
class ScheduleEntry:
    """When one trace record occupied the machine's resources.

    ``kind`` is ``"task"``, ``"recovery"`` or ``"master-failure"``.
    For tasks: ``spawn`` is when the checkpoint left the master,
    ``close`` when the master's delimiting fork retired, ``start``/
    ``done`` the slave's execution window on slave ``slot``, and
    ``commit`` when the verify/commit unit finished with it.
    """

    kind: str
    tid: int
    slot: int
    spawn: float
    close: float
    start: float
    done: float
    commit: float
    committed: bool


@dataclass
class TimingBreakdown:
    """Cycle accounting of one simulated MSSP run."""

    total_cycles: float = 0.0
    #: Tasks whose completion was limited by the master's closing fork.
    master_bound_tasks: int = 0
    #: Tasks whose completion was limited by slave execution.
    slave_bound_tasks: int = 0
    #: Tasks that waited on commit serialization.
    commit_bound_tasks: int = 0
    #: Cycles spent in squash penalties + recovery reseeding.
    squash_overhead_cycles: float = 0.0
    #: Cycles of serial non-speculative recovery execution.
    recovery_cycles: float = 0.0
    #: Cycles the master spent stalled waiting for a free slave.
    master_stall_cycles: float = 0.0
    #: Slave cycles burnt on tasks that were later squashed.
    wasted_slave_cycles: float = 0.0
    committed_tasks: int = 0
    squashed_tasks: int = 0
    #: Per-record schedule (populated when simulate(..., schedule=True)).
    schedule: List[ScheduleEntry] = field(default_factory=list)

    def summary(self) -> Dict[str, float]:
        return {
            "total_cycles": self.total_cycles,
            "master_bound_tasks": float(self.master_bound_tasks),
            "slave_bound_tasks": float(self.slave_bound_tasks),
            "commit_bound_tasks": float(self.commit_bound_tasks),
            "squash_overhead_cycles": self.squash_overhead_cycles,
            "recovery_cycles": self.recovery_cycles,
            "master_stall_cycles": self.master_stall_cycles,
            "wasted_slave_cycles": self.wasted_slave_cycles,
        }


class MsspTimingSimulator:
    """One-pass replay of an MSSP trace onto the machine resources."""

    def __init__(self, config: Optional[TimingConfig] = None):
        self.config = config or TimingConfig()
        #: Each failed slot's outages, in start order.
        self._outages: Dict[int, List[SlaveFailure]] = {}
        for failure in sorted(self.config.failures, key=lambda f: f.at):
            self._outages.setdefault(failure.slot, []).append(failure)

    def simulate(
        self, result: MsspResult, schedule: bool = False
    ) -> TimingBreakdown:
        """Return the cycle accounting of ``result``'s trace.

        With ``schedule=True`` the breakdown also carries a per-record
        :class:`ScheduleEntry` list (for timeline rendering/debugging).
        """
        return self.simulate_records(result.records, schedule=schedule)

    def simulate_records(
        self, records: Sequence[TraceRecord], schedule: bool = False
    ) -> TimingBreakdown:
        cfg = self.config
        breakdown = TimingBreakdown()
        slaves: List[float] = [0.0] * cfg.n_slaves
        speeds = cfg.slave_speeds
        outages = self._outages
        # Free times of the link's channels, as a min-heap (FIFO
        # k-server); None when the link is unlimited.
        links: Optional[List[float]] = (
            [0.0] * cfg.link_channels if cfg.link_channels else None
        )
        master_clock = 0.0
        last_commit = 0.0
        finish = 0.0
        # Commit times of recent tasks, for checkpoint-buffer backpressure.
        commit_history: List[float] = []

        for record in records:
            if isinstance(record, TaskAttemptRecord):
                slot = min(range(len(slaves)), key=slaves.__getitem__)
                spawn_ready = max(master_clock, slaves[slot])
                if (
                    cfg.max_inflight is not None
                    and len(commit_history) >= cfg.max_inflight
                ):
                    # The master cannot open a new task until the task
                    # max_inflight positions back has left the buffer.
                    spawn_ready = max(
                        spawn_ready, commit_history[-cfg.max_inflight]
                    )
                breakdown.master_stall_cycles += spawn_ready - master_clock
                close = spawn_ready + cfg.master_time(
                    record.master_instrs, record.master_loads
                )
                transfer = cfg.transfer_time(record.checkpoint_words)
                if links is None:
                    slave_start = spawn_ready + transfer
                else:
                    slave_start = max(spawn_ready, links[0]) + transfer
                    heapq.heapreplace(links, slave_start)
                work = cfg.slave_time(record.n_instrs, record.n_loads)
                if slot < len(speeds):
                    work /= speeds[slot]
                if slot in outages:
                    slave_done = self._outage_done(slot, slave_start, work)
                else:
                    slave_done = slave_start + work
                completion = max(slave_done, close)
                slaves[slot] = completion
                master_clock = close
                verify_start = max(completion, last_commit)
                commit_done = verify_start + cfg.commit_latency
                last_commit = commit_done
                if cfg.max_inflight is not None:
                    commit_history.append(commit_done)
                    del commit_history[: -cfg.max_inflight]
                finish = max(finish, commit_done)
                self._classify(
                    breakdown, close, slave_done, verify_start, completion
                )
                if schedule:
                    breakdown.schedule.append(
                        ScheduleEntry(
                            kind="task", tid=record.tid, slot=slot,
                            spawn=spawn_ready, close=close,
                            start=slave_start, done=slave_done,
                            commit=commit_done, committed=record.committed,
                        )
                    )
                if record.committed:
                    breakdown.committed_tasks += 1
                else:
                    breakdown.squashed_tasks += 1
                    breakdown.wasted_slave_cycles += slave_done - slave_start
                    squash_done = commit_done + cfg.squash_penalty
                    breakdown.squash_overhead_cycles += cfg.squash_penalty
                    master_clock = squash_done
                    last_commit = squash_done
                    slaves = [min(s, squash_done) for s in slaves]
                    commit_history.clear()  # squash drains the buffer
                    finish = max(finish, squash_done)
            elif isinstance(record, MasterFailureRecord):
                wasted = cfg.master_time(record.master_instrs)
                fail_time = master_clock + wasted + cfg.squash_penalty
                breakdown.squash_overhead_cycles += cfg.squash_penalty
                master_clock = fail_time
                last_commit = max(last_commit, fail_time)
                slaves = [min(s, fail_time) for s in slaves]
                commit_history.clear()
                finish = max(finish, fail_time)
            elif isinstance(record, RecoveryRecord):
                start = max(master_clock, last_commit) + cfg.restart_latency
                breakdown.squash_overhead_cycles += cfg.restart_latency
                work = cfg.slave_time(record.n_instrs, record.n_loads)
                done = start + work
                breakdown.recovery_cycles += work
                if schedule:
                    breakdown.schedule.append(
                        ScheduleEntry(
                            kind="recovery", tid=-1, slot=0,
                            spawn=start, close=start, start=start,
                            done=done, commit=done, committed=True,
                        )
                    )
                master_clock = done
                last_commit = done
                slaves = [min(s, done) for s in slaves]
                commit_history.clear()
                finish = max(finish, done)
            else:  # pragma: no cover - future record kinds
                raise TimingError(f"unknown trace record {record!r}")

        breakdown.total_cycles = finish
        return breakdown

    def _outage_done(self, slot: int, start: float, work: float) -> float:
        """Completion time of ``work`` starting at ``start`` on ``slot``,
        paused across every configured outage window on that slot."""
        t = start
        remaining = work
        for failure in self._outages.get(slot, ()):
            if failure.end <= t:
                continue
            if failure.at <= t:
                t = failure.end
            elif failure.at < t + remaining:
                remaining -= failure.at - t
                t = failure.end
            else:
                break
        return t + remaining

    @staticmethod
    def _classify(
        breakdown: TimingBreakdown,
        close: float,
        slave_done: float,
        verify_start: float,
        completion: float,
    ) -> None:
        if verify_start > completion:
            breakdown.commit_bound_tasks += 1
        elif close >= slave_done:
            breakdown.master_bound_tasks += 1
        else:
            breakdown.slave_bound_tasks += 1


def baseline_cycles(
    total_instrs: int, baseline: BaselineConfig, total_loads: int = 0
) -> float:
    """Cycles a non-MSSP reference core needs for the same work."""
    return total_instrs * baseline.cpi + total_loads * baseline.load_penalty


def simulate_mssp(
    result: MsspResult,
    config: Optional[TimingConfig] = None,
    schedule: bool = False,
) -> TimingBreakdown:
    """Convenience wrapper around :class:`MsspTimingSimulator`."""
    return MsspTimingSimulator(config).simulate(result, schedule=schedule)


def speedup(
    result: MsspResult,
    config: Optional[TimingConfig] = None,
    baseline: Optional[BaselineConfig] = None,
) -> float:
    """MSSP speedup over a baseline core on the same program.

    The baseline runs the instructions and loads that advanced
    architected state in this run, so a ``load_penalty`` is charged on
    both sides.
    """
    from repro.config import SEQUENTIAL_BASELINE

    baseline = baseline or SEQUENTIAL_BASELINE
    breakdown = simulate_mssp(result, config)
    if breakdown.total_cycles <= 0:
        raise TimingError("timing produced non-positive cycle count")
    return baseline_cycles(
        result.counters.total_instrs, baseline, result.total_loads
    ) / breakdown.total_cycles
