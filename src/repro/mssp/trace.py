"""Execution-trace records produced by the MSSP engine.

The functional engine decides *what happens* (which tasks commit, which
squash, how long each is); the timing model replays these records to
decide *how long it takes*.  In-order commit makes the functional outcome
timing-independent, which is what licenses this separation.

Neither records nor counters are kept by the engine directly: the
runtime core announces every fork, dispatch, judgement, failure and
recovery on its event bus (:mod:`repro.mssp.runtime.events`), and
:class:`TraceRecorder` — one subscriber among possibly many — folds
those events into the record stream *and* the run's counters.  Anything
the engine reports is therefore reconstructable outside the engine too,
from a live subscription or an imported trace, which the event-seam
tests pin down byte for byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Union

from repro.mssp.task import SquashReason


@dataclass(slots=True)
class TaskAttemptRecord:
    """One task attempt (committed or squashed).

    The judge builds one per task, positionally, and nothing mutates it
    afterwards; it is not frozen because a frozen dataclass pays an
    ``object.__setattr__`` per field (19 here) on every construction.
    """

    tid: int
    start_pc: int
    end_pc: Optional[int]
    #: Dynamic instructions the slave executed for this attempt.
    n_instrs: int
    #: Distilled instructions the master executed to delimit this task
    #: (between the fork opening it and the event closing it).
    master_instrs: int
    committed: bool
    #: Memory loads among ``n_instrs`` (slave side).
    n_loads: int = 0
    #: Memory loads among ``master_instrs`` (distilled side); value
    #: specialization exists to shrink this number.
    master_loads: int = 0
    squash_reason: str = "none"
    #: Original-program pc a squash is attributed to (the anchor for
    #: live-in/control mismatches, the slave's stopping pc for
    #: fault/overrun/protected); ``None`` for committed tasks.
    origin_pc: Optional[int] = None
    live_ins_checked: int = 0
    live_ins_mismatched: int = 0
    exact: bool = False
    final: bool = False
    #: The slave reached ``halt`` (the machine finishes at this task).
    halted: bool = False
    #: Words in the checkpoint shipped for this task (register file +
    #: master-dirty memory); drives the timing model's bandwidth cost.
    checkpoint_words: int = 0
    #: Register live-in compares the static safety prover covered.
    static_skips: int = 0
    #: Predictor-overridden live-in cells that matched / missed at judge.
    predictor_hits: int = 0
    predictor_misses: int = 0

    @property
    def outcome(self) -> str:
        return "committed" if self.committed else "squashed"


@dataclass(frozen=True, slots=True)
class RecoveryRecord:
    """One non-speculative recovery episode (sequential re-execution)."""

    n_instrs: int
    halted: bool
    resumed_at: Optional[int]
    #: Memory loads among ``n_instrs``.
    n_loads: int = 0
    #: A dual-mode throttle's ``throttle_chunk`` minimum was in force.
    throttled: bool = False
    #: Non-speculative accesses to protected (I/O) regions.
    device_accesses: int = 0


@dataclass(frozen=True, slots=True)
class MasterFailureRecord:
    """The master hit a trap/timeout instead of producing a fork."""

    kind: str
    master_instrs: int
    #: The master failed before the episode's first fork.
    exact: bool = False


TraceRecord = Union[TaskAttemptRecord, RecoveryRecord, MasterFailureRecord]


@dataclass
class DispatchStats:
    """Plumbing statistics of one run's executor backend.

    Attached to :class:`MsspCounters` as ``dispatch`` but excluded from
    its equality: how tasks were *routed* (adopted from a worker, re-
    executed locally, discarded on squash) is backend-dependent by
    design, while everything the counters compare must stay bit-identical
    across backends.  An inline (eager) run leaves every field zero.
    """

    chunks: int = 0
    dispatched: int = 0
    #: Worker results adopted verbatim after the staleness check.
    adopted: int = 0
    #: Worker results discarded because an architected cell they read
    #: changed before their commit point (re-executed locally).
    stale: int = 0
    #: Tasks whose worker result never arrived (early chunk exit, broken
    #: pool, or never dispatched) — re-executed locally.
    missing: int = 0
    reexecuted: int = 0
    #: Tasks announced by ``task_forked`` but never judged: successors an
    #: episode-ending squash, failure or halt threw away.  A TRAP/TIMEOUT
    #: task left behind a squash was never forked, so it is not counted.
    discarded: int = 0

    def summary(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class MsspCounters:
    """Aggregate statistics of one MSSP run."""

    tasks_committed: int = 0
    tasks_squashed: int = 0
    exact_tasks: int = 0
    committed_instrs: int = 0
    squashed_instrs: int = 0
    recovery_instrs: int = 0
    recovery_episodes: int = 0
    master_instrs: int = 0
    master_failures: int = 0
    restarts: int = 0
    #: Non-speculative accesses performed in protected (I/O) regions.
    device_accesses: int = 0
    #: Dual-mode reversions to sequential execution (throttling).
    throttle_episodes: int = 0
    live_ins_checked: int = 0
    live_ins_mismatched: int = 0
    #: Register live-in compares covered by the static safety prover
    #: (:mod:`repro.analysis.specsafe`).  Unlike ``CellVersions.skipped``
    #: this *is* a compared field: the proven set is a pure function of
    #: the task's anchor, so every backend must report the same count.
    static_verify_skips: int = 0
    #: Predictor-overridden live-in cells that matched / missed
    #: architected truth at judge time (:mod:`repro.mssp.predict`).
    #: Compared fields: overrides are decided from an episode-frozen
    #: snapshot trained at the shared judge, so every backend overrides
    #: — and scores — identically.  Zero whenever the miss gate never
    #: opened (in particular, always zero with ``predictors="off"``).
    predictor_hits: int = 0
    predictor_misses: int = 0
    #: Mid-run master hot swaps by the adaptive re-distillation loop
    #: (:mod:`repro.mssp.redistill`); also a compared field.
    redistillations: int = 0
    squash_reasons: Dict[str, int] = field(default_factory=dict)
    #: How the run's tasks were routed through the executor backend.
    #: ``compare=False``: routing is backend-dependent by design, and
    #: counter equality is the cross-backend bit-identity oracle.
    dispatch: DispatchStats = field(
        default_factory=DispatchStats, compare=False, repr=False
    )

    @property
    def total_instrs(self) -> int:
        """Instructions that advanced architected state."""
        return self.committed_instrs + self.recovery_instrs

    @property
    def task_attempts(self) -> int:
        return self.tasks_committed + self.tasks_squashed

    @property
    def squash_rate(self) -> float:
        """Fraction of task attempts that failed verification."""
        attempts = self.task_attempts
        return self.tasks_squashed / attempts if attempts else 0.0

    @property
    def live_in_accuracy(self) -> float:
        """Fraction of live-in values the master predicted correctly."""
        if not self.live_ins_checked:
            return 1.0
        return 1.0 - self.live_ins_mismatched / self.live_ins_checked

    @property
    def speculative_coverage(self) -> float:
        """Fraction of architected progress made by committed tasks."""
        total = self.total_instrs
        return self.committed_instrs / total if total else 0.0

    def summary(self) -> Dict[str, float]:
        """One flat dict: protocol statistics *and* dispatch routing.

        The dispatch keys (``chunks``/``dispatched``/``adopted``/
        ``stale``/``missing``/``reexecuted``/``discarded``) are present
        regardless of backend — all zero for an inline (eager) run.
        """
        out = {
            "tasks_committed": float(self.tasks_committed),
            "tasks_squashed": float(self.tasks_squashed),
            "squash_rate": self.squash_rate,
            "committed_instrs": float(self.committed_instrs),
            "recovery_instrs": float(self.recovery_instrs),
            "master_instrs": float(self.master_instrs),
            "live_in_accuracy": self.live_in_accuracy,
            "speculative_coverage": self.speculative_coverage,
            "restarts": float(self.restarts),
            "static_verify_skips": float(self.static_verify_skips),
            "predictor_hits": float(self.predictor_hits),
            "predictor_misses": float(self.predictor_misses),
            "redistillations": float(self.redistillations),
        }
        for key, value in self.dispatch.summary().items():
            out[key] = float(value)
        return out


class TraceRecorder:
    """The one fold of a run's events into its records and counters.

    The engine subscribes one per run: its ``records`` and ``counters``
    (dispatch included) *are* the :class:`MsspResult`'s, so any other
    recorder, live or fed an imported trace, reconstructs both.
    """

    __slots__ = ("records", "counters")

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self.counters = MsspCounters()

    def __call__(self, event) -> None:
        kind = event.kind
        counters = self.counters
        dispatch = counters.dispatch
        reasons = counters.squash_reasons
        if kind == "task_forked":
            dispatch.discarded += 1  # until judged
        elif kind == "task_committed" or kind == "task_squashed":
            record = event.record
            self.records.append(record)
            dispatch.discarded -= 1
            counters.master_instrs += record.master_instrs
            counters.live_ins_checked += record.live_ins_checked
            counters.live_ins_mismatched += record.live_ins_mismatched
            counters.static_verify_skips += record.static_skips
            counters.predictor_hits += record.predictor_hits
            counters.predictor_misses += record.predictor_misses
            if record.exact:  # each master restart opens one exact task
                counters.exact_tasks += 1
                counters.restarts += 1
            if record.committed:
                counters.tasks_committed += 1
                counters.committed_instrs += record.n_instrs
            else:
                counters.tasks_squashed += 1
                counters.squashed_instrs += record.n_instrs
                reason = record.squash_reason
                reasons[reason] = reasons.get(reason, 0) + 1
        elif kind == "task_executed":
            if event.reexecuted:
                dispatch.reexecuted += 1
                if event.reexecuted == "stale":
                    dispatch.stale += 1
                else:
                    dispatch.missing += 1
        elif kind == "chunk_dispatched":
            dispatch.chunks += 1
            dispatch.dispatched += event.n_tasks
        elif kind == "result_adopted":
            dispatch.adopted += 1
        elif kind == "recovery":
            record = event.record
            self.records.append(record)
            counters.recovery_instrs += record.n_instrs
            counters.recovery_episodes += 1
            counters.device_accesses += record.device_accesses
            if record.throttled:
                counters.throttle_episodes += 1
        elif kind == "master_failure":
            record = event.record
            self.records.append(record)
            counters.master_instrs += record.master_instrs
            counters.master_failures += 1
            counters.tasks_squashed += 1
            reason = SquashReason.MASTER_TIMEOUT.value
            reasons[reason] = reasons.get(reason, 0) + 1
            if record.exact:
                counters.restarts += 1
        elif kind == "redistilled":
            counters.redistillations += 1
