"""The structured runtime-event seam.

Every observable step of the task pipeline — forks, dispatches,
adoptions, judgements, recoveries, degradations — is announced as one
frozen :class:`RuntimeEvent` on the engine's :class:`EventBus`.  The
one fold of a run's records and counters
(:class:`repro.mssp.trace.TraceRecorder`), fault injection
(:func:`repro.mssp.faults.corrupt_live_in`), the runtime lint checks
(``RT001``/``RT002`` in :mod:`repro.analysis.checker`), and tests all
consume this one surface by subscription instead of each growing its
own hook into the engine.

Events carry *references* (records, tasks), not copies: a
``task_executed`` subscriber that mutates ``event.task`` changes what
the verify unit judges — that is the sanctioned fault-injection point,
deliberately placed after execution/adoption and before judgement so an
injection lands identically under every executor backend.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, ClassVar, List, Optional

__all__ = [
    "RuntimeEvent",
    "TaskForked",
    "ChunkDispatched",
    "TaskExecuted",
    "ResultAdopted",
    "TaskCommitted",
    "TaskSquashed",
    "LiveInPredicted",
    "Redistilled",
    "MasterFailed",
    "RecoveryRun",
    "PoolDegraded",
    "EpisodeAccepted",
    "EpisodeDispatched",
    "EpisodeCompleted",
    "EpisodeShed",
    "EventBus",
    "EventLog",
]


@dataclass(frozen=True)
class RuntimeEvent:
    """Base class; ``kind`` is the stable, documented discriminator.

    ``at`` and ``actor`` are *stamps*, not constructor fields: the
    emitting :class:`EventBus` writes them per instance (via
    ``object.__setattr__``, which frozen dataclasses without
    ``__slots__`` permit) the moment the event is published.  Keeping
    them out of the dataclass fields leaves every subclass constructor,
    equality, and repr unchanged while still guaranteeing that every
    emitted event carries a clock timestamp — the invariant the SIM001
    lint check audits.
    """

    kind: ClassVar[str] = "runtime-event"
    # Stamped by EventBus.emit; class-level defaults mean un-emitted
    # events read as t=0 from an anonymous actor.
    at = 0.0
    actor = ""


@dataclass(frozen=True)
class TaskForked(RuntimeEvent):
    """The master delimited a task (its end pc is now fixed)."""

    kind: ClassVar[str] = "task_forked"
    tid: int
    start_pc: int
    end_pc: Optional[int]
    exact: bool = False
    final: bool = False


@dataclass(frozen=True)
class ChunkDispatched(RuntimeEvent):
    """A batch of closed tasks was shipped to a pipelined executor."""

    kind: ClassVar[str] = "chunk_dispatched"
    executor: str
    first_tid: int
    last_tid: int
    n_tasks: int


@dataclass(frozen=True)
class TaskExecuted(RuntimeEvent):
    """A task holds its execution outcome and is about to be judged.

    Emitted for every judged task regardless of backend (adopted worker
    result or local execution).  ``task`` is the live, authoritative
    object — mutating it here alters what verification sees, which is
    the event seam's sanctioned fault-injection point.
    """

    kind: ClassVar[str] = "task_executed"
    task: object
    adopted: bool = False
    cost: float = 0.0  # measured wall-seconds spent executing the task
    #: Why a pipelined task ran locally: ``"stale"`` (its worker result
    #: read a changed cell) or ``"missing"``; empty otherwise.
    reexecuted: str = ""


@dataclass(frozen=True)
class ResultAdopted(RuntimeEvent):
    """A worker result survived the staleness check verbatim."""

    kind: ClassVar[str] = "result_adopted"
    tid: int
    cost: float = 0.0  # measured wall-seconds the worker spent on it


@dataclass(frozen=True)
class TaskCommitted(RuntimeEvent):
    """Verification passed; live-outs were applied to architected state."""

    kind: ClassVar[str] = "task_committed"
    tid: int
    record: object  # TaskAttemptRecord


@dataclass(frozen=True)
class TaskSquashed(RuntimeEvent):
    """Verification failed; the episode's in-flight successors die.

    ``mismatched_regs`` names the register live-ins whose architected
    values disagreed with the checkpoint (empty for non-live-in squash
    reasons) — the evidence stream the
    :class:`~repro.mssp.redistill.Redistiller` maps back onto asserted
    branches whose suppressed paths write those registers.
    """

    kind: ClassVar[str] = "task_squashed"
    tid: int
    reason: str
    record: object  # TaskAttemptRecord
    mismatched_regs: tuple = ()


@dataclass(frozen=True)
class LiveInPredicted(RuntimeEvent):
    """The predictor bank patched a fork checkpoint's start image."""

    kind: ClassVar[str] = "live_in_predicted"
    tid: int
    anchor: int
    cells: tuple  # sorted register indices overridden


@dataclass(frozen=True)
class Redistilled(RuntimeEvent):
    """The engine hot-swapped a freshly re-distilled master.

    ``threshold`` is embedded so the RT003 lint check (every
    ``redistilled`` event preceded by ≥ threshold live-in squashes for
    ``region``) is self-contained on the event stream.
    """

    kind: ClassVar[str] = "redistilled"
    region: int          # hot fork anchor (original-program pc)
    misses: int          # live-in squashes accumulated for that region
    threshold: int       # configured redistill_threshold
    despecialized: int   # value_spec sites de-specialized this round
    deasserted: int      # asserted branches de-asserted this round
    generation: int      # 1-based count of swaps this run


@dataclass(frozen=True)
class MasterFailed(RuntimeEvent):
    """The master trapped/timed out; the open task was undelimited."""

    kind: ClassVar[str] = "master_failure"
    tid: int
    record: object  # MasterFailureRecord


@dataclass(frozen=True)
class RecoveryRun(RuntimeEvent):
    """One non-speculative recovery episode completed."""

    kind: ClassVar[str] = "recovery"
    record: object  # RecoveryRecord


@dataclass(frozen=True)
class PoolDegraded(RuntimeEvent):
    """A pipelined executor broke (or never started); inline fallback."""

    kind: ClassVar[str] = "pool_degraded"
    executor: str
    why: str


@dataclass(frozen=True)
class EpisodeAccepted(RuntimeEvent):
    """The episode server admitted a tenant request (queued or direct).

    Every accepted request terminates in exactly one
    ``episode_completed`` or ``episode_shed`` — the pairing RT004
    audits.  ``digest`` is the request's program content digest, the
    key the cross-tenant warm caches share state under.
    """

    kind: ClassVar[str] = "episode_accepted"
    request_id: int
    digest: str
    tenant: str = "default"


@dataclass(frozen=True)
class EpisodeDispatched(RuntimeEvent):
    """The scheduler assigned an accepted request to a server worker.

    ``capacity`` is the worker's declared episode capacity, embedded so
    the RT004 lint check (no worker ever holds more dispatched-but-
    uncompleted episodes than its capacity) is self-contained on the
    event stream.  ``batched`` marks requests folded into a compatible
    in-service batch rather than routed by least-loaded dispatch.
    """

    kind: ClassVar[str] = "episode_dispatched"
    request_id: int
    worker: int
    capacity: int
    batched: bool = False


@dataclass(frozen=True)
class EpisodeCompleted(RuntimeEvent):
    """A dispatched episode finished (result or error) on ``worker``."""

    kind: ClassVar[str] = "episode_completed"
    request_id: int
    worker: int
    ok: bool = True
    #: The response says the episode ran folded into a service batch.
    batched: bool = False


@dataclass(frozen=True)
class EpisodeShed(RuntimeEvent):
    """Admission control rejected an accepted request (ServerBusy)."""

    kind: ClassVar[str] = "episode_shed"
    request_id: int
    why: str = "queue-full"


class EventBus:
    """A minimal synchronous pub/sub fanout for runtime events.

    Subscribers are plain callables invoked in subscription order on the
    emitting thread; :meth:`subscribe` returns the matching unsubscribe
    callable.

    The bus is also the single place events acquire *time*: every
    emitted event is stamped with ``clock.now()`` (``at``) and, when the
    event doesn't already carry one, the bus's ``actor`` label.  The
    clock defaults to a :class:`~repro.timing.clock.WallClock`; tests
    inject a ``VirtualClock`` to drive time by hand.
    """

    __slots__ = ("_subscribers", "clock", "actor", "_lock")

    def __init__(self, clock=None, actor: str = "runtime") -> None:
        if clock is None:
            # Deferred import: repro.timing imports the simulator, which
            # imports the engine, which imports this module.
            from repro.timing.clock import WallClock

            clock = WallClock()
        self.clock = clock
        self.actor = actor
        self._subscribers: List[Callable[[RuntimeEvent], None]] = []
        # Stamp-and-publish is atomic so a multi-threaded producer (the
        # episode server) cannot interleave a later stamp before an
        # earlier one in subscriber order — the per-actor monotonicity
        # SIM001 lints.  Re-entrant: a subscriber may emit.
        self._lock = threading.RLock()

    def subscribe(
        self, subscriber: Callable[[RuntimeEvent], None]
    ) -> Callable[[], None]:
        self._subscribers.append(subscriber)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

        return unsubscribe

    def emit(self, event: RuntimeEvent) -> None:
        # Stamp time (always) and actor (unless the producer set one).
        # Frozen dataclasses without __slots__ still honour
        # object.__setattr__, and the stamps are class-attribute
        # shadows, so equality and repr are untouched.
        with self._lock:
            object.__setattr__(event, "at", self.clock.now())
            if not event.actor:
                object.__setattr__(event, "actor", self.actor)
            for subscriber in self._subscribers:
                subscriber(event)


@dataclass
class EventLog:
    """A subscriber that simply collects every event, in order.

    The input shape ``repro lint``'s runtime checks
    (:func:`repro.analysis.checker.check_runtime_events`) consume.
    """

    events: List[RuntimeEvent] = field(default_factory=list)

    def __call__(self, event: RuntimeEvent) -> None:
        self.events.append(event)
