"""MSSP-as-a-service: the persistent multi-tenant episode server.

Every pre-server entry point pays the full pipeline cost — decode,
distillation, chain compilation, worker-pool spinup — for a *single*
episode and then throws the warm state away, the opposite of the
paper's premise that the distilled master amortizes work across
long-running execution.  :class:`EpisodeServer` is the serving stack
that keeps it: a long-lived, in-process server accepting a stream of
:class:`EpisodeRequest`\\ s from many concurrent tenants and
multiplexing them onto one shared warm worker fleet.

Structure (the master-dispatches-to-loaded-nodes idiom):

* **Admission + dispatch** — an arriving request is routed to the
  least-loaded worker with free capacity (per-worker load sets, the
  ``snodeLoads`` bookkeeping).  With every worker saturated it queues —
  ``admission="wait"``, bounded by ``max_queue_depth`` — or is rejected
  with a typed :class:`ServerBusy` shed response (``onTxnLoss``).
* **Warm sharing** — programs, distillations, decoded chains and
  whole engines are cached content-addressed across tenants
  (:mod:`repro.serve.cache`): tenant N's compile warms tenant N+1, with
  per-request hit/miss flags on every response.
* **Batching** — a worker that acquired a warm engine folds compatible
  queued requests (same program + engine configuration) into the same
  service turn, running them back-to-back through the engine's
  chunk-dispatch path instead of round-tripping the scheduler and the
  engine pool per episode.

Correctness is non-negotiable: every served result is bit-identical to
a fresh :func:`repro.mssp.engine.run_mssp` of the same request, because
a pooled engine's :meth:`~repro.mssp.engine.MsspEngine.run` rebuilds all
per-run state and the server never runs one engine from two workers at
once.  The differential tests enforce this across the eager and process
backends.

Everything observable is announced on the server's
:class:`~repro.mssp.runtime.events.EventBus` (``episode_accepted`` /
``episode_dispatched`` / ``episode_completed`` / ``episode_shed``), the
stream the RT004 lint check audits and :class:`ServerStats` folds.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.config import DistillConfig, MsspConfig, ServeConfig
from repro.errors import MsspError
from repro.experiments import cache as artifact_cache
from repro.mssp.runtime.events import (
    EpisodeAccepted,
    EpisodeCompleted,
    EpisodeDispatched,
    EpisodeShed,
    EventBus,
)
from repro.serve.cache import EnginePool, ServedProgram, WarmCache

__all__ = [
    "EpisodeRequest",
    "EpisodeResponse",
    "EpisodeHandle",
    "ServerBusy",
    "ServerStats",
    "EpisodeServer",
    "state_digest",
]


def state_digest(state) -> str:
    """Content digest of an architected state (identity over the wire).

    Canonical over pc, registers, and the sparse view of memory — the
    cheap way for an external client to check two served results are
    bit-identical.
    """
    hasher = hashlib.sha256()
    hasher.update(f"pc:{state.pc};".encode())
    hasher.update(("regs:" + ",".join(map(str, state.regs)) + ";").encode())
    memory = state.mem
    for address in sorted(memory):
        value = memory[address]
        if value:
            hasher.update(f"{address}:{value};".encode())
    return hasher.hexdigest()[:20]


@dataclass(frozen=True)
class EpisodeRequest:
    """One tenant's episode: which program, which machine configuration.

    A request names its program either by ``workload`` (source: the
    server profiles + distills it, through the shared warm caches) or by
    bare content ``digest`` — addressing a program some earlier request
    or warmup already loaded; an unknown digest is an error response,
    never a recompile.
    """

    workload: Optional[str] = None
    digest: Optional[str] = None
    size: Optional[int] = None
    config: MsspConfig = MsspConfig()
    distill_config: Optional[DistillConfig] = None
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.workload is None and self.digest is None:
            raise MsspError(
                "an episode request needs a workload name or a program "
                "digest"
            )

    def compat_key(self) -> tuple:
        """Requests with equal keys may fold into one service batch."""
        return (
            self.workload, self.digest, self.size, self.distill_config,
            self.config,
        )


@dataclass
class EpisodeResponse:
    """What one request produced: a result, a typed shed, or an error."""

    request_id: int
    status: str                     # "ok" | "shed" | "error"
    workload: Optional[str] = None
    digest: Optional[str] = None
    tenant: str = "default"
    result: object = None           # MsspResult when status == "ok"
    error: Optional[str] = None
    worker: Optional[int] = None
    batched: bool = False
    #: Per-request warm-cache outcome: ``prepared`` (profile/distill
    #: artifact) and ``engine`` (pooled warm engine).
    cache: Dict[str, bool] = field(default_factory=dict)
    submitted_at: float = 0.0
    started_at: float = 0.0
    completed_at: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_seconds(self) -> float:
        return max(0.0, self.completed_at - self.submitted_at)

    @property
    def queue_seconds(self) -> float:
        return max(0.0, self.started_at - self.submitted_at)


class ServerBusy(MsspError):
    """Typed shed-load rejection: admission control refused the episode."""

    def __init__(self, response: EpisodeResponse):
        super().__init__(
            f"request {response.request_id} shed: {response.error}"
        )
        self.response = response


class EpisodeHandle:
    """One in-flight request: block on :meth:`result` for its response."""

    __slots__ = ("request_id", "request", "_done", "_response")

    def __init__(self, request_id: int, request: EpisodeRequest):
        self.request_id = request_id
        self.request = request
        self._done = threading.Event()
        self._response: Optional[EpisodeResponse] = None

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> EpisodeResponse:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} still in flight after "
                f"{timeout}s"
            )
        return self._response

    def _resolve(self, response: EpisodeResponse) -> None:
        self._response = response
        self._done.set()


@dataclass
class ServerStats:
    """Cumulative serving statistics, folded from the server's bus.

    ``batched`` counts completed requests whose response says so.
    ``warmup_episodes`` (warmups emit no episode events) and the queue
    gauges are set directly.
    """

    accepted: int = 0
    completed: int = 0
    errors: int = 0
    shed: int = 0
    batched: int = 0
    warmup_episodes: int = 0
    queue_depth: int = 0
    max_queue_depth: int = 0

    def __call__(self, event) -> None:
        kind = event.kind
        if kind == "episode_accepted":
            self.accepted += 1
        elif kind == "episode_completed":
            if event.ok:
                self.completed += 1
            else:
                self.errors += 1
            if event.batched:
                self.batched += 1
        elif kind == "episode_shed":
            self.shed += 1

    def summary(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class _Pending:
    """One admitted request traversing the scheduler."""

    handle: EpisodeHandle
    submitted_at: float
    batched: bool = False


class EpisodeServer:
    """A persistent multi-tenant episode server over one warm fleet.

    In-process by design: tests, benches and embedding applications
    drive it through :meth:`submit` / :meth:`serve` without sockets;
    ``repro serve`` wraps it in a line-oriented front-end.  Start it
    with :meth:`start` (or lazily via the first submit, or as a context
    manager), and :meth:`close` to release the fleet.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        mssp_config: Optional[MsspConfig] = None,
        clock=None,
    ):
        self.config = config or ServeConfig()
        #: Engine configuration used for warmup episodes and by
        #: front-ends that accept requests without an explicit config.
        self.default_config = mssp_config or MsspConfig()
        #: One time source for admission stamps, queue-wait accounting
        #: and every event the server emits; injectable so a simulated
        #: front-end can drive the server on virtual time.
        if clock is None:
            from repro.timing.clock import WallClock

            clock = WallClock()
        self.clock = clock
        self.events = EventBus(clock=self.clock, actor="server")
        self.warm = WarmCache()
        self.engines = EnginePool()
        self.stats = ServerStats()
        self.events.subscribe(self.stats)
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._rid = itertools.count()
        self._loads: Dict[int, Set[int]] = {
            w: set() for w in range(self.config.workers)
        }
        #: Dispatched-but-unstarted episodes per worker, scannable so a
        #: serving worker can fold compatible neighbours into its turn.
        self._assigned: Dict[int, Deque[_Pending]] = {
            w: deque() for w in range(self.config.workers)
        }
        self._backlog: Deque[_Pending] = deque()
        self._threads: List[threading.Thread] = []
        self._started = False
        self._closed = False
        self._draining = False

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "EpisodeServer":
        """Spin up the worker fleet and run the configured warmup."""
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise MsspError("episode server already closed")
            self._started = True
            for w in range(self.config.workers):
                thread = threading.Thread(
                    target=self._worker_loop, args=(w,),
                    name=f"mssp-serve-{w}", daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        for name in self.config.warmup:
            self.warm_workload(name)
        return self

    def close(self) -> None:
        """Drain assigned work, shed the backlog, release the fleet."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            backlog, self._backlog = list(self._backlog), deque()
            self.stats.queue_depth = 0
            started = self._started
        for entry in backlog:
            self._shed(entry, why="server-closed")
        if started:
            with self._work:
                self._draining = True
                self._work.notify_all()
            for thread in self._threads:
                thread.join(timeout=60.0)
        self.engines.close()

    def __enter__(self) -> "EpisodeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API ---------------------------------------------------------------

    def submit(self, request: EpisodeRequest) -> EpisodeHandle:
        """Admit one request; returns immediately with its handle.

        Admission control runs here, synchronously: the request is
        dispatched to the least-loaded worker with free capacity,
        queued when all are busy (``admission="wait"``, bounded), or
        shed — in which case the handle is already resolved with a
        ``status="shed"`` response.
        """
        if not self._started:
            self.start()
        handle = EpisodeHandle(next(self._rid), request)
        entry = _Pending(handle=handle, submitted_at=self.clock.now())
        with self._lock:
            if self._closed:
                raise MsspError("episode server already closed")
            self.events.emit(EpisodeAccepted(
                request_id=handle.request_id,
                digest=request.digest or f"workload:{request.workload}",
                tenant=request.tenant,
            ))
            worker = self._pick_worker()
            if worker is not None:
                self._assign(entry, worker)
            elif (
                self.config.admission == "wait"
                and len(self._backlog) < self.config.max_queue_depth
            ):
                self._backlog.append(entry)
                self.stats.queue_depth = len(self._backlog)
                self.stats.max_queue_depth = max(
                    self.stats.max_queue_depth, self.stats.queue_depth
                )
            else:
                worker = None
                self._shed_locked(entry, why=(
                    "queue-full" if self.config.admission == "wait"
                    else "all-workers-busy"
                ))
        return handle

    def serve(
        self, request: EpisodeRequest, timeout: Optional[float] = None
    ) -> EpisodeResponse:
        """Blocking convenience: submit and wait; raises on a shed."""
        response = self.submit(request).result(timeout)
        if response.status == "shed":
            raise ServerBusy(response)
        return response

    def warm_workload(
        self,
        name: str,
        size: Optional[int] = None,
        config: Optional[MsspConfig] = None,
    ) -> ServedProgram:
        """Pre-distill and pre-run one workload (the ``--warmup`` path).

        Runs one throwaway episode inline on the caller thread through
        the shared caches: profiles + distills the program, compiles
        the chains it runs under the warmed configuration, and leaves a
        warm engine in the pool — so the first tenant request finds
        every layer hot instead of being a cold-compile outlier.
        Warmup episodes never touch the scheduler and emit no episode
        events (RT004 audits tenant traffic only).
        """
        config = config if config is not None else self.default_config
        served, _ = self.warm.resolve(name, size=size)
        key = self._engine_key(served, config, None)
        engine, _ = self.engines.acquire(
            key, lambda: self._build_engine(served, config, None)
        )
        try:
            engine.run()
            self.stats.warmup_episodes += 1
        finally:
            self.engines.release(key, engine)
        return served

    def preload(self, entry: ServedProgram) -> None:
        """Seed the warm cache with an externally prepared artifact."""
        self.warm.preload(entry)

    def reset_queue_high_water(self) -> int:
        """Restart the ``max_queue_depth`` high-water mark; returns the
        previous value (benchmark stages report per-stage peaks)."""
        with self._lock:
            previous = self.stats.max_queue_depth
            self.stats.max_queue_depth = self.stats.queue_depth
            return previous

    def cache_summary(self) -> Dict[str, int]:
        """Merged shared-cache counters across all warm layers."""
        merged = dict(self.warm.counters.summary())
        for key, value in self.engines.counters.summary().items():
            if value:
                merged[key] = merged.get(key, 0) + value
        return merged

    # -- scheduler (the snodeLoads idiom) -----------------------------------------

    def _pick_worker(self) -> Optional[int]:
        """The least-loaded worker with free capacity, else None."""
        best, best_load = None, None
        for worker in range(self.config.workers):
            load = len(self._loads[worker])
            if load >= self.config.worker_capacity:
                continue
            if best_load is None or load < best_load:
                best, best_load = worker, load
        return best

    def _assign(self, entry: _Pending, worker: int) -> None:
        """Route one admitted request to ``worker`` (lock held)."""
        self._loads[worker].add(entry.handle.request_id)
        self.events.emit(EpisodeDispatched(
            request_id=entry.handle.request_id, worker=worker,
            capacity=self.config.worker_capacity,
        ))
        self._assigned[worker].append(entry)
        self._work.notify_all()

    def _refill(self, worker: int) -> None:
        """Pull backlog head entries onto a freed worker (lock held)."""
        while (
            self._backlog
            and len(self._loads[worker]) < self.config.worker_capacity
        ):
            self._assign(self._backlog.popleft(), worker)
        self.stats.queue_depth = len(self._backlog)

    def _claim_batch(
        self, worker: int, first: _Pending, room: int
    ) -> List[_Pending]:
        """Compatible queued episodes folded into this service turn.

        Called by a worker holding a warm engine it just served
        ``first`` on: entries already dispatched to this worker whose
        compatibility key matches (identical program + engine
        configuration) jump the worker's queue — up to ``max_batch``
        per turn — and run back-to-back on the held engine instead of
        round-tripping the scheduler and the engine pool.  The claimed
        entries were admitted against this worker's capacity when they
        were dispatched, so the fold never inflates the worker's load;
        the re-announced dispatch event (``batched=True``) keeps the
        RT004-audited stream faithful to what actually ran.
        """
        key = first.handle.request.compat_key()
        claimed: List[_Pending] = []
        if room <= 0:
            return claimed
        with self._lock:
            pending = self._assigned[worker]
            keep: Deque[_Pending] = deque()
            while pending and len(claimed) < room:
                entry = pending.popleft()
                if entry.handle.request.compat_key() == key:
                    entry.batched = True
                    self.events.emit(EpisodeDispatched(
                        request_id=entry.handle.request_id, worker=worker,
                        capacity=self.config.worker_capacity, batched=True,
                    ))
                    claimed.append(entry)
                else:
                    keep.append(entry)
            keep.extend(pending)
            self._assigned[worker] = keep
        return claimed

    def _shed_locked(self, entry: _Pending, why: str) -> None:
        self.events.emit(EpisodeShed(
            request_id=entry.handle.request_id, why=why
        ))
        request = entry.handle.request
        now = self.clock.now()
        entry.handle._resolve(EpisodeResponse(
            request_id=entry.handle.request_id, status="shed",
            workload=request.workload, digest=request.digest,
            tenant=request.tenant, error=why,
            submitted_at=entry.submitted_at, started_at=now,
            completed_at=now,
        ))

    def _shed(self, entry: _Pending, why: str) -> None:
        with self._lock:
            self._shed_locked(entry, why)

    # -- the worker fleet ---------------------------------------------------------

    def _worker_loop(self, worker: int) -> None:
        while True:
            with self._work:
                while not self._assigned[worker] and not self._draining:
                    self._work.wait()
                if not self._assigned[worker]:
                    return  # draining and nothing left assigned here
                entry = self._assigned[worker].popleft()
            self._serve_turn(worker, entry)

    def _serve_turn(self, worker: int, first: _Pending) -> None:
        """One service turn: ``first`` plus any compatible batch.

        The warm engine is acquired once and every folded episode runs
        back-to-back on it; each episode is still one independent
        ``engine.run()``, which is what keeps batched results
        bit-identical to unbatched ones.
        """
        request = first.handle.request
        config = request.config
        served: Optional[ServedProgram] = None
        prepared_hit = False
        resolve_error: Optional[str] = None
        try:
            served, prepared_hit = self._resolve(request)
        except Exception as error:  # noqa: BLE001 - surfaced per request
            resolve_error = f"{type(error).__name__}: {error}"

        if served is None:
            self._finish(
                worker, first,
                self._error_response(first, worker, resolve_error),
            )
            return

        key = self._engine_key(served, config, request.distill_config)
        engine, engine_hit = self.engines.acquire(
            key,
            lambda: self._build_engine(served, config, request.distill_config),
        )
        poisoned = False
        served_count = 0
        try:
            turn = [first]
            while turn:
                entry = turn.pop(0)
                started = self.clock.now()
                try:
                    result = engine.run()
                    response = EpisodeResponse(
                        request_id=entry.handle.request_id, status="ok",
                        workload=served.name, digest=served.digest,
                        tenant=entry.handle.request.tenant, result=result,
                        worker=worker, batched=entry.batched,
                        cache={"prepared": prepared_hit, "engine": engine_hit},
                        submitted_at=entry.submitted_at,
                        started_at=started,
                        completed_at=self.clock.now(),
                    )
                except Exception as error:  # noqa: BLE001
                    poisoned = True
                    response = self._error_response(
                        entry, worker, f"{type(error).__name__}: {error}"
                    )
                self._finish(worker, entry, response)
                if poisoned:
                    # A raising engine must not serve the rest of the
                    # batch (or any future tenant): hand its episodes
                    # back through the normal path on a fresh engine.
                    self._requeue(worker, turn)
                    return
                # Later episodes of this turn start on a fully warm
                # stack by construction.
                prepared_hit = engine_hit = True
                served_count += 1
                if not turn:
                    turn.extend(self._claim_batch(
                        worker, first,
                        self.config.max_batch - served_count,
                    ))
        finally:
            if poisoned:
                self.engines.discard(engine)
            else:
                self.engines.release(key, engine)

    def _requeue(self, worker: int, entries: List[_Pending]) -> None:
        """Hand claimed-but-unserved batch entries back to the worker.

        They stay dispatched to this worker (their admission slot is
        still held); they just go back to the head of its queue so the
        next service turn runs them on a fresh engine.
        """
        with self._work:
            for entry in reversed(entries):
                entry.batched = False
                self._assigned[worker].appendleft(entry)
            self._work.notify_all()

    def _finish(
        self, worker: int, entry: _Pending, response: EpisodeResponse
    ) -> None:
        with self._lock:
            self._loads[worker].discard(entry.handle.request_id)
            self.events.emit(EpisodeCompleted(
                request_id=entry.handle.request_id, worker=worker,
                ok=response.ok, batched=response.batched,
            ))
            self._refill(worker)
        entry.handle._resolve(response)

    def _error_response(
        self, entry: _Pending, worker: int, error: Optional[str]
    ) -> EpisodeResponse:
        request = entry.handle.request
        now = self.clock.now()
        return EpisodeResponse(
            request_id=entry.handle.request_id, status="error",
            workload=request.workload, digest=request.digest,
            tenant=request.tenant, error=error or "episode failed",
            worker=worker, submitted_at=entry.submitted_at,
            started_at=now, completed_at=now,
        )

    # -- warm-stack plumbing ------------------------------------------------------

    def _resolve(
        self, request: EpisodeRequest
    ) -> Tuple[Optional[ServedProgram], bool]:
        if request.workload is not None:
            return self.warm.resolve(
                request.workload, size=request.size,
                distill_config=request.distill_config,
            )
        entry = self.warm.lookup_digest(request.digest)
        if entry is None:
            raise MsspError(
                f"unknown program digest {request.digest!r}: only "
                f"programs a previous request or warmup loaded can be "
                f"addressed by digest"
            )
        return entry, True

    def _engine_key(
        self,
        served: ServedProgram,
        config: MsspConfig,
        distill_config: Optional[DistillConfig],
    ) -> str:
        return artifact_cache.digest(served.key, config, distill_config)

    def _build_engine(
        self,
        served: ServedProgram,
        config: MsspConfig,
        distill_config: Optional[DistillConfig],
    ):
        from repro.mssp.engine import create_engine

        engine = create_engine(
            served.program, served.distillation, config=config
        )
        if config.redistill_threshold and served.profile is not None:
            engine.enable_adaptation(
                served.profile,
                distill_config=distill_config or served.distill_config,
            )
        return engine
