"""Cross-tenant warm caches for the episode server.

Everything expensive about serving an episode is deterministic in the
request's content — (program code + data, size, distiller
configuration) for the profile/distill stage, plus the engine
configuration for the engine itself — so the server shares it across
tenants under content-addressed keys:

* :class:`WarmCache` holds resolved :class:`ServedProgram` artifacts
  keyed by the same SHA-256 digests the on-disk artifact cache
  (:mod:`repro.experiments.cache`) uses.  A miss falls through to the
  disk cache (``cached_prepare``), so a server restart on a machine
  with a warm ``benchmarks/cache/`` still skips distillation.  The
  crucial sharing property: every request for one program content gets
  the *same* :class:`~repro.isa.program.Program` objects (original and
  distilled), so the decode caches tenant N filled warm tenant N+1.
* :class:`EnginePool` holds idle, already-constructed
  :class:`~repro.mssp.engine.MsspEngine` instances keyed by (program
  key, engine-config digest).  Engines carry the warm executor
  substrate (worker processes) across episodes; ``MsspEngine.run``
  resets all per-run state, which is what keeps a pooled engine's
  results bit-identical to a fresh ``run_mssp`` of the same request.

Hit/miss counters for both layers (prepared artifact, pooled engine)
are kept per cache and surfaced per response.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import DistillConfig
from repro.experiments import cache as artifact_cache

__all__ = ["ServedProgram", "WarmCache", "EnginePool", "CacheCounters"]


@dataclass
class ServedProgram:
    """One resolved program the server can run episodes of.

    ``key`` is the content-addressed artifact key (workload name, size,
    program content digest, distiller config); ``digest`` is the bare
    program content digest tenants may address requests by.
    """

    name: str
    size: int
    key: str
    digest: str
    program: object          # repro.isa.program.Program
    distillation: object     # repro.distill.DistillationResult
    profile: object = None   # training Profile (adaptation requests)
    distill_config: Optional[DistillConfig] = None


@dataclass
class CacheCounters:
    """Shared-cache hits/misses, one pair per warm layer."""

    prepared_hits: int = 0
    prepared_misses: int = 0
    engine_hits: int = 0
    engine_misses: int = 0

    def summary(self) -> Dict[str, int]:
        return {
            "prepared_hits": self.prepared_hits,
            "prepared_misses": self.prepared_misses,
            "engine_hits": self.engine_hits,
            "engine_misses": self.engine_misses,
        }

    def hit_rate(self) -> float:
        hits = self.prepared_hits + self.engine_hits
        total = hits + self.prepared_misses + self.engine_misses
        return hits / total if total else 0.0


class WarmCache:
    """Content-addressed, in-memory program/artifact cache.

    Thread-safe.  The lock guards only the maps; a miss builds outside
    it, so a hit never waits for another request's profiling and
    distillation.  Concurrent misses of one request wait for its single
    in-flight build and then share the one resulting
    :class:`ServedProgram` (and with it the decoded state attached to
    its program objects).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_key: Dict[str, ServedProgram] = {}
        self._by_digest: Dict[str, ServedProgram] = {}
        #: (name, resolved size, resolved distill config) -> entry: a
        #: repeat request skips regenerating and re-digesting the
        #: program.
        self._by_request: Dict[tuple, ServedProgram] = {}
        #: request -> event set when its in-flight build ends.
        self._building: Dict[tuple, threading.Event] = {}
        self.counters = CacheCounters()

    def resolve(
        self,
        name: str,
        size: Optional[int] = None,
        distill_config: Optional[DistillConfig] = None,
    ) -> Tuple[ServedProgram, bool]:
        """The served program for a workload request; ``(entry, hit)``.

        A request resolved before returns its entry without generating
        anything.  A miss builds through the *persistent* artifact cache
        (:func:`repro.experiments.bench.cached_prepare`), so the
        expensive profile/distill stage is shared across server
        processes as well as across tenants.  A request whose build
        raises wakes its waiters, and the next of them builds again.
        """
        from repro.experiments.bench import workload_size

        resolved = size if size is not None else workload_size(name)
        config = distill_config or DistillConfig()
        request = (name, resolved, config)
        while True:
            with self._lock:
                entry = self._by_request.get(request)
                if entry is not None:
                    self.counters.prepared_hits += 1
                    return entry, True
                building = self._building.get(request)
                if building is None:
                    building = self._building[request] = threading.Event()
                    break
            building.wait()
        try:
            entry, hit = self._build(name, resolved, config)
            with self._lock:
                if hit:
                    self.counters.prepared_hits += 1
                else:
                    self.counters.prepared_misses += 1
                    self._install(entry)
                self._by_request[request] = entry
            return entry, hit
        finally:
            with self._lock:
                del self._building[request]
            building.set()

    def _build(
        self, name: str, size: int, config: DistillConfig
    ) -> Tuple[ServedProgram, bool]:
        """Build and digest the workload once; ``(entry, hit)``, a hit
        when an entry for the same content is already installed."""
        from repro.experiments.bench import cached_prepare, prepared_key
        from repro.workloads import get_workload

        instance = get_workload(name).instance(size)
        digest = artifact_cache.program_digest(instance.program)
        key = prepared_key(name, size, digest, config)
        with self._lock:
            entry = self._by_key.get(key)
        if entry is not None:
            return entry, True
        prepared, _ = cached_prepare(
            name, size=size, distill_config=config, instance=instance,
            content=digest,
        )
        return ServedProgram(
            name=name, size=size, key=key, digest=digest,
            program=prepared.instance.program,
            distillation=prepared.distillation,
            profile=prepared.profile,
            distill_config=config,
        ), False

    def lookup_digest(self, digest: str) -> Optional[ServedProgram]:
        """The warm entry for a bare program content digest, if any.

        This is how a tenant addresses a request by digest alone: only
        programs some earlier request (or warmup) already loaded can be
        named this way.
        """
        with self._lock:
            entry = self._by_digest.get(digest)
            if entry is not None:
                self.counters.prepared_hits += 1
            return entry

    def preload(self, entry: ServedProgram) -> None:
        """Seed the cache with an externally prepared artifact."""
        with self._lock:
            self._install(entry)

    def _install(self, entry: ServedProgram) -> None:
        self._by_key[entry.key] = entry
        # Digest addressing resolves to the most recently installed
        # variant of that content (sizes/configs share code rarely).
        self._by_digest[entry.digest] = entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_key)


class EnginePool:
    """Idle warm engines per (program key, engine-config digest).

    An engine is checked out for exactly one episode at a time — two
    workers never run one engine concurrently — and returned afterwards
    with its executor substrate (worker processes, decoded chains)
    still warm.  Checkout order is LIFO: the most recently used engine is the
    warmest.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: Dict[str, List[object]] = {}
        self.counters = CacheCounters()

    def acquire(
        self, key: str, build: Callable[[], object]
    ) -> Tuple[object, bool]:
        """An idle engine for ``key``, or a freshly built one.

        The build itself runs under the pool lock: concurrent workers
        constructing engines over one shared program would otherwise
        race to populate its attached decode caches.
        """
        with self._lock:
            idle = self._idle.get(key)
            if idle:
                self.counters.engine_hits += 1
                return idle.pop(), True
            engine = build()
            self.counters.engine_misses += 1
            return engine, False

    def release(self, key: str, engine: object) -> None:
        with self._lock:
            self._idle.setdefault(key, []).append(engine)

    def discard(self, engine: object) -> None:
        """Close an engine that must not be reused (it raised mid-run)."""
        close = getattr(engine, "close", None)
        if close is not None:
            try:
                close()
            except Exception:
                pass

    def close(self) -> None:
        """Close every idle engine (worker pools, redistillers)."""
        with self._lock:
            engines = [e for pool in self._idle.values() for e in pool]
            self._idle.clear()
        for engine in engines:
            self.discard(engine)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(pool) for pool in self._idle.values())
