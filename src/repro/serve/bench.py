"""Throughput/latency bench for the server: ``repro bench``'s first stage.

Three stages over one mixed workload stream, recorded as the
``serve_bench`` section of ``BENCH_summary.json``:

1. **Cold baseline** — the pre-server serving model, measured honestly:
   one fresh process-equivalent per episode (fresh profile → distill →
   engine → run → teardown, never touching the persistent artifact
   cache), sequentially.  This is the ``episodes_per_sec`` denominator
   of the headline ``speedup_vs_cold``.
2. **Warm burst** — the same mixed stream submitted all at once to a
   warmed :class:`~repro.serve.server.EpisodeServer`; closed-loop
   saturation throughput of the shared warm fleet.
3. **Open loop** — Poisson arrivals at each configured rate from a
   seeded RNG (reproducible schedules), latency measured from the
   *scheduled* arrival time so queueing delay is charged to the server
   even when the submitting loop falls behind.  Reports episodes/sec,
   p50/p99/p999 latency (nearest-rank), peak queue depth, shed count,
   and shared-cache hit rates per rate point.

An open-loop stage is the honest way to measure a server: a closed loop
self-throttles when the server slows down, hiding latency; Poisson
arrivals keep offering load, so queue growth and shedding become
visible exactly when admission control earns its keep.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

from repro.config import MsspConfig, ServeConfig
from repro.experiments import cache as artifact_cache
from repro.serve.server import EpisodeRequest, EpisodeServer

__all__ = [
    "DEFAULT_SERVE_WORKLOADS",
    "DEFAULT_RATES",
    "percentile",
    "poisson_arrivals",
    "cold_baseline",
    "run_serve_bench",
]

#: The mixed three-workload stream of the acceptance experiment: a
#: compute loop, a table/IO-flavored loop, and a branchy parser —
#: distinct programs, so the stream actually exercises cross-tenant
#: cache sharing rather than one hot entry.
DEFAULT_SERVE_WORKLOADS = ("compress", "crc", "branchy")

#: Default open-loop arrival rates, episodes/second.
DEFAULT_RATES = (2.0, 8.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]); 0.0 for an empty set."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def poisson_arrivals(
    rate: float, count: int, seed: int = 0
) -> List[float]:
    """``count`` arrival offsets (seconds) of a seeded Poisson process."""
    import random

    rng = random.Random(seed)
    offsets: List[float] = []
    clock = 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        offsets.append(clock)
    return offsets


def _mixed_stream(
    workloads: Sequence[str], count: int, sizes: Dict[str, int],
    config: MsspConfig,
) -> List[EpisodeRequest]:
    return [
        EpisodeRequest(
            workload=workloads[i % len(workloads)],
            size=sizes[workloads[i % len(workloads)]],
            config=config, tenant=f"tenant-{i % len(workloads)}",
        )
        for i in range(count)
    ]


def _resolve_sizes(
    workloads: Sequence[str], size: Optional[int], scale: float
) -> Dict[str, int]:
    from repro.experiments.bench import workload_size

    if size is not None:
        return {name: size for name in workloads}
    return {name: workload_size(name, scale) for name in workloads}


def cold_baseline(
    workloads: Sequence[str],
    episodes: int,
    sizes: Optional[Dict[str, int]] = None,
    config: Optional[MsspConfig] = None,
) -> Dict[str, object]:
    """Sequential one-process-per-episode serving, measured end to end.

    Every episode pays the full pipeline from source — profile,
    distill, engine construction, run, teardown — through
    :func:`repro.experiments.harness.prepare` directly (a fresh
    ``Program`` object each time), deliberately bypassing both the
    persistent artifact cache and every in-memory warm layer.  That is
    exactly what invoking ``run_mssp`` once per request costs.
    """
    from repro.experiments.harness import prepare
    from repro.mssp.engine import create_engine
    from repro.workloads import get_workload

    config = config or MsspConfig()
    sizes = sizes or _resolve_sizes(workloads, None, 1.0)
    walls: List[float] = []
    for i in range(episodes):
        name = workloads[i % len(workloads)]
        resolved = sizes[name]
        start = time.perf_counter()
        ready = prepare(get_workload(name), size=resolved)
        with create_engine(
            ready.instance.program, ready.distillation, config
        ) as engine:
            engine.run()
        walls.append(time.perf_counter() - start)
    wall = sum(walls)
    return {
        "episodes": episodes,
        "wall_seconds": wall,
        "episodes_per_sec": episodes / wall if wall > 0 else float("inf"),
        "episode_seconds_mean": wall / episodes if episodes else 0.0,
    }


def _warm_burst(
    server: EpisodeServer,
    requests: List[EpisodeRequest],
) -> Dict[str, object]:
    """Closed-loop saturation: submit everything at once, await all."""
    start = time.perf_counter()
    handles = [server.submit(request) for request in requests]
    responses = [handle.result() for handle in handles]
    wall = time.perf_counter() - start
    completed = sum(1 for r in responses if r.ok)
    return {
        "episodes": len(requests),
        "completed": completed,
        "shed": sum(1 for r in responses if r.status == "shed"),
        "batched": sum(1 for r in responses if r.batched),
        "wall_seconds": wall,
        "episodes_per_sec": (
            completed / wall if wall > 0 else float("inf")
        ),
    }


def _open_loop_stage(
    server: EpisodeServer,
    requests: List[EpisodeRequest],
    rate: float,
    seed: int,
) -> Dict[str, object]:
    """One Poisson-arrival rate point against a running server."""
    offsets = poisson_arrivals(rate, len(requests), seed=seed)
    server.reset_queue_high_water()
    base = time.perf_counter()
    submissions = []
    for request, offset in zip(requests, offsets):
        delay = (base + offset) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        submissions.append((server.submit(request), base + offset))
    latencies: List[float] = []
    queue_waits: List[float] = []
    completed = shed = batched = 0
    for handle, scheduled in submissions:
        response = handle.result()
        if response.status == "shed":
            shed += 1
            continue
        if response.ok:
            completed += 1
            batched += int(response.batched)
            # Charge latency from the *scheduled* arrival: if the
            # submitting loop fell behind, that backlog is server-side
            # queueing from the client's point of view.
            latencies.append(response.completed_at - scheduled)
            queue_waits.append(response.started_at - scheduled)
    wall = time.perf_counter() - base
    return {
        "rate": rate,
        "offered": len(requests),
        "completed": completed,
        "shed": shed,
        "batched": batched,
        "wall_seconds": wall,
        "episodes_per_sec": completed / wall if wall > 0 else float("inf"),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "latency_p999_ms": percentile(latencies, 99.9) * 1e3,
        "queue_wait_p50_ms": percentile(queue_waits, 50) * 1e3,
        "max_queue_depth": server.stats.max_queue_depth,
    }


def run_serve_bench(
    workloads: Sequence[str] = DEFAULT_SERVE_WORKLOADS,
    rates: Sequence[float] = DEFAULT_RATES,
    requests_per_rate: int = 24,
    burst_requests: int = 18,
    cold_episodes: Optional[int] = None,
    size: Optional[int] = None,
    scale: float = 1.0,
    seed: int = 0,
    serve_config: Optional[ServeConfig] = None,
    mssp_config: Optional[MsspConfig] = None,
) -> Dict[str, object]:
    """The full serving benchmark; returns the ``serve_bench`` section.

    ``size`` pins one episode size for every workload (tests use small
    sizes); otherwise each workload serves at its bench size times
    ``scale``.  The cold baseline defaults to one pass over the
    workload mix — it is by far the most expensive stage per episode.
    """
    workloads = tuple(workloads)
    serve_config = serve_config or ServeConfig()
    mssp_config = mssp_config or MsspConfig()
    sizes = _resolve_sizes(workloads, size, scale)
    cold_n = cold_episodes if cold_episodes is not None else len(workloads)
    cold = cold_baseline(workloads, cold_n, sizes=sizes, config=mssp_config)

    server = EpisodeServer(serve_config, mssp_config=mssp_config)
    with server:
        # Warm the exact (workload, size) pairs the stream will serve —
        # warming at a different size would warm the wrong artifacts.
        for name in workloads:
            server.warm_workload(name, size=sizes[name])
        warm = _warm_burst(
            server,
            _mixed_stream(workloads, burst_requests, sizes, mssp_config),
        )
        open_loop = []
        for index, rate in enumerate(rates):
            open_loop.append(_open_loop_stage(
                server,
                _mixed_stream(
                    workloads, requests_per_rate, sizes, mssp_config
                ),
                rate, seed=seed + index,
            ))
        cache = server.cache_summary()
        stats = server.stats.summary()

    cold_eps = float(cold["episodes_per_sec"])
    warm_eps = float(warm["episodes_per_sec"])
    hits = cache["prepared_hits"] + cache["engine_hits"]
    misses = cache["prepared_misses"] + cache["engine_misses"]
    return {
        "schema": artifact_cache.CACHE_SCHEMA,
        "workloads": list(workloads),
        "sizes": sizes,
        "seed": seed,
        "runtime": mssp_config.runtime,
        "serve": {
            "workers": serve_config.workers,
            "worker_capacity": serve_config.worker_capacity,
            "max_queue_depth": serve_config.max_queue_depth,
            "admission": serve_config.admission,
            "max_batch": serve_config.max_batch,
            "warmup": list(workloads),
        },
        "cold": cold,
        "warm": warm,
        "speedup_vs_cold": (
            warm_eps / cold_eps if cold_eps > 0 else float("inf")
        ),
        "open_loop": open_loop,
        "cache": cache,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "stats": stats,
    }
