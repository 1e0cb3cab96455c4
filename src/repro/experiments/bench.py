"""``repro bench``: the perf-measurement loop for the reproduction.

One command runs four stages in one process and writes their results
whole into a machine-readable ``BENCH_summary.json``
(:func:`run_bench`, :func:`write_summary`):

1. **Serving** — :func:`repro.serve.bench.run_serve_bench` on the run's
   runtime and scale: a cold one-pipeline-per-episode baseline, a warm
   burst and open-loop Poisson arrivals against the episode server.  It
   runs first, as a fresh process would: its cold baseline pays the
   first-use costs the warm server never sees again.

2. **Interpreter microbenchmark** — one workload run twice from boot to
   halt: once through the seed's per-step
   :func:`repro.machine.semantics.execute` dispatch loop (kept verbatim
   below as :func:`reference_execute_loop`, the perf baseline), once
   through the pre-decoded engine (:mod:`repro.machine.decoded`).
   Reports instructions/second for both and their ratio; this is the
   number the CI smoke job gates on (>30% regression against
   ``benchmarks/baseline.json`` fails).

3. **E-suite sweep** — the full workload pipeline (profile → distill →
   MSSP functional run with equivalence check → timing replay) per
   workload, through the persistent artifact cache
   (:mod:`repro.experiments.cache`), recording per-workload wall time,
   simulated instructions/second, speedup, and whether the expensive
   stage hit the cache.  ``-j N`` fans workloads out over a process
   pool (:func:`repro.experiments.harness.parallel_map`); workers share
   the cache through the filesystem.

4. **Cluster sweep** — :func:`run_sim_bench`: one eager run of
   ``compress`` at its default size, captured off the event bus
   (:func:`capture_trace`), timed by the timing model at several slave
   counts and under three cluster scenarios.  ``repro sim`` prints the
   same sweep for any workload.  It reproduces EXPERIMENTS.md E20, so
   it alone distills at the paper's task size
   (:data:`~repro.config.PAPER_TASK_SIZE`); stages 1–3 take the
   distiller's default.

The summary is stamped with its commit and whether the tracked files
differed from it (``dirty``), and with the machine's speed at the start
and end of the run (``calibration_cpu_seconds``: the CPU time of a
fixed loop, :func:`calibration_seconds`); each run appends a line to
``BENCH_history.jsonl`` beside it (:func:`append_history`).  On a
shared VM the same code can read far slower in one run than the next;
the calibration says which runs met a slow machine.  No gate reads it.

The stages' settings are the module constants below, not flags.  The
cached pipeline entry points (:func:`cached_prepare`,
:func:`cached_functional_run`) are also what ``benchmarks/common.py``
builds its per-process memo on, so pytest benchmark runs and the CLI
share one on-disk artifact store.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import (
    PAPER_TASK_SIZE,
    SEQUENTIAL_BASELINE,
    DistillConfig,
    MsspConfig,
    SlaveFailure,
    TimingConfig,
)
from repro.errors import InvalidPcError
from repro.experiments import cache as artifact_cache
from repro.experiments.harness import (
    EvaluationRow,
    PreparedWorkload,
    evaluate,
    parallel_map,
    prepare,
    prepare_instance,
)
from repro.isa.program import Program
from repro.machine.interpreter import DEFAULT_STEP_LIMIT
from repro.machine.decoded import decode, resolve_exec_tier
from repro.machine.semantics import execute
from repro.machine.state import ArchState
from repro.mssp.engine import MsspResult, create_engine
from repro.mssp.runtime.events import EventLog, RuntimeEvent
from repro.mssp.trace import TaskAttemptRecord
from repro.serve.bench import DEFAULT_RATES, run_serve_bench
from repro.timing import (
    MsspTimingSimulator,
    baseline_cycles,
    records_from_events,
    simulate_mssp,
)
from repro.workloads import WORKLOADS, get_workload
from repro.workloads.base import WorkloadInstance

#: Workload driving the interpreter microbenchmark (branchy, load/store
#: heavy, representative dynamic mix).
MICRO_WORKLOAD = "compress"

#: Regression tolerance for the baseline gate: fail when decoded
#: instructions/second fall below ``(1 - tolerance) * baseline``.
BASELINE_TOLERANCE = 0.30

#: The serving stage's open-loop arrival rates (episodes/second) and
#: requests per rate.  Its stream (compress, crc, branchy), its two
#: server workers and seed 0 are :func:`run_serve_bench`'s defaults.
SERVE_RATES = DEFAULT_RATES
SERVE_REQUESTS = 24

#: Warm episodes whose median is the microbenchmark's
#: ``e2e_instrs_per_sec``.
E2E_EPISODES = 5

#: The cluster stage's simulated slave counts (the scenarios run at the
#: middle one).
SIM_SLAVE_COUNTS = (2, 8, 16, 64)

#: Iterations of the machine-speed calibration loop: the loop, and the
#: count, the end-to-end benchmark times (``benchmarks/e2e/speed.py``),
#: so a bench run and an e2e run read machine speed on one scale.
CALIBRATION_STEPS = 12_000


def _calibration_step(regs: list, mem: dict, i: int) -> int:
    r = i & 7
    value = (regs[r - 1] + regs[r] + i) & 0xFFFF
    regs[r] = value
    mem[value & 255] = mem.get((value >> 3) & 255, 0) + 1
    return value & 1


def calibration_seconds() -> float:
    """CPU seconds the calling thread takes for the fixed calibration
    loop, now: larger on a slower (or busier) machine.  Thread CPU time
    leaves out waits for the interpreter lock."""
    regs, mem, taken = [0] * 8, {}, 0
    start = time.thread_time()
    for i in range(CALIBRATION_STEPS):
        taken += _calibration_step(regs, mem, i)
    return time.thread_time() - start


def workload_size(name: str, scale: float = 1.0) -> int:
    """The benchmark size for ``name`` at ``scale`` (floor of 4)."""
    return max(4, int(get_workload(name).default_size * scale))


# -- cached pipeline ----------------------------------------------------------


def prepared_key(
    name: str, size: int, content: str,
    distill_config: Optional[DistillConfig] = None,
) -> str:
    """The artifact key of one workload's profile+distill.

    It digests the distiller configuration ``None`` resolves to, not
    ``None`` itself, so an entry written under an older default never
    answers for the current one.
    """
    return artifact_cache.digest(
        name, size, content, distill_config or DistillConfig()
    )


def cached_prepare(
    name: str,
    size: Optional[int] = None,
    distill_config: Optional[DistillConfig] = None,
    instance: Optional[WorkloadInstance] = None,
    content: Optional[str] = None,
) -> Tuple[PreparedWorkload, bool]:
    """Profile+distill through the persistent cache; ``(ready, hit)``.

    A caller that has already built the workload's ``instance`` (and
    taken its :func:`~repro.experiments.cache.program_digest`,
    ``content``) hands them in, so a miss builds and digests the
    program once.
    """
    resolved = size if size is not None else workload_size(name)
    if instance is None:
        instance = get_workload(name).instance(resolved)
    if content is None:
        content = artifact_cache.program_digest(instance.program)
    key = prepared_key(name, resolved, content, distill_config)
    return artifact_cache.fetch(
        "prepared", key,
        lambda: prepare_instance(instance, distill_config),
    )


def cached_functional_run(
    name: str,
    size: Optional[int] = None,
    distill_config: Optional[DistillConfig] = None,
    mssp_config: Optional[MsspConfig] = None,
) -> Tuple[PreparedWorkload, MsspResult, bool]:
    """The equivalence-checked MSSP run through the persistent cache.

    Returns ``(ready, result, hit)`` where ``hit`` reports whether the
    *functional-run* artifact came from disk (the profile→distill→MSSP
    stage was skipped entirely).
    """
    resolved = size if size is not None else workload_size(name)
    instance = get_workload(name).instance(resolved)
    content = artifact_cache.program_digest(instance.program)
    key = artifact_cache.digest(
        name, resolved, content, distill_config or DistillConfig(),
        mssp_config or MsspConfig(),
    )

    def compute() -> Tuple[PreparedWorkload, MsspResult]:
        ready, _ = cached_prepare(
            name, resolved, distill_config, instance=instance,
            content=content,
        )
        row = evaluate(ready, mssp_config=mssp_config)
        return ready, row.mssp

    pair, hit = artifact_cache.fetch("functional", key, compute)
    return pair[0], pair[1], hit


# -- stage 2: interpreter microbenchmark --------------------------------------


def reference_execute_loop(
    program: Program,
    state: Optional[ArchState] = None,
    max_steps: int = DEFAULT_STEP_LIMIT,
) -> int:
    """The seed interpreter loop, verbatim: per-step ``execute`` dispatch.

    Kept as the microbenchmark baseline (and as a second oracle in the
    differential tests) so the decoded engine's speedup is always
    measured against the same code the seed shipped.
    """
    if state is None:
        state = ArchState.initial(program)
    code = program.code
    size = len(code)
    steps = 0
    while True:
        pc = state.pc
        if not 0 <= pc < size:
            raise InvalidPcError(pc, size)
        effect = execute(code[pc], state)
        if effect.halted:
            return steps
        steps += 1
        if steps >= max_steps:
            from repro.errors import StepLimitExceeded

            raise StepLimitExceeded(max_steps)


def microbenchmark(
    workload: str = MICRO_WORKLOAD,
    scale: float = 1.0,
    repeats: int = 3,
) -> Dict[str, float]:
    """Instructions/second across the execution tiers.

    Three timed stages on one workload: the seed's reference ``execute``
    loop, the pre-decoded engine, and whole MSSP episodes
    (``e2e_instrs_per_sec``).
    """
    program = get_workload(workload).instance(
        workload_size(workload, scale)
    ).program
    decoded = decode(program)  # decode cost paid up front, like real runs

    def time_once(runner) -> Tuple[int, float]:
        state = ArchState.initial(program)
        start = time.perf_counter()
        steps = runner(state)
        return steps, time.perf_counter() - start

    legacy_best = float("inf")
    decoded_best = float("inf")
    steps = 0
    for _ in range(max(1, repeats)):
        steps, elapsed = time_once(
            lambda s: reference_execute_loop(program, s)
        )
        legacy_best = min(legacy_best, elapsed)
        steps, elapsed = time_once(
            lambda s: decoded.run(s, DEFAULT_STEP_LIMIT)[0]
        )
        decoded_best = min(decoded_best, elapsed)
    legacy_ips = steps / legacy_best if legacy_best > 0 else float("inf")
    decoded_ips = steps / decoded_best if decoded_best > 0 else float("inf")
    return {
        "workload": workload,
        "dynamic_instrs": steps,
        "legacy_instrs_per_sec": legacy_ips,
        "decoded_instrs_per_sec": decoded_ips,
        "speedup": decoded_ips / legacy_ips if legacy_ips else float("inf"),
        "e2e_instrs_per_sec": episode_throughput(workload, scale),
    }


def episode_throughput(
    workload: str = MICRO_WORKLOAD, scale: float = 1.0
) -> float:
    """Architected instructions per second of whole MSSP episodes.

    The median over :data:`E2E_EPISODES` warm eager episodes on the decoded
    tier, after one warm-up episode: instructions committed to
    architected state (by tasks and by recovery) over episode wall
    time — what a user's run gets, not only the sequential loop.
    """
    ready, _ = cached_prepare(workload, size=workload_size(workload, scale))
    config = MsspConfig(runtime="eager", exec_tier="decoded")
    rates: List[float] = []
    with create_engine(
        ready.instance.program, ready.distillation, config
    ) as engine:
        engine.run()
        for _ in range(E2E_EPISODES):
            start = time.perf_counter()
            instrs = engine.run().counters.total_instrs
            rates.append(instrs / max(time.perf_counter() - start, 1e-9))
    return statistics.median(rates)


# -- stage 3: E-suite sweep ---------------------------------------------------


def measure_parallel_runtime(
    name: str,
    size: Optional[int] = None,
    num_slaves: int = 2,
    repeats: int = 3,
) -> Dict[str, object]:
    """Wall-clock eager vs the ``process`` runtime on one prepared
    workload.

    Times ``repeats`` fresh runs of each engine on the same program and
    distillation (best-of, so the pipelined number reflects the steady
    state with a warm worker pool rather than one-time spawn cost, which
    is reported separately as ``wall_parallel_cold_seconds``) and checks
    the two results are bit-identical.  Single-core hosts cap the
    measured speedup at ~1.0x by construction — the workers timeshare
    the one CPU — so ``cpu_count`` travels with the numbers.
    """
    from repro.mssp.engine import create_engine

    ready, _ = cached_prepare(name, size=size)
    program = ready.instance.program
    distillation = ready.distillation

    walls_eager: List[float] = []
    result_eager = None
    with create_engine(
        program, distillation, MsspConfig(runtime="eager")
    ) as eager:
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            result_eager = eager.run()
            walls_eager.append(time.perf_counter() - start)

    config = MsspConfig(runtime="process", num_slaves=num_slaves)
    walls_parallel: List[float] = []
    result_parallel = None
    with create_engine(program, distillation, config) as pipelined:
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            result_parallel = pipelined.run()
            walls_parallel.append(time.perf_counter() - start)
    dispatch = result_parallel.counters.dispatch.summary()

    identical = (
        result_eager.records == result_parallel.records
        and result_eager.counters == result_parallel.counters
        and result_eager.device_trace == result_parallel.device_trace
        and result_eager.final_state == result_parallel.final_state
    )
    wall_eager = min(walls_eager)
    wall_parallel = min(walls_parallel)
    return {
        "pipelined_runtime": pipelined.runtime,
        "wall_eager_seconds": wall_eager,
        "wall_parallel_seconds": wall_parallel,
        "wall_parallel_cold_seconds": walls_parallel[0],
        "measured_parallel_speedup": (
            wall_eager / wall_parallel if wall_parallel > 0 else float("inf")
        ),
        "parallel_identical": identical,
        "dispatch": dispatch,
    }


def _bench_one(args: Tuple[str, float]) -> Dict[str, object]:
    """One workload through the cached pipeline (process-pool worker).

    Runs the functional pipeline twice: once with the default (static)
    configuration and once with the adaptive prediction loop enabled
    (:meth:`MsspConfig.with_adaptation`), so every suite row records the
    before/after squash rate the adaptation exists to improve.
    """
    name, scale = args
    size = workload_size(name, scale)
    start = time.perf_counter()
    ready, result, hit = cached_functional_run(name, size=size)
    breakdown = simulate_mssp(result, TimingConfig())
    wall = time.perf_counter() - start
    row = EvaluationRow(
        name=name, seq_instrs=ready.seq_instrs, mssp=result,
        breakdown=breakdown, seq_loads=ready.seq_loads,
    )
    simulated = (
        result.counters.total_instrs + ready.seq_instrs  # engine + seq check
    )
    _, adaptive, adaptive_hit = cached_functional_run(
        name, size=size, mssp_config=MsspConfig().with_adaptation()
    )
    return {
        "workload": name,
        "size": size,
        "wall_seconds": wall,
        "cache_hit": hit,
        "adaptive_cache_hit": adaptive_hit,
        "seq_instrs": ready.seq_instrs,
        "simulated_instrs": simulated,
        "instrs_per_sec": simulated / wall if wall > 0 else float("inf"),
        "speedup": row.speedup,
        "squash_rate": result.counters.squash_rate,
        "static_verify_skips": result.counters.static_verify_skips,
        "adaptive_squash_rate": adaptive.counters.squash_rate,
        "predictor_hits": adaptive.counters.predictor_hits,
        "predictor_misses": adaptive.counters.predictor_misses,
        "redistillations": adaptive.counters.redistillations,
    }


# -- stage 4: cluster sweep ---------------------------------------------------


def capture_trace(
    name: str,
    size: Optional[int] = None,
    config: Optional[MsspConfig] = None,
    distill_config: Optional[DistillConfig] = None,
) -> Tuple[PreparedWorkload, MsspResult, List[RuntimeEvent]]:
    """Prepare ``name`` and run it once with an ``EventLog`` subscribed.

    Returns the prepared workload, the run's result and its
    clock-stamped event stream: what ``repro trace --export`` writes
    and the cluster sweep times.
    """
    prepared = prepare(
        get_workload(name), size=size, distill_config=distill_config
    )
    log = EventLog()
    with create_engine(
        prepared.instance.program, prepared.distillation,
        config or MsspConfig(),
    ) as engine:
        engine.events.subscribe(log)
        result = engine.run()
    return prepared, result, log.events


def run_sim_bench(
    workload: str = "compress",
    slave_counts: Sequence[int] = SIM_SLAVE_COUNTS,
    size: Optional[int] = None,
) -> Dict[str, object]:
    """Time one workload's eager trace; the ``sim_bench`` section.

    The trace is timed by the timing model at each slave count, then at
    the middle count under three cluster scenarios: transfer contention
    on a bounded link, heterogeneous slave speeds, and a mid-episode
    slave failure/restart.  It reproduces EXPERIMENTS.md E20, so the
    workload distills at :data:`~repro.config.PAPER_TASK_SIZE`.
    """
    prepared, result, events = capture_trace(
        workload, size, MsspConfig(runtime="eager"),
        distill_config=DistillConfig(target_task_size=PAPER_TASK_SIZE),
    )
    records = records_from_events(events)
    total_instrs = result.counters.total_instrs
    reference = baseline_cycles(total_instrs, SEQUENTIAL_BASELINE)

    def timed(timing: TimingConfig):
        """The trace's breakdown under ``timing`` and its speedup."""
        breakdown = MsspTimingSimulator(timing).simulate_records(records)
        cycles = breakdown.total_cycles
        return breakdown, (reference / cycles if cycles > 0 else 0.0)

    sweep: List[Dict[str, object]] = []
    for n_slaves in slave_counts:
        breakdown, speedup = timed(TimingConfig(n_slaves=n_slaves))
        sweep.append({
            "n_slaves": n_slaves,
            "sim_cycles": breakdown.total_cycles,
            "speedup": speedup,
            "master_stall_cycles": breakdown.master_stall_cycles,
            "commit_bound_tasks": breakdown.commit_bound_tasks,
        })

    ideal = sweep[len(sweep) // 2]
    mid = ideal["n_slaves"]
    horizon = ideal["sim_cycles"]
    timing = TimingConfig(n_slaves=mid)

    def scenario(name: str, **overrides) -> Dict[str, object]:
        breakdown, speedup = timed(replace(timing, **overrides))
        return {
            "scenario": name,
            "n_slaves": mid,
            "sim_cycles": breakdown.total_cycles,
            "slowdown_vs_ideal": (
                breakdown.total_cycles / horizon if horizon > 0 else 0.0
            ),
            "speedup": speedup,
        }

    return {
        "workload": prepared.name,
        "tasks_replayed": sum(
            isinstance(r, TaskAttemptRecord) for r in records
        ),
        "records_replayed": len(records),
        "total_instrs": total_instrs,
        "baseline_cycles": reference,
        "sweep": sweep,
        "scenarios": [
            # Every transfer takes 50 extra cycles on a single channel.
            scenario(
                "contended-link",
                spawn_latency=timing.spawn_latency + 50.0,
                link_channels=1,
            ),
            scenario(
                "heterogeneous-slaves",
                slave_speeds=tuple(
                    1.0 if slot % 2 == 0 else 0.5 for slot in range(mid)
                ),
            ),
            scenario(
                "slave-failure",
                failures=(
                    SlaveFailure(
                        slot=0, at=horizon * 0.25, downtime=horizon * 0.25,
                    ),
                ),
            ),
        ],
    }


# -- the command --------------------------------------------------------------


def run_bench(
    workloads: Optional[List[str]] = None,
    scale: float = 1.0,
    jobs: int = 1,
    micro_repeats: int = 3,
    runtime: str = "eager",
) -> Dict[str, object]:
    """The four stages, in order; the whole summary, JSON-ready.

    ``runtime`` is the serving stage's engine backend.  The pipelined
    ``runtime`` ("process") also adds a wall-clock stage per suite
    workload: eager vs that executor backend with ``jobs`` slave
    workers, bit-identity checked.  In that mode the suite rows
    themselves run serially — ``jobs`` provisions slave workers, and
    fanning workloads out over a second pool would have the two levels
    of parallelism fight over the same cores.  ``workloads`` selects
    suite rows only.
    """
    import os

    calibration_start = calibration_seconds()
    names = list(workloads) if workloads else list(WORKLOADS)
    serve = run_serve_bench(
        rates=SERVE_RATES, requests_per_rate=SERVE_REQUESTS, scale=scale,
        mssp_config=MsspConfig(runtime=runtime),
    )
    micro = microbenchmark(scale=scale, repeats=micro_repeats)
    suite_start = time.perf_counter()
    pipelined = runtime != "eager"
    suite_jobs = 1 if pipelined else jobs
    rows = parallel_map(
        _bench_one, [(name, scale) for name in names], suite_jobs
    )
    if pipelined:
        for row in rows:
            row.update(
                measure_parallel_runtime(
                    str(row["workload"]), size=int(row["size"]),
                    num_slaves=max(2, jobs),
                )
            )
    suite_wall = time.perf_counter() - suite_start
    sim = run_sim_bench()

    return {
        "schema": artifact_cache.CACHE_SCHEMA,
        "commit": current_commit(),
        "dirty": tree_dirty(),
        "calibration_cpu_seconds": {
            "start": calibration_start, "end": calibration_seconds(),
        },
        "scale": scale,
        "jobs": jobs,
        "runtime": runtime,
        # Environment-resolved execution tier the suite rows ran under
        # (the microbenchmark measures both tiers explicitly regardless).
        "exec_tier": resolve_exec_tier(None),
        "cpu_count": os.cpu_count(),
        "serve_bench": serve,
        "microbenchmark": micro,
        "suite": rows,
        "suite_wall_seconds": suite_wall,
        "cache_hits": sum(1 for row in rows if row["cache_hit"]),
        "adaptive_cache_hits": sum(
            1 for row in rows if row["adaptive_cache_hit"]
        ),
        "cache_dir": str(artifact_cache.cache_dir()),
        "sim_bench": sim,
    }


def _git(*args: str) -> Optional[str]:
    """The output of ``git args`` in the source tree, or ``None``."""
    import subprocess

    try:
        return subprocess.run(
            ["git", *args], check=True,
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def current_commit() -> str:
    """``git rev-parse --short HEAD`` of the source tree, or ``unknown``."""
    return _git("rev-parse", "--short", "HEAD") or "unknown"


def tree_dirty() -> Optional[bool]:
    """Whether tracked files differ from :func:`current_commit` (``git
    status --porcelain --untracked-files=no`` prints anything), so a
    run that measured uncommitted code says so; ``None`` without git."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status)


def write_summary(summary: Dict[str, object], path: str) -> None:
    """Write ``summary`` as the JSON file at ``path``, replacing it whole."""
    Path(path).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )


def append_history(summary: Dict[str, object], path: str) -> Path:
    """Append the run's headline numbers to ``BENCH_history.jsonl``
    beside ``path``; returns the history file's path."""
    from datetime import datetime, timezone

    micro = summary["microbenchmark"]
    line = {
        "commit": summary["commit"],
        "dirty": summary["dirty"],
        "calibration_cpu_seconds": summary["calibration_cpu_seconds"],
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": summary["scale"],
        "runtime": summary["runtime"],
        "speedup_vs_cold": summary["serve_bench"]["speedup_vs_cold"],
        "decoded_instrs_per_sec": micro["decoded_instrs_per_sec"],
        "suite_wall_seconds": summary["suite_wall_seconds"],
    }
    history = Path(path).with_name("BENCH_history.jsonl")
    with history.open("a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    return history


def check_baseline(
    summary: Dict[str, object],
    baseline_path: str,
    tolerance: float = BASELINE_TOLERANCE,
) -> List[str]:
    """Regression check against a committed baseline; returns problems.

    The baseline file records *floor* throughputs (the decoded
    sequential loop, and ``e2e_instrs_per_sec`` for whole episodes) and
    the decoded engine's minimum speedup; the current run fails when a
    throughput regresses more than ``tolerance`` below its floor or the
    speedup falls under its minimum.  An absent baseline file is an
    error (the gate must never pass vacuously).
    """
    problems: List[str] = []
    path = Path(baseline_path)
    if not path.is_file():
        return [f"baseline file {baseline_path} not found"]
    baseline = json.loads(path.read_text())
    micro = summary["microbenchmark"]
    floor = baseline.get("decoded_instrs_per_sec")
    if floor is not None:
        allowed = floor * (1.0 - tolerance)
        actual = micro["decoded_instrs_per_sec"]
        if actual < allowed:
            problems.append(
                f"decoded interpreter throughput regressed: "
                f"{actual:,.0f} instrs/sec < {allowed:,.0f} "
                f"(baseline {floor:,.0f} - {tolerance:.0%})"
            )
    min_speedup = baseline.get("min_speedup")
    if min_speedup is not None and micro["speedup"] < min_speedup:
        problems.append(
            f"decoded-vs-legacy speedup regressed: "
            f"{micro['speedup']:.2f}x < required {min_speedup:.2f}x"
        )
    e2e_floor = baseline.get("e2e_instrs_per_sec")
    if e2e_floor is not None:
        allowed = e2e_floor * (1.0 - tolerance)
        actual = micro.get("e2e_instrs_per_sec", 0.0)
        if actual < allowed:
            problems.append(
                f"end-to-end episode throughput regressed: "
                f"{actual:,.0f} instrs/sec < {allowed:,.0f} "
                f"(baseline {e2e_floor:,.0f} - {tolerance:.0%})"
            )
    return problems


def write_baseline(summary: Dict[str, object], path: str) -> None:
    """Regenerate the committed baseline from this run's measurements.

    Floors are written deliberately conservative — well below what was
    just measured — because CI runners are slower and noisier than dev
    machines; the provenance of the measurement goes into the comment.
    The speedup minimum is an engineering target, not a measurement:
    decoded must stay ≥2x over the reference loop.
    """
    micro = summary["microbenchmark"]

    def floor(value: float) -> int:
        return max(100_000, int(value * 0.375) // 100_000 * 100_000)

    baseline = {
        "comment": (
            "Committed perf floor for the `repro bench --baseline` gate, "
            "written by `repro bench --write-baseline`. Floors are "
            "deliberately conservative (CI runners are slower and noisier "
            "than dev machines); the gate fails when measured throughput "
            "drops more than 30% below a floor or a speedup falls under "
            "its minimum. Measurement provenance: "
            f"{time.strftime('%Y-%m-%d')}, reference execute() loop "
            f"~{micro['legacy_instrs_per_sec'] / 1e6:.2f}M instrs/sec, "
            f"pre-decoded engine "
            f"~{micro['decoded_instrs_per_sec'] / 1e6:.2f}M instrs/sec, "
            f"decoded MSSP episodes "
            f"~{micro['e2e_instrs_per_sec'] / 1e6:.2f}M instrs/sec."
        ),
        "decoded_instrs_per_sec": floor(micro["decoded_instrs_per_sec"]),
        "min_speedup": 2.0,
        "e2e_instrs_per_sec": floor(micro["e2e_instrs_per_sec"]),
    }
    Path(path).write_text(
        json.dumps(baseline, indent=2, sort_keys=False) + "\n"
    )
