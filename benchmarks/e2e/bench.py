"""One run of one end-to-end workload, measured from outside the program.

The benchmark calls only public entry points of ``repro``: ``prepare``,
``create_engine``/``MsspEngine``, ``engine.run``, ``EpisodeServer``, the
timing model, and the stage functions ``prepare`` is built from.  It
checks every result against a sequential reference it computes itself,
outside the timed region, and reports every time at the reference
machine speed of :mod:`.speed`.

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds N
--trace 0|1`` runs :func:`main`; the last line it prints is the JSON
result.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``BENCHMARK.json`` and ``layers.json``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.specsafe import prove_safety
from repro.config import MsspConfig
from repro.distill import Distiller
from repro.experiments import prepare, training_profile
from repro.experiments.bench import workload_size
from repro.experiments.harness import RUN_LIMIT, distilled_dynamic_length
from repro.machine.interpreter import count_instructions_and_loads, run_to_halt
from repro.mssp import MsspEngine, create_engine
from repro.serve.server import EpisodeRequest, EpisodeServer
from repro.stats.tables import geomean
from repro.timing import simulate_mssp, speedup
from repro.workloads import get_workload

from .layers import EPISODE_LAYERS, EpisodeTrace, counts
from .spec import OUT, load_spec
from .speed import calibrate, reference_factor
from .stats import MIN_BEYOND, nearest_rank

#: Set-up is repeated this many times per untraced run; the median is
#: reported, so one slow set-up does not read as a regression.
SETUP_REPS = 3
#: Every measured phase runs at least this many ops, so p90 has ten
#: samples beyond it.
MIN_OPS = 100
#: A measured phase stops early (and the run fails its p90 guard) if
#: the machine is too slow to reach MIN_OPS in this many seconds.
MAX_PHASE_SECONDS = 120.0
#: ``--quick``: workload sizes are scaled down by this factor.
QUICK_SCALE = 0.2
QUICK_OPS = 6
#: Throughput is the median over windows of at least this many ops.
WINDOW = 4
#: Serve clients: one more than the server's two workers, so requests
#: queue and compatible ones can batch.
TENANTS = 3


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``kind`` picks how an op is run:

    * ``warm`` — ``engine.run()`` on one warm engine per program,
      round-robin, one closed-loop client;
    * ``cold`` — prepare + build + run + timing model from scratch on
      fresh inputs per op (a one-shot ``repro run``);
    * ``serve`` — ``TENANTS`` closed-loop clients sharing one warmed
      :class:`EpisodeServer`.
    """

    name: str
    programs: Tuple[str, ...]
    kind: str = "warm"
    scale: float = 1.0
    config: MsspConfig = MsspConfig()
    #: False pins the programs' own input seeds (``mispredict``'s are
    #: searched so training is flat and evaluation drifts).
    seeded: bool = True


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("steady", ("compress", "parse", "stringops", "interp")),
    Workload("squashy", ("mispredict",), seeded=False),
    Workload("cold", ("compress", "parse", "crc", "branchy"),
             kind="cold", scale=0.25),
    Workload("overlap", ("compress", "parse"),
             config=MsspConfig(runtime="process", num_slaves=1)),
    Workload("serve", ("compress", "crc", "branchy"),
             kind="serve", seeded=False),
)}


# -- programs and their references --------------------------------------------


def seeded_spec(workload: Workload, name: str, seed: int, tag: str):
    """``name``'s spec with train and eval seeds drawn from ``seed``."""
    spec = get_workload(name)
    if not workload.seeded:
        return spec
    rng = random.Random(f"{seed}:{workload.name}:{name}:{tag}")
    return dataclasses.replace(
        spec,
        eval_seed=rng.randrange(1, 2 ** 31),
        train_seeds=tuple(rng.randrange(1, 2 ** 31) for _ in spec.train_seeds),
    )


@dataclass
class Subject:
    """One program of a mix: its engine, first result and reference."""

    name: str
    program: object
    engine: Optional[MsspEngine] = None
    first: object = None      # MsspResult of the program's first op
    reference: object = None  # RunResult of the sequential machine

    def check(self, result) -> bool:
        """Same final state and length as sequential execution, and the
        same counters as this program's first op.

        Set-up computes the reference of every program it builds; only a
        ``cold`` op's fresh program gets its reference here, after the
        op's time is taken.
        """
        if self.reference is None:
            self.reference = run_to_halt(self.program, max_steps=RUN_LIMIT)
        if result.counters.total_instrs != self.reference.steps:
            return False
        if result.final_state.diff(self.reference.state):
            return False
        return self.first is None or result.counters == self.first.counters


def run_episode(engine, traces: Optional[List[EpisodeTrace]]):
    """``engine.run()``, attributed to layers when ``traces`` is a list."""
    if traces is None:
        return engine.run()
    trace = EpisodeTrace(engine.clock)
    unsubscribe = engine.events.subscribe(trace)
    trace.start()
    try:
        return engine.run()
    finally:
        trace.stop()
        unsubscribe()
        traces.append(trace)


# -- set-up -------------------------------------------------------------------


@dataclass
class Session:
    workload: Workload
    seed: int
    scale: float
    subjects: List[Subject] = field(default_factory=list)
    server: Optional[EpisodeServer] = None
    setup_s: float = 0.0

    def size(self, name: str) -> int:
        return workload_size(name, self.scale)

    def close(self) -> None:
        for subject in self.subjects:
            if subject.engine is not None:
                subject.engine.close()
                subject.engine = None
        if self.server is not None:
            self.server.close()
            self.server = None


def open_session(workload: Workload, seed: int, scale: float) -> Session:
    """Set a workload up; ``setup_s`` times it.  The sequential
    reference of every program is computed after the clock stops.

    Warm and cold mixes: ``prepare``, engine build and the first op of
    every program.  Serve: server start plus ``warm_workload`` per
    program.
    """
    session = Session(workload, seed, scale)
    try:
        before = calibrate()
        start = time.perf_counter()
        if workload.kind == "serve":
            session.server = EpisodeServer().start()
            for name in workload.programs:
                session.server.warm_workload(name, size=session.size(name))
        else:
            for name in workload.programs:
                spec = seeded_spec(workload, name, seed, "setup")
                ready = prepare(spec, size=session.size(name))
                subject = Subject(name, ready.instance.program)
                session.subjects.append(subject)
                subject.engine = create_engine(
                    subject.program, ready.distillation,
                    config=workload.config,
                )
                subject.first = subject.engine.run()
                if workload.kind == "cold":
                    subject.engine.close()
                    subject.engine = None
        session.setup_s = (time.perf_counter() - start) * reference_factor(
            before, calibrate()
        )
        if workload.kind == "serve":
            session.subjects = [
                Subject(name, get_workload(name).instance(
                    session.size(name)).program)
                for name in workload.programs
            ]
        for subject in session.subjects:
            subject.reference = run_to_halt(subject.program,
                                            max_steps=RUN_LIMIT)
            if subject.first is not None and not subject.check(subject.first):
                raise RuntimeError(f"{subject.name}: first op is incorrect")
    except BaseException:
        session.close()
        raise
    return session


def staged_setup(workload: Workload, seed: int, scale: float) -> dict:
    """The traced set-up: ``prepare`` taken apart stage by stage.

    Builds each program of the mix the way ``prepare`` +
    ``create_engine`` would, timing every stage, then runs two episodes
    (the first, traced, carries the warm-up) and the timing model.
    Returns per-program samples of every set-up layer and the
    deterministic counts.
    """
    samples: Dict[str, list] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    for name in workload.programs:
        spec = seeded_spec(workload, name, seed, "setup")
        before = calibrate()
        t0 = time.perf_counter()
        instance = spec.instance(workload_size(name, scale))
        program = instance.program
        profile = training_profile(instance)
        t1 = time.perf_counter()
        distillation = Distiller().distill(program, profile)
        t2 = time.perf_counter()
        seq_instrs, _ = count_instructions_and_loads(
            program, max_steps=RUN_LIMIT
        )
        distilled = distilled_dynamic_length(
            distillation, program, max_steps=RUN_LIMIT
        )
        t3 = time.perf_counter()
        report = prove_safety(
            program, distillation.distilled, distillation.pc_map
        )
        t4 = time.perf_counter()
        engine = MsspEngine(
            program, distillation, config=workload.config,
            safety_report=report,
        )
        t5 = time.perf_counter()
        try:
            traces: List[EpisodeTrace] = []
            result = run_episode(engine, traces)
            t6 = time.perf_counter()
            engine.run()
            t7 = time.perf_counter()
        finally:
            engine.close()
        breakdown = simulate_mssp(result)
        t8 = time.perf_counter()
        ms = 1e3 * reference_factor(before, calibrate())
        add("profiling.ms", (t1 - t0) * ms)
        add("distill.ms", (t2 - t1) * ms)
        add("experiments.measure_ms", (t3 - t2) * ms)
        add("analysis.specsafe_ms", (t4 - t3) * ms)
        add("mssp.build_ms", (t5 - t4) * ms)
        add("machine.warmup_ms", ((t6 - t5) - (t7 - t6)) * ms)
        add("timing.simulate_ms", (t8 - t7) * ms)
        add("distill.ratio", distilled / seq_instrs)
        add("timing.sim_cycles", breakdown.total_cycles)
        add("mssp.events", float(traces[0].events))
        for key, value in counts(result).items():
            add(key, value)
    return samples


# -- measured phases ----------------------------------------------------------


@dataclass
class Phase:
    """What a measured phase observed."""

    latencies: List[float] = field(default_factory=list)
    #: Per op, whether it was traced (the traced pass alternates).
    traced: List[bool] = field(default_factory=list)
    traces: List[EpisodeTrace] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Correct ops per second and sequential instructions per second.
    rates: Tuple[float, float] = (0.0, 0.0)
    serve: Dict[str, float] = field(default_factory=dict)


Op = Callable[[int, Optional[List[EpisodeTrace]]], Tuple[Subject, object]]


def warm_op(session: Session) -> Op:
    subjects = session.subjects

    def op(i, traces):
        subject = subjects[i % len(subjects)]
        return subject, run_episode(subject.engine, traces)

    return op


def cold_op(session: Session) -> Op:
    workload = session.workload

    def op(i, traces):
        name = workload.programs[i % len(workload.programs)]
        spec = seeded_spec(workload, name, session.seed, f"op{i}")
        ready = prepare(spec, size=session.size(name))
        with create_engine(
            ready.instance.program, ready.distillation,
            config=workload.config,
        ) as engine:
            result = run_episode(engine, traces)
        speedup(result)
        return Subject(name, ready.instance.program), result

    return op


def measure_closed(
    op: Op, seconds: float, min_ops: int, traced: bool, mix: int
) -> Phase:
    """One client, each op after the previous one returns.

    Runs whole rounds over the ``mix`` programs until ``seconds`` of op
    time have passed and ``min_ops`` ops are done; checking results and
    calibrating are not op time.  When ``traced``, rounds alternate
    between traced and untraced, so both halves see the same programs.

    Each op's time is taken to the reference speed by the calibrations
    just before and just after it.
    """
    phase = Phase()
    seq: List[int] = []  # per completed op; 0 when its result was wrong
    overhead = 0.0
    before = calibrate()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (
            phase.attempted >= min_ops
            and phase.attempted % mix == 0
            and elapsed - overhead >= seconds
        ):
            break
        if elapsed > MAX_PHASE_SECONDS:
            break
        i = phase.attempted
        phase.attempted += 1
        traces = phase.traces if traced and (i // mix) % 2 else None
        t0 = time.perf_counter()
        try:
            subject, result = op(i, traces)
        except Exception as error:  # noqa: BLE001 - counted, not fatal
            print(f"op {i} raised {type(error).__name__}: {error}",
                  file=sys.stderr)
            phase.failed += 1
            continue
        t1 = time.perf_counter()
        after = calibrate()
        factor = reference_factor(before, after)
        before = after
        phase.latencies.append((t1 - t0) * factor)
        phase.traced.append(traces is not None)
        if traces is not None:
            traces[-1].rescale(factor)
        if subject.check(result):
            seq.append(result.counters.total_instrs)
        else:
            seq.append(0)
            phase.failed += 1
        overhead += time.perf_counter() - t1
    phase.rates = window_rates(phase.latencies, seq, mix)
    return phase


def window_rates(
    times: List[float], seq: List[int], mix: int
) -> Tuple[float, float]:
    """Correct ops and sequential instructions per second: the medians
    over windows of whole rounds of the ``mix`` programs, at least
    ``WINDOW`` ops each, so a few preempted ops do not move them and
    every window holds each program equally often.  ``times[i]`` is
    the time op ``i`` took up; ``seq[i]`` its sequential instructions,
    0 when its result was wrong."""
    size = mix * math.ceil(WINDOW / mix)
    op_rates, instr_rates = [], []
    for k in range(0, len(seq) - size + 1, size):
        busy = sum(times[k:k + size])
        window = seq[k:k + size]
        op_rates.append(sum(1 for instrs in window if instrs) / busy)
        instr_rates.append(sum(window) / busy)
    return statistics.median(op_rates), statistics.median(instr_rates)


def measure_serve(session: Session, seconds: float, min_ops: int) -> Phase:
    """``TENANTS`` tenants, each waiting for its reply before it sends
    the next request (a closed loop of ``TENANTS`` clients).

    One generator thread drives them all, waiting on the oldest request
    first.  Each round of requests covers every program once, in seeded
    order.  Latency is the server's own submit-to-completion stamps,
    taken to the reference speed by the generator's calibrations on
    receiving this response and the one before it.  The time a response
    takes up, for throughput, is how far it moved the last completion
    stamp on, at the same speed.
    """
    workload, server = session.workload, session.server
    rng = random.Random(f"{session.seed}:{workload.name}")
    order: List[Subject] = []

    def submit(tenant: str):
        if not order:
            order.extend(rng.sample(session.subjects, len(session.subjects)))
        subject = order.pop()
        request = EpisodeRequest(
            workload=subject.name, size=session.size(subject.name),
            config=workload.config, tenant=tenant,
        )
        phase.attempted += 1
        return server.submit(request), subject

    phase = Phase()
    server.reset_queue_high_water()
    calibrations = [calibrate()]
    start = server.clock.now()
    inflight = deque(submit(f"tenant-{t}") for t in range(TENANTS))
    end = start
    gaps: List[float] = []
    seq: List[int] = []
    queue, service, flags = [], [], []
    while inflight:
        handle, subject = inflight.popleft()
        response = handle.result(timeout=MAX_PHASE_SECONDS)
        elapsed = server.clock.now() - start
        if elapsed < MAX_PHASE_SECONDS and (
            phase.attempted < min_ops or elapsed < seconds
        ):
            inflight.append(submit(handle.request.tenant))
        calibrations.append(calibrate())
        if not response.ok:
            phase.failed += 1
            continue
        factor = reference_factor(*calibrations[-2:])
        gaps.append(max(0.0, response.completed_at - end) * factor)
        end = max(end, response.completed_at)
        phase.latencies.append(response.latency_seconds * factor)
        phase.traced.append(False)
        queue.append(response.queue_seconds * factor)
        service.append((response.completed_at - response.started_at) * factor)
        flags.append(response)
        result = response.result
        if not subject.check(result):
            seq.append(0)
            phase.failed += 1
            continue
        if subject.first is None:
            subject.first = result
        seq.append(result.counters.total_instrs)
    phase.rates = window_rates(gaps, seq, len(session.subjects))
    ok = len(flags)

    def share(key: str) -> float:
        return sum(r.cache.get(key, False) for r in flags) / ok

    stats = server.stats
    phase.serve = {
        "serve.queue_wait_p50_ms": nearest_rank(queue, 0.5, 0) * 1e3,
        "serve.queue_wait_p90_ms": nearest_rank(queue, 0.9, 0) * 1e3,
        "serve.service_p50_ms": nearest_rank(service, 0.5, 0) * 1e3,
        "serve.batched_frac": sum(r.batched for r in flags) / ok,
        "serve.prepared_hit_frac": share("prepared"),
        "serve.engine_hit_frac": share("engine"),
        "serve.jit_warm_frac": share("jit_warm"),
        "serve.max_queue_depth": float(stats.max_queue_depth),
        "serve.shed": float(stats.shed),
        "serve.errors": float(stats.errors),
    }
    return phase


# -- metrics ------------------------------------------------------------------


def end_to_end(
    phase: Phase, subjects: List[Subject], setup_s: float, min_beyond: int
) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "op_p50_ms": nearest_rank(phase.latencies, 0.5, min_beyond) * 1e3,
        "op_p90_ms": nearest_rank(phase.latencies, 0.9, min_beyond) * 1e3,
        "ops_per_s": phase.rates[0],
        "seq_instrs_per_s": phase.rates[1],
        "sim_speedup": geomean([speedup(s.first) for s in subjects]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


SERVE_METRICS = (
    "serve.queue_wait_p50_ms", "serve.queue_wait_p90_ms",
    "serve.service_p50_ms", "serve.batched_frac",
    "serve.prepared_hit_frac", "serve.engine_hit_frac",
    "serve.jit_warm_frac", "serve.max_queue_depth", "serve.shed",
    "serve.errors",
)


def per_layer(phase: Phase, samples: Dict[str, list]) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for name, values in samples.items():
        if name in ("distill.ratio", "timing.sim_cycles"):
            metrics[name] = geomean(values)
        else:
            metrics[name] = sum(values) / len(values)
    traces = phase.traces
    wall = sum(t.wall for t in traces)
    for layer in EPISODE_LAYERS:
        total = sum(t.seconds[layer] for t in traces)
        metrics[layer] = total / len(traces) * 1e3 if traces else 0.0
    metrics["mssp.unattributed_frac"] = (
        sum(t.unattributed for t in traces) / wall if traces else 0.0
    )
    # The traced pass alternates traced and untraced rounds; compare
    # their rates.  Serve attaches no tracer (its layers come from stamps
    # the server always records), so it has no overhead.
    metrics["trace.overhead_frac"] = 0.0
    if traces:
        rates = []
        for traced in (True, False):
            lat = [x for x, t in zip(phase.latencies, phase.traced)
                   if t is traced]
            rates.append(len(lat) / sum(lat))
        metrics["trace.overhead_frac"] = 1 - rates[0] / rates[1]
    metrics.update(phase.serve or dict.fromkeys(SERVE_METRICS, 0.0))
    return metrics


# -- one run ------------------------------------------------------------------


@contextmanager
def cache_root():
    """A scratch directory under ``out/`` for the artifact caches the
    server writes, removed afterwards: a run writes nothing else."""
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    saved = os.environ.get("REPRO_BENCH_CACHE")
    try:
        yield tmp
    finally:
        if saved is None:
            os.environ.pop("REPRO_BENCH_CACHE", None)
        else:
            os.environ["REPRO_BENCH_CACHE"] = saved
        shutil.rmtree(tmp, ignore_errors=True)


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, quick: bool = False
) -> dict:
    """Set up and measure one workload; the JSON result a run prints."""
    workload = WORKLOADS[name]
    scale = workload.scale * (QUICK_SCALE if quick else 1.0)
    min_ops = QUICK_OPS if quick else MIN_OPS
    reps = 1 if traced or quick else SETUP_REPS
    spec = load_spec()
    with cache_root() as tmp:
        samples = staged_setup(workload, seed, scale) if traced else {}
        setups: List[float] = []
        session: Optional[Session] = None
        try:
            for rep in range(reps):
                if session is not None:
                    session.close()
                # A fresh artifact cache per set-up, so every one is cold.
                os.environ["REPRO_BENCH_CACHE"] = str(tmp / f"cache-{rep}")
                session = open_session(workload, seed, scale)
                setups.append(session.setup_s)
            if workload.kind == "serve":
                phase = measure_serve(session, seconds, min_ops)
            else:
                op = (cold_op if workload.kind == "cold" else warm_op)(session)
                phase = measure_closed(
                    op, seconds, min_ops, traced, len(workload.programs)
                )
        finally:
            if session is not None:
                session.close()
    if traced:
        values = per_layer(phase, samples)
        declared = spec["per_layer"]
    else:
        values = end_to_end(
            phase, session.subjects, sorted(setups)[len(setups) // 2],
            0 if quick else MIN_BEYOND,
        )
        declared = spec["end_to_end"]
    names = [metric["name"] for metric in declared]
    if set(values) != set(names):
        raise RuntimeError(
            f"metrics {sorted(values)} do not match BENCHMARK.json {names}"
        )
    return {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
            for metric in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and op counts (smoke test)")
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    print(json.dumps(result))
    return 0
