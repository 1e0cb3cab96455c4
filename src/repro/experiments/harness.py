"""Experiment harness: the full MSSP evaluation pipeline for one workload.

The pipeline mirrors the paper's methodology:

1. run the workload's *training* inputs under the profiler;
2. distill the program with the merged training profile;
3. run the *evaluation* input (a different seed) under the MSSP engine,
   checking equivalence against sequential execution as we go;
4. replay the trace through the timing model and compute speedups.

:func:`prepare` does steps 1-2 (the expensive, reusable part);
:func:`evaluate` does steps 3-4 for a given machine configuration.
Benchmarks sweep configurations by calling :func:`evaluate` repeatedly
on one prepared workload.

The evaluation input's two standalone counts — its sequential length
and loads, and the distilled program's length — are not part of
:func:`prepare`: a :class:`PreparedWorkload` runs each pass on the first
read of a count and keeps the result, so a caller that only builds and
runs an engine (a serve cold request, a one-shot episode) pays for
neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.config import (
    BaselineConfig,
    DistillConfig,
    MsspConfig,
    SEQUENTIAL_BASELINE,
    TimingConfig,
)
from repro.distill import DistillationResult, Distiller
from repro.errors import MsspError
from repro.formal.refinement import assert_jumping_refinement
from repro.machine.decoded import resolve_exec_tier
from repro.machine.interpreter import count_instructions_and_loads
from repro.mssp import MsspResult, create_engine
from repro.profiling import Profile
from repro.timing import TimingBreakdown, baseline_cycles, simulate_mssp
from repro.workloads.base import WorkloadInstance, WorkloadSpec

#: Step budget for workload-scale runs.
RUN_LIMIT = 20_000_000


@dataclass
class PreparedWorkload:
    """A workload after profiling and distillation (steps 1-2).

    ``seq_instrs``, ``seq_loads`` and ``distilled_instrs`` are computed
    on first read, each pass at most once per instance, with
    ``max_steps=RUN_LIMIT``: an evaluation input longer than
    :data:`RUN_LIMIT` raises
    :class:`~repro.errors.StepLimitExceeded` at the first read of a
    count, not in :func:`prepare` (an engine's run is bounded by its own
    ``max_total_instrs``).  The computed values are not fields, so they
    stay out of equality and repr, and an instance pickles with whatever
    it has computed.
    """

    instance: WorkloadInstance
    profile: Profile
    distillation: DistillationResult
    #: The distiller configuration used for step 2, kept so adaptive
    #: re-distillation (:mod:`repro.mssp.redistill`) re-runs the same
    #: distiller the offline artifact came from.
    distill_config: Optional[DistillConfig] = None

    @property
    def name(self) -> str:
        return self.instance.name

    @property
    def seq_instrs(self) -> int:
        """Dynamic length of the evaluation input under the original
        program."""
        return self._sequential_counts[0]

    @property
    def seq_loads(self) -> int:
        """Memory loads in the sequential evaluation run (for
        memory-aware baseline cycle accounting)."""
        return self._sequential_counts[1]

    @cached_property
    def distilled_instrs(self) -> int:
        """Dynamic length of the *distilled* program on the evaluation
        input (fork executes as nop), the paper's
        distillation-effectiveness numerator."""
        return distilled_dynamic_length(
            self.distillation, self.instance.program, max_steps=RUN_LIMIT
        )

    @cached_property
    def _sequential_counts(self) -> Tuple[int, int]:
        return count_instructions_and_loads(
            self.instance.program, max_steps=RUN_LIMIT
        )

    @property
    def distillation_ratio(self) -> float:
        """Dynamic distilled / original instructions (lower = better)."""
        return self.distilled_instrs / self.seq_instrs


@dataclass
class EvaluationRow:
    """One workload × one machine configuration."""

    name: str
    seq_instrs: int
    mssp: MsspResult
    breakdown: TimingBreakdown
    baseline: BaselineConfig = SEQUENTIAL_BASELINE
    seq_loads: int = 0

    @property
    def baseline_cycles(self) -> float:
        return baseline_cycles(self.seq_instrs, self.baseline, self.seq_loads)

    @property
    def speedup(self) -> float:
        return self.baseline_cycles / self.breakdown.total_cycles

    @property
    def counters(self):
        return self.mssp.counters

    def summary(self) -> Dict[str, float]:
        out = {
            "speedup": self.speedup,
            "cycles": self.breakdown.total_cycles,
            "baseline_cycles": self.baseline_cycles,
        }
        out.update(self.counters.summary())
        return out


def prepare(
    spec: WorkloadSpec,
    size: Optional[int] = None,
    distill_config: Optional[DistillConfig] = None,
    profile_source: str = "train",
) -> PreparedWorkload:
    """Profile and distill one workload.

    ``profile_source`` selects the training methodology (E13 studies it):

    * ``"train"`` — all training inputs, merged (the default; the
      paper's train/ref discipline);
    * ``"single"`` — only the first training input (a weaker profile:
      value specialization can latch onto input-specific accidents);
    * ``"eval"`` — the evaluation input itself (the self-profiling
      oracle: the best any profile can do).
    """
    instance = spec.instance(size)
    profile = _profile_for(instance, profile_source)
    distillation = Distiller(distill_config).distill(
        instance.program, profile
    )
    return PreparedWorkload(
        instance=instance, profile=profile, distillation=distillation,
        distill_config=distill_config,
    )


def distilled_dynamic_length(
    distillation: DistillationResult,
    eval_program,
    max_steps: int = RUN_LIMIT,
) -> int:
    """Dynamic length of the distilled program on the evaluation input.

    Runs the distilled binary standalone in master mode (forks are
    no-ops, ``jr`` targets translate through the pc map's jr table) —
    the numerator of the paper's distillation-effectiveness metric —
    on the execution tier ``REPRO_EXEC`` selects, as the sequential
    count does.
    """
    from repro.machine.state import ArchState
    from repro.mssp.master import Master

    master = Master(
        distillation.distilled.with_memory(eval_program.memory),
        MsspConfig(),
        jr_table=distillation.pc_map.jr_table,
        tier=resolve_exec_tier(),
    )
    boot = ArchState(mem=eval_program.memory, pc=0)
    return master.run_standalone(boot, max_steps=max_steps)


def training_profile(instance: WorkloadInstance) -> Profile:
    """The merged training-input profile for ``instance``.

    The standalone entry point for tools (``repro lint``, tests) that
    need the same profile :func:`prepare` would use without distilling.
    """
    return _profile_for(instance, "train")


def _profile_for(instance: WorkloadInstance, source: str) -> Profile:
    from repro.profiling import profile_program

    if source == "eval":
        return profile_program(instance.program, max_steps=RUN_LIMIT)
    if source == "single":
        programs = instance.train_programs[:1]
    elif source == "train":
        programs = instance.train_programs
    else:
        raise MsspError(f"unknown profile_source {source!r}")
    merged = None
    for program in programs:
        current = profile_program(program, max_steps=RUN_LIMIT)
        merged = current if merged is None else merged.merge(current)
    if merged is None:
        raise MsspError("workload has no training inputs")
    return merged


def parallel_map(fn, items, jobs: int = 1) -> list:
    """Map ``fn`` over ``items``, optionally across worker processes.

    ``jobs <= 1`` runs inline (no pool, no pickling requirements).  With
    more jobs, ``fn`` and each item must be picklable (module-level
    function, plain-data arguments); results come back in input order.
    Workers share nothing in memory — pipelines that want reuse across
    workers must go through the persistent artifact cache
    (:mod:`repro.experiments.cache`), which is safe under concurrent
    writers (atomic replace).
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:  # pragma: no cover - ancient/embedded pythons
        BrokenProcessPool = OSError
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            return list(pool.map(fn, items))
    except (ImportError, NotImplementedError, OSError, PermissionError,
            BrokenProcessPool):
        # Sandboxed environments may forbid subprocesses entirely; the
        # serial path computes the same values, just slower.
        return [fn(item) for item in items]


def evaluate(
    prepared: PreparedWorkload,
    mssp_config: Optional[MsspConfig] = None,
    timing_config: Optional[TimingConfig] = None,
    baseline: BaselineConfig = SEQUENTIAL_BASELINE,
    check: bool = True,
) -> EvaluationRow:
    """Run MSSP on the evaluation input and time the trace."""
    engine = create_engine(
        prepared.instance.program, prepared.distillation,
        config=mssp_config,
    )
    try:
        if mssp_config is not None and mssp_config.redistill_threshold:
            engine.enable_adaptation(
                prepared.profile, distill_config=prepared.distill_config
            )
        result = engine.run_and_check() if check else engine.run()
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    if check:
        assert_jumping_refinement(prepared.instance.program, result)
    breakdown = simulate_mssp(result, timing_config)
    return EvaluationRow(
        name=prepared.name,
        seq_instrs=prepared.seq_instrs,
        mssp=result,
        breakdown=breakdown,
        baseline=baseline,
        seq_loads=prepared.seq_loads,
    )
