"""Configuration dataclasses for the distiller, the MSSP engine and the
timing model.

Defaults are chosen to land in the regimes the MICRO 2002 evaluation
explores: tasks of a few hundred dynamic instructions, distillation
aggressive enough to remove most cold/biased code but conservative enough
to keep live-in misprediction rates low, and a CMP with one fast master
plus several slower slaves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Tuple

from repro.errors import DistillError, TimingError

#: Slave-execution backends ``MsspConfig.runtime`` names; see
#: :class:`MsspConfig`.
RUNTIME_CHOICES = ("eager", "process")


@dataclass(frozen=True)
class DistillConfig:
    """Knobs of the offline distiller.

    ``branch_bias_threshold`` — a conditional branch is converted to an
    assertion (removed or made unconditional) when its dominant direction
    accounts for at least this fraction of its executions.

    ``cold_threshold`` — blocks whose execution share of the training run
    is at most this fraction are deleted from the distilled program
    (0.0 deletes only never-executed blocks).

    ``target_task_size`` — desired dynamic instructions per task; fork
    placement selects anchors so the expected inter-fork distance
    approximates it.

    ``verify_after_each_pass`` — debug mode: run the static IR checker
    (:mod:`repro.analysis.checker`) after every pass and the artifact
    checker after layout, raising :class:`~repro.errors.CheckFailure`
    the moment a pass breaks an invariant.  Off by default (the checks
    are cheap but not free); ``repro lint`` and the property-test suite
    turn it on.
    """

    target_task_size: int = 150
    max_anchors: int = 64
    branch_bias_threshold: float = 0.995
    min_branch_count: int = 16
    cold_threshold: float = 0.0
    value_spec_min_count: int = 8
    value_spec_min_share: float = 1.0
    store_elim_min_count: int = 4
    enable_branch_removal: bool = True
    enable_cold_code: bool = True
    enable_value_spec: bool = True
    enable_store_elim: bool = True
    enable_dce: bool = True
    enable_jump_threading: bool = True
    verify_after_each_pass: bool = False

    def __post_init__(self) -> None:
        if self.target_task_size < 2:
            raise DistillError("target_task_size must be at least 2")
        if not 0.5 <= self.branch_bias_threshold <= 1.0:
            raise DistillError("branch_bias_threshold must be in [0.5, 1.0]")
        if not 0.0 <= self.cold_threshold < 1.0:
            raise DistillError("cold_threshold must be in [0.0, 1.0)")
        if self.max_anchors < 1:
            raise DistillError("max_anchors must be at least 1")

    def without_pass(self, name: str) -> "DistillConfig":
        """A copy with one pass disabled (for ablation studies).

        ``name`` is one of ``branch_removal``, ``cold_code``,
        ``value_spec``, ``dce``, ``jump_threading``.
        """
        flag = f"enable_{name}"
        if not hasattr(self, flag):
            raise DistillError(f"unknown distillation pass {name!r}")
        return replace(self, **{flag: False})


@dataclass(frozen=True)
class MsspConfig:
    """Knobs of the (functional) MSSP engine.

    These bound speculation so that arbitrary master misbehaviour —
    including infinite loops in the distilled program — cannot prevent
    forward progress: exceeding any bound is treated as a misspeculation
    and triggers non-speculative recovery.

    ``protected_regions`` marks half-open address ranges ``[start, end)``
    as non-idempotent (memory-mapped I/O): speculative execution aborts
    before touching them, and only non-speculative recovery may access
    them — exactly once each, in program order.

    ``runtime`` selects the slave-execution backend: ``"eager"``
    executes every task inline in commit order (the functional reference
    model); ``"process"`` pipelines the master ahead of ``num_slaves``
    forked worker processes.  ``None`` defers to the ``REPRO_RUNTIME``
    environment variable (default eager), mirroring
    ``exec_tier``/``REPRO_EXEC``.  Both backends produce bit-identical
    :class:`~repro.mssp.engine.MsspResult`\\ s; see
    :mod:`repro.mssp.runtime`.
    """

    #: Hard cap on one task's dynamic length at a slave.
    max_task_instrs: int = 20_000
    #: Non-idempotent address ranges; see class docstring.
    protected_regions: Tuple[Tuple[int, int], ...] = ()
    #: Dual-mode throttling: when the squash fraction over the last
    #: ``throttle_window`` tasks reaches ``throttle_threshold``, the
    #: engine reverts to sequential execution for ``throttle_chunk``
    #: instructions before re-enabling speculation.  ``None`` disables
    #: throttling (the formal model's pure-speculation behaviour).
    throttle_threshold: Optional[float] = None
    throttle_window: int = 16
    throttle_chunk: int = 2_000
    #: What the master ships with each fork:
    #: ``"cumulative"`` — every memory value it has written since its
    #: last restart (the conservative reading of the paper: "values
    #: modified by the master"); ``"delta"`` — only values written since
    #: the previous fork, relying on slaves reading older values from
    #: architected state (the paper's bandwidth-saving refinement).
    checkpoint_mode: str = "cumulative"
    #: Hard cap on master instructions between two forks.
    max_master_instrs_per_task: int = 20_000
    #: Hard cap on tasks the master may run ahead (checkpoint buffer
    #: size).  The process runtime's run-ahead window grows on commits
    #: and halves on squashes below it
    #: (:class:`~repro.mssp.runtime.pipeline.RunAheadWindow`).
    max_inflight_tasks: int = 64
    #: Upper bound on one recovery episode (safety net only).
    recovery_max_instrs: int = 1_000_000
    #: Global safety valve on total committed instructions.
    max_total_instrs: int = 200_000_000
    #: Opt-in engine assertion: cross-check every squash cause against
    #: the statically predicted unsound sites of the distillation (see
    #: :func:`repro.analysis.checker.predicted_squash_reasons`).  A
    #: squash the static analysis says cannot happen raises
    #: :class:`~repro.errors.MsspError` instead of being silently
    #: recovered from.  Requires a full DistillationResult (the
    #: prediction reads the distiller's pass statistics).
    assert_static_soundness: bool = False
    #: Slave-execution backend; see class docstring.  ``None`` defers
    #: to ``REPRO_RUNTIME``; an explicit ``"eager"`` is immune to it.
    runtime: Optional[str] = None
    #: Execution tier for the interpretation loops (master, slaves,
    #: recovery): ``"oracle"`` steps all three through
    #: ``semantics.execute`` and ``"decoded"`` runs them on the
    #: pre-decoded chains.  ``None`` defers to the ``REPRO_EXEC``
    #: environment variable (default: decoded).  Both tiers are
    #: bit-identical; see docs/performance.md.
    exec_tier: Optional[str] = None
    #: Worker processes backing the process runtime's slave pool.
    num_slaves: int = 4
    #: Upper bound on tasks batched per pool dispatch in the process
    #: runtime (amortizes per-dispatch cost over several small tasks).
    #: The chunk follows the run-ahead window, two chunks per worker:
    #: ``window // (2 * num_slaves)``, clamped to
    #: ``1..parallel_chunk_tasks``; the window starts at
    #: ``min(max_inflight_tasks, 2 * num_slaves * parallel_chunk_tasks)``.
    parallel_chunk_tasks: int = 16
    #: Static verify fast path over the speculation-safety prover's
    #: report (:mod:`repro.analysis.specsafe`): ``"skip"`` skips the
    #: value compare for statically PROVEN register live-ins, ``"check"``
    #: compares everything and escalates a mismatch on a PROVEN register
    #: to a hard :class:`~repro.errors.CheckFailure` (the differential
    #: soundness cross-check), ``"off"`` disables the report entirely.
    #: All three modes produce bit-identical results when the analysis
    #: is sound — ``skip`` merely avoids compares that cannot fail.
    static_safety: str = "skip"
    #: Live-in value prediction (:mod:`repro.mssp.predict`): ``"off"``
    #: disables the predictor bank; ``"last"``/``"stride"``/``"context"``
    #: enable one predictor kind; ``"auto"`` runs a per-cell tournament
    #: and overrides with whichever kind has trained best; ``"observe"``
    #: trains and reports statistics but never overrides a checkpoint
    #: (used by ``repro analyze`` to annotate squash-risk tables).
    #: Predictions only patch fork checkpoints for UNPROVEN live-in
    #: register cells, and only once the master has been consecutively
    #: wrong about the cell ``predict_miss_gate`` times — so on
    #: workloads the master predicts correctly the gate never opens and
    #: results are bit-identical to ``"off"``.  Verify/squash is
    #: unchanged as the correctness backstop.
    predictors: str = "off"
    #: Consecutive identical-outcome training observations required
    #: before a cell predictor is confident enough to override.
    predict_confidence: int = 3
    #: Consecutive master mispredictions of a cell required before the
    #: predictor may override it (the bit-identity gate; see above).
    predict_miss_gate: int = 2
    #: Squash-driven online re-distillation threshold: once a single
    #: fork region has accumulated this many live-in misprediction
    #: squashes, the :class:`~repro.mssp.redistill.Redistiller` folds the
    #: observed values into the training profile and re-distills the
    #: master mid-run (requires :meth:`MsspEngine.enable_adaptation`).
    #: ``None`` disables re-distillation.
    redistill_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (
            "max_task_instrs", "max_master_instrs_per_task",
            "max_inflight_tasks", "recovery_max_instrs", "max_total_instrs",
            "throttle_window", "throttle_chunk", "num_slaves",
            "parallel_chunk_tasks",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.throttle_threshold is not None and not (
            0.0 < self.throttle_threshold <= 1.0
        ):
            raise ValueError("throttle_threshold must be in (0, 1]")
        if self.checkpoint_mode not in ("cumulative", "delta"):
            raise ValueError(
                "checkpoint_mode must be 'cumulative' or 'delta'"
            )
        if self.runtime is not None and self.runtime not in RUNTIME_CHOICES:
            raise ValueError(
                f"runtime must be None or one of {RUNTIME_CHOICES}"
            )
        if self.exec_tier not in (None, "oracle", "decoded"):
            raise ValueError("exec_tier must be None, 'oracle' or 'decoded'")
        if self.static_safety not in ("off", "skip", "check"):
            raise ValueError(
                "static_safety must be 'off', 'skip' or 'check'"
            )
        if self.predictors not in (
            "off", "last", "stride", "context", "auto", "observe"
        ):
            raise ValueError(
                "predictors must be 'off', 'last', 'stride', 'context', "
                "'auto' or 'observe'"
            )
        for name in ("predict_confidence", "predict_miss_gate"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.redistill_threshold is not None and self.redistill_threshold < 1:
            raise ValueError("redistill_threshold must be positive (or None)")

    def with_adaptation(
        self,
        predictors: str = "auto",
        redistill_threshold: Optional[int] = 2,
    ) -> "MsspConfig":
        """A copy with the adaptive prediction loop enabled: live-in
        value predictors plus squash-driven online re-distillation
        (``repro bench``'s "adaptive" stage and the CLI ``--adaptive``
        flag both use these defaults)."""
        return replace(
            self,
            predictors=predictors,
            redistill_threshold=redistill_threshold,
        )


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the persistent multi-tenant episode server
    (:mod:`repro.serve`).

    The server multiplexes a stream of episode requests from many
    tenants onto one shared warm worker fleet.  Admission control
    mirrors the master-dispatches-to-loaded-nodes idiom: an arriving
    request goes to the least-loaded worker with free capacity; when
    every worker is saturated it queues (``admission="wait"``) up to
    ``max_queue_depth`` entries, beyond which — or immediately, under
    ``admission="shed"`` — it is rejected with a typed
    :class:`~repro.serve.server.ServerBusy` response.

    ``worker_capacity`` is the number of episodes a worker may hold
    (running plus assigned) at once; the RT004 lint check audits that
    the recorded event stream never exceeds it.  ``max_batch`` bounds
    how many *compatible* queued requests (same program digest and
    engine configuration) a worker folds into one service turn on the
    already-acquired warm engine instead of round-tripping the
    scheduler per episode.
    """

    workers: int = 2
    worker_capacity: int = 4
    max_queue_depth: int = 32
    admission: str = "wait"
    max_batch: int = 4
    #: Workload names pre-distilled and pre-run at server start so the
    #: first tenant request is not a cold-compile outlier.
    warmup: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("workers", "worker_capacity", "max_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative")
        if self.admission not in ("wait", "shed"):
            raise ValueError("admission must be 'wait' or 'shed'")


@dataclass(frozen=True)
class SlaveFailure:
    """One slave outage: ``slot`` is down for ``[at, at + downtime)``.

    Execution in progress on the slot pauses across the outage and
    resumes where it left off (restart-with-checkpoint); work dispatched
    during the outage waits for the restart.
    """

    slot: int
    at: float
    downtime: float

    @property
    def end(self) -> float:
        return self.at + self.downtime


@dataclass(frozen=True)
class TimingConfig:
    """Parameters of the task-level timing model.

    Cycle accounting is abstract (repro band: toy fidelity): each core
    retires instructions at a fixed CPI, and the MSSP-specific overheads
    are flat latencies.  ``master_cpi`` defaults below ``slave_cpi``
    because the paper's master is the wide complex core while slaves are
    simple cores.  :meth:`master_time`, :meth:`slave_time` and
    :meth:`transfer_time` are the prices the timing model charges, and
    :meth:`calibrate` rescales them into the measured seconds domain.
    """

    n_slaves: int = 8
    master_cpi: float = 0.5
    slave_cpi: float = 1.0
    #: Extra cycles per memory load, charged to master, slaves and
    #: recovery alike.  0.0 (the default) is the uniform-CPI model; the
    #: memory-sensitivity experiment (E12) raises it to expose the value
    #: of distillation passes that remove loads (value specialization).
    load_penalty: float = 0.0
    #: Checkpoint-buffer depth: the master may run at most this many
    #: uncommitted tasks ahead of the verify/commit unit.  ``None``
    #: leaves run-ahead bounded only by slave availability.
    max_inflight: Optional[int] = None
    #: Checkpoint construction + transfer to a slave (cycles, flat part).
    spawn_latency: float = 30.0
    #: Additional transfer cost per checkpoint word (registers + dirty
    #: memory), modelling master-to-slave bandwidth.
    checkpoint_word_latency: float = 0.0
    #: Verify + atomic commit of one task (cycles, serialized in order).
    commit_latency: float = 10.0
    #: Squash detection + master restart penalty (cycles).
    squash_penalty: float = 60.0
    #: Seeding a processor from architected state after squash (cycles).
    restart_latency: float = 30.0
    #: Concurrent checkpoint transfers the master-to-slave link carries
    #: (0 = unlimited); a bounded link queues transfers in fork order.
    link_channels: int = 0
    #: Relative execution speed per slave slot (missing slots run at
    #: 1.0; 0.5 = half speed).
    slave_speeds: Tuple[float, ...] = ()
    #: Mid-episode slave outages.
    failures: Tuple[SlaveFailure, ...] = ()

    def __post_init__(self) -> None:
        if self.n_slaves < 1:
            raise TimingError("n_slaves must be at least 1")
        for name in ("master_cpi", "slave_cpi"):
            if getattr(self, name) <= 0:
                raise TimingError(f"{name} must be positive")
        for name in (
            "spawn_latency", "commit_latency", "squash_penalty",
            "restart_latency", "checkpoint_word_latency", "load_penalty",
        ):
            if getattr(self, name) < 0:
                raise TimingError(f"{name} must be non-negative")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise TimingError("max_inflight must be positive (or None)")
        if self.link_channels < 0:
            raise TimingError("link_channels must be >= 0 (0 = unlimited)")
        if any(speed <= 0 for speed in self.slave_speeds):
            raise TimingError("slave speeds must be positive")
        if any(
            f.slot < 0 or f.slot >= self.n_slaves or f.at < 0
            or f.downtime < 0
            for f in self.failures
        ):
            raise TimingError(
                "failures need a slot in range and non-negative times"
            )

    def master_time(self, n_instrs: int, n_loads: int = 0) -> float:
        """Master-side cost of distilling/forking one task."""
        return n_instrs * self.master_cpi + n_loads * self.load_penalty

    def slave_time(self, n_instrs: int, n_loads: int = 0) -> float:
        """Slave-side cost of executing one task's original code."""
        return n_instrs * self.slave_cpi + n_loads * self.load_penalty

    def transfer_time(self, checkpoint_words: int) -> float:
        """Cost of shipping one fork checkpoint to a slave."""
        return (
            self.spawn_latency
            + checkpoint_words * self.checkpoint_word_latency
        )

    def scaled_latencies(self, factor: float) -> "TimingConfig":
        """A copy with all interconnect latencies scaled by ``factor``."""
        if factor < 0:
            raise TimingError("latency scale factor must be non-negative")
        return replace(
            self,
            spawn_latency=self.spawn_latency * factor,
            commit_latency=self.commit_latency * factor,
            squash_penalty=self.squash_penalty * factor,
            restart_latency=self.restart_latency * factor,
            checkpoint_word_latency=self.checkpoint_word_latency * factor,
        )

    @classmethod
    def calibrate(
        cls, events: Iterable, base: Optional["TimingConfig"] = None
    ) -> "TimingConfig":
        """Fit the pricing from measured per-task costs on a stamped trace.

        ``task_executed`` events carry the measured wall-seconds the
        chunk worker spent executing each task (``cost``) alongside the
        task's dynamic instruction count.  The ratio gives a measured
        seconds-per-instruction slave rate; every rate and latency of
        ``base`` (default: ``TimingConfig()``) is scaled by the same
        factor, so the whole model lands in the seconds domain with its
        internal ratios preserved.

        Raises ``ValueError`` when the trace carries no measurable
        execution costs (e.g. every cost rounded to zero).
        """
        base = base or cls()
        total_seconds = 0.0
        total_instrs = 0
        for event in events:
            if getattr(event, "kind", None) != "task_executed":
                continue
            cost = float(getattr(event, "cost", 0.0) or 0.0)
            task = getattr(event, "task", None)
            n_instrs = int(getattr(task, "n_instrs", 0) or 0)
            if cost > 0.0 and n_instrs > 0:
                total_seconds += cost
                total_instrs += n_instrs
        if total_instrs <= 0 or total_seconds <= 0.0:
            raise ValueError(
                "trace carries no measured task execution costs; "
                "capture it with an instrumented runtime"
            )
        factor = total_seconds / total_instrs / base.slave_cpi
        return replace(
            base.scaled_latencies(factor),
            master_cpi=base.master_cpi * factor,
            slave_cpi=base.slave_cpi * factor,
            load_penalty=base.load_penalty * factor,
        )


@dataclass(frozen=True)
class BaselineConfig:
    """A non-MSSP reference machine for speedup denominators."""

    name: str = "in-order"
    cpi: float = 1.0
    #: Extra cycles per memory load (see TimingConfig.load_penalty).
    load_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.cpi <= 0:
            raise TimingError("cpi must be positive")
        if self.load_penalty < 0:
            raise TimingError("load_penalty must be non-negative")


#: The paper-style single in-order core all speedups are measured against.
SEQUENTIAL_BASELINE = BaselineConfig(name="in-order", cpi=1.0)

#: An idealized wider out-of-order core (E9's comparison point).
OOO_BASELINE = BaselineConfig(name="ooo-4wide", cpi=0.45)
