"""Markdown report generation for suite runs.

:func:`generate_report` runs the full pipeline over a set of workloads
and renders a self-contained markdown document — per-workload metrics,
machine configuration, and the geomean summary — the artifact a user
checks into their own repository after reproducing the evaluation.
Exposed on the CLI as ``python -m repro report``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.config import (
    DistillConfig,
    MsspConfig,
    OOO_BASELINE,
    TimingConfig,
)
from repro.experiments.harness import EvaluationRow, evaluate, prepare
from repro.stats import geomean
from repro.timing import baseline_cycles
from repro.workloads import WORKLOADS, get_workload


def _machine_section(timing: TimingConfig, distill: DistillConfig) -> List[str]:
    return [
        "## Machine configuration",
        "",
        f"* slaves: {timing.n_slaves} (CPI {timing.slave_cpi}), "
        f"master CPI {timing.master_cpi}",
        f"* latencies (cycles): spawn {timing.spawn_latency:g}, "
        f"commit {timing.commit_latency:g}, squash {timing.squash_penalty:g}, "
        f"restart {timing.restart_latency:g}",
        f"* per-load penalty: {timing.load_penalty:g}, per-checkpoint-word: "
        f"{timing.checkpoint_word_latency:g}",
        f"* distiller: target task size {distill.target_task_size}, "
        f"branch bias threshold {distill.branch_bias_threshold}, "
        f"cold threshold {distill.cold_threshold}",
        "",
    ]


def _row_line(row: EvaluationRow, ratio: float) -> str:
    counters = row.counters
    ooo = baseline_cycles(
        row.seq_instrs, OOO_BASELINE, row.seq_loads
    ) / row.breakdown.total_cycles
    return (
        f"| {row.name} | {row.seq_instrs} | {ratio:.2f} "
        f"| {counters.tasks_committed} | {counters.squash_rate:.3f} "
        f"| {counters.live_in_accuracy:.3f} "
        f"| {row.breakdown.total_cycles:.0f} | {row.speedup:.2f} "
        f"| {ooo:.2f} |"
    )


def generate_report(
    workload_names: Optional[Iterable[str]] = None,
    size_scale: float = 1.0,
    timing: Optional[TimingConfig] = None,
    distill: Optional[DistillConfig] = None,
    mssp: Optional[MsspConfig] = None,
) -> str:
    """Run the pipeline over ``workload_names`` and render markdown."""
    names = list(workload_names) if workload_names else list(WORKLOADS)
    timing = timing or TimingConfig()
    distill = distill or DistillConfig()

    lines: List[str] = [
        "# MSSP reproduction report",
        "",
        "Every row was produced by: profile (training inputs) -> distill "
        "-> MSSP execution with equivalence check against sequential "
        "execution -> timing replay.",
        "",
    ]
    lines.extend(_machine_section(timing, distill))
    lines.extend(
        [
            "## Per-workload results",
            "",
            "| workload | seq instrs | distill ratio | tasks | squash "
            "| live-in acc | cycles | vs in-order | vs ooo |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
    )
    speedups: List[float] = []
    for name in names:
        spec = get_workload(name)
        size = max(4, int(spec.default_size * size_scale))
        prepared = prepare(spec, size=size, distill_config=distill)
        row = evaluate(
            prepared, mssp_config=mssp, timing_config=timing
        )
        speedups.append(row.speedup)
        lines.append(_row_line(row, prepared.distillation_ratio))
    lines.extend(
        [
            "",
            f"**Geomean speedup vs in-order: {geomean(speedups):.2f}x** "
            f"({len(names)} workloads; every run checked equivalent to "
            "sequential execution).",
            "",
        ]
    )
    return "\n".join(lines)
