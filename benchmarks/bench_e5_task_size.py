"""E5 — sensitivity to task size.

Reproduces the paper's task-granularity study: the distiller re-targets
fork placement at several task sizes and the whole pipeline re-runs.
Small tasks drown in per-task overhead (spawn + commit latency per few
instructions); very large tasks lose parallelism (too few tasks in
flight) and risk overruns.

Expected shape: an inverted U with the knee around ~100-300 instructions
for this machine's overheads (spawn 30 + commit 10 cycles).
"""

import dataclasses

from repro.stats import Table, geomean

from benchmarks.common import (
    PAPER_DISTILL,
    SWEEP_SUITE,
    bench_size,
    report,
    run_once,
    timed_row,
)

TASK_SIZES = (25, 75, 150, 400, 1200)

#: Sweeps re-distill and re-run per point: use reduced workload sizes.
SWEEP_SCALE = 0.5


def run_e5():
    table = Table(
        ["benchmark"] + [f"target {t}" for t in TASK_SIZES],
        title="E5: speedup vs target task size (paper: granularity study)",
    )
    series = {t: [] for t in TASK_SIZES}
    for name in SWEEP_SUITE:
        speedups = []
        for target in TASK_SIZES:
            config = dataclasses.replace(
                PAPER_DISTILL, target_task_size=target
            )
            row = timed_row(
                name,
                size=bench_size(name, scale=SWEEP_SCALE),
                distill_config=config,
            )
            speedups.append(row.speedup)
            series[target].append(row.speedup)
        table.add_row(name, *speedups)
    table.add_row("geomean", *[geomean(series[t]) for t in TASK_SIZES])
    return table, series


def test_e5_task_size(benchmark):
    table, series = run_once(benchmark, run_e5)
    report("e5_task_size", table)
    means = [geomean(series[t]) for t in TASK_SIZES]
    best = max(range(len(TASK_SIZES)), key=lambda i: means[i])
    # The knee is interior: neither the smallest nor the largest size wins.
    assert 0 < best < len(TASK_SIZES) - 1
    # Tiny tasks are clearly overhead-bound relative to the best point.
    assert means[0] < 0.8 * means[best]
