"""E12 — memory-system sensitivity and the value of load removal.

Under the uniform-CPI model a specialized load (``lw`` → ``li``) costs
the master nothing, understating the paper's motivation for value
specialization.  This experiment charges ``load_penalty`` extra cycles
per memory load — on the master, the slaves, the recovery path *and*
the baseline, so comparisons stay fair — and re-measures MSSP speedup
with and without value specialization on the load-heavy workloads.

Expected shape: speedup is roughly load-penalty-neutral when the
distilled and original programs have similar load mixes, but the
workloads whose hot-loop loads the distiller can specialize away (crc's
polynomial) gain visibly as loads get more expensive — and lose that
gain when value specialization is ablated.
"""

import dataclasses

from repro.config import DistillConfig, SEQUENTIAL_BASELINE, TimingConfig
from repro.stats import Table, geomean
from repro.timing import speedup

from benchmarks.common import bench_size, functional_run, report, run_once

SUBJECTS = ("crc", "compress", "pointer_chase", "fib_memo")
LOAD_PENALTIES = (0.0, 1.0, 3.0)
SWEEP_SCALE = 0.5

NO_VSPEC = DistillConfig().without_pass("value_spec")


def _speedup(name, size, penalty, distill_config=None) -> float:
    """MSSP speedup with ``penalty`` cycles per load on both machines."""
    _, result = functional_run(name, size, distill_config)
    return speedup(
        result,
        dataclasses.replace(TimingConfig(), load_penalty=penalty),
        dataclasses.replace(SEQUENTIAL_BASELINE, load_penalty=penalty),
    )


def run_e12():
    table = Table(
        ["benchmark"]
        + [f"full@{p:g}" for p in LOAD_PENALTIES]
        + [f"no-vspec@{LOAD_PENALTIES[-1]:g}"],
        title="E12: speedup vs load penalty (memory-system sensitivity)",
    )
    full_series = {p: [] for p in LOAD_PENALTIES}
    ablated_series = []
    for name in SUBJECTS:
        size = bench_size(name, scale=SWEEP_SCALE)
        speedups = [_speedup(name, size, p) for p in LOAD_PENALTIES]
        for penalty, value in zip(LOAD_PENALTIES, speedups):
            full_series[penalty].append(value)
        ablated = _speedup(name, size, LOAD_PENALTIES[-1], NO_VSPEC)
        ablated_series.append(ablated)
        table.add_row(name, *speedups, ablated)
    table.add_row(
        "geomean",
        *[geomean(full_series[p]) for p in LOAD_PENALTIES],
        geomean(ablated_series),
    )
    return table, full_series, ablated_series


def test_e12_memory(benchmark):
    table, full_series, ablated_series = run_once(benchmark, run_e12)
    report("e12_memory", table)
    worst = LOAD_PENALTIES[-1]
    # With expensive loads, the full distiller beats the no-value-spec
    # ablation (it removed hot-loop loads the ablation kept).
    assert geomean(full_series[worst]) > geomean(ablated_series)
    # And crc — the flagship specialization target — gains from load
    # penalties relative to its ablated self by a visible margin.
    crc_index = SUBJECTS.index("crc")
    assert full_series[worst][crc_index] > ablated_series[crc_index] * 1.03
