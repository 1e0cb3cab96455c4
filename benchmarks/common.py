"""Shared infrastructure for the experiment benchmarks (E1-E9).

Conventions:

* each ``bench_eN_*.py`` module reproduces one table/figure of the
  (reconstructed) MICRO-2002 evaluation and prints the same rows the
  paper reports;
* expensive pipeline stages (profile → distill → MSSP functional run)
  are cached per (workload content, size, distiller config, engine
  config) in the **persistent** artifact cache under
  ``benchmarks/cache/`` (see :mod:`repro.experiments.cache`), so a
  second invocation of any benchmark — same process or not — replays
  from disk instead of re-simulating; timing-only sweeps (slave count,
  latency, baselines) then replay one functional run many times;
* every table is also written to ``benchmarks/out/<experiment>.txt`` so
  results survive pytest's output capturing;
* the tables are the paper's, so the helpers below distill at
  :data:`~repro.config.PAPER_TASK_SIZE` (:data:`PAPER_DISTILL`) when
  given no distiller configuration, not at the engine's default; an
  experiment that varies the distiller starts from
  :data:`PAPER_DISTILL`.

Scale: set the ``REPRO_BENCH_SCALE`` environment variable (a float,
default 1.0) to shrink or grow workload sizes uniformly.  Point
``REPRO_BENCH_CACHE`` elsewhere (or at ``off``) to redirect or disable
the persistent cache.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.config import (
    PAPER_TASK_SIZE,
    DistillConfig,
    MsspConfig,
    TimingConfig,
)
from repro.experiments import bench
from repro.experiments.harness import (
    EvaluationRow,
    PreparedWorkload,
)
from repro.mssp.engine import MsspResult
from repro.stats import Table
from repro.timing import simulate_mssp
from repro.workloads import REPRESENTATIVE, WORKLOADS, get_workload

OUT_DIR = Path(__file__).parent / "out"

#: All suite workloads in registry order.
SUITE = tuple(WORKLOADS)

#: The sweep subset (see repro.workloads.registry.REPRESENTATIVE).
SWEEP_SUITE = REPRESENTATIVE

#: The distiller configuration every experiment table is built from.
PAPER_DISTILL = DistillConfig(target_task_size=PAPER_TASK_SIZE)


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_size(name: str, scale: Optional[float] = None) -> int:
    """Workload size used by the benchmarks (scaled default)."""
    scale = bench_scale() if scale is None else scale
    return max(4, int(get_workload(name).default_size * scale))


#: In-process memo layered over the persistent cache (avoids repeated
#: unpickling within one benchmark process).
_MEMO: Dict[Tuple, object] = {}

#: Set by the most recent prepared()/functional_run() call: True when the
#: artifact came from a cache (memo or disk) rather than a fresh run.
LAST_CACHE_HIT: bool = False


def prepared(
    name: str,
    size: Optional[int] = None,
    distill_config: Optional[DistillConfig] = None,
) -> PreparedWorkload:
    """Cached profile+distill for one workload configuration.

    Persistently cached: hits survive across processes via
    ``benchmarks/cache/`` (see :mod:`repro.experiments.bench`).
    """
    global LAST_CACHE_HIT
    resolved = size if size is not None else bench_size(name)
    distill_config = distill_config or PAPER_DISTILL
    memo_key = ("prepared", name, resolved, distill_config)
    if memo_key in _MEMO:
        LAST_CACHE_HIT = True
        return _MEMO[memo_key]
    ready, hit = bench.cached_prepare(
        name, size=resolved, distill_config=distill_config
    )
    LAST_CACHE_HIT = hit
    _MEMO[memo_key] = ready
    return ready


def functional_run(
    name: str,
    size: Optional[int] = None,
    distill_config: Optional[DistillConfig] = None,
    mssp_config: Optional[MsspConfig] = None,
) -> Tuple[PreparedWorkload, MsspResult]:
    """Cached equivalence-checked MSSP run (the expensive stage)."""
    global LAST_CACHE_HIT
    resolved = size if size is not None else bench_size(name)
    distill_config = distill_config or PAPER_DISTILL
    memo_key = ("functional", name, resolved, distill_config, mssp_config)
    if memo_key in _MEMO:
        LAST_CACHE_HIT = True
        return _MEMO[memo_key]
    ready, result, hit = bench.cached_functional_run(
        name, size=resolved, distill_config=distill_config,
        mssp_config=mssp_config,
    )
    LAST_CACHE_HIT = hit
    _MEMO[memo_key] = (ready, result)
    return ready, result


def timed_row(
    name: str,
    timing_config: Optional[TimingConfig] = None,
    size: Optional[int] = None,
    distill_config: Optional[DistillConfig] = None,
    mssp_config: Optional[MsspConfig] = None,
) -> EvaluationRow:
    """One workload under one machine configuration (cheap replays)."""
    ready, result = functional_run(name, size, distill_config, mssp_config)
    breakdown = simulate_mssp(result, timing_config)
    return EvaluationRow(
        name=name, seq_instrs=ready.seq_instrs, mssp=result,
        breakdown=breakdown, seq_loads=ready.seq_loads,
    )


def report(experiment: str, table: Table) -> str:
    """Print the table and persist it under ``benchmarks/out/``."""
    rendered = table.render()
    print()
    print(rendered)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{experiment}.txt").write_text(rendered + "\n")
    return rendered


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark's timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
