"""The ``repro sim`` sweep: speedup curves from replayed traces.

Workflow (one call to :func:`run_sim_bench`):

1. run the workload on the real (eager) engine with an ``EventLog``
   subscribed — the captured, clock-stamped trace;
2. time the captured trace with
   :class:`~repro.timing.simulator.MsspTimingSimulator` at each
   requested slave count;
3. time it again under three cluster scenarios: transfer contention on
   a bounded link, heterogeneous slave speeds, and a mid-episode slave
   failure/restart.

The returned dict is the ``sim_bench`` section of
``BENCH_summary.json``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.config import (
    SEQUENTIAL_BASELINE,
    MsspConfig,
    SlaveFailure,
    TimingConfig,
)
from repro.mssp.engine import create_engine
from repro.mssp.runtime.events import EventLog
from repro.mssp.trace import TaskAttemptRecord
from repro.timing.simulator import (
    MsspTimingSimulator,
    baseline_cycles,
    records_from_events,
)

__all__ = ["run_sim_bench"]


def run_sim_bench(
    workload: str = "compress",
    slave_counts: Sequence[int] = (8, 16, 64),
    size: Optional[int] = None,
    mssp_config: Optional[MsspConfig] = None,
    scenarios: bool = True,
) -> dict:
    """Capture and sweep one workload; the ``sim_bench`` row."""
    from repro.experiments import prepare
    from repro.workloads import get_workload

    prepared = prepare(get_workload(workload), size=size)

    # 1. Real run, trace captured off the EventBus.
    log = EventLog()
    eager_config = replace(mssp_config or MsspConfig(), runtime="eager")
    with create_engine(
        prepared.instance.program, prepared.distillation, eager_config
    ) as engine:
        engine.events.subscribe(log)
        eager_result = engine.run()

    records = records_from_events(log.events)
    task_records = [
        r for r in records if isinstance(r, TaskAttemptRecord)
    ]
    total_instrs = eager_result.counters.total_instrs
    reference = baseline_cycles(total_instrs, SEQUENTIAL_BASELINE)

    def timed(timing: TimingConfig):
        """The trace's breakdown under ``timing`` and its speedup."""
        breakdown = MsspTimingSimulator(timing).simulate_records(records)
        cycles = breakdown.total_cycles
        return breakdown, (reference / cycles if cycles > 0 else 0.0)

    # 2. Slave-count sweep.
    sweep: List[dict] = []
    for n_slaves in slave_counts:
        breakdown, speedup = timed(TimingConfig(n_slaves=n_slaves))
        sweep.append({
            "n_slaves": n_slaves,
            "sim_cycles": breakdown.total_cycles,
            "speedup": speedup,
            "master_stall_cycles": breakdown.master_stall_cycles,
            "commit_bound_tasks": breakdown.commit_bound_tasks,
        })

    section = {
        "workload": prepared.name,
        "tasks_replayed": len(task_records),
        "records_replayed": len(records),
        "total_instrs": total_instrs,
        "baseline_cycles": reference,
        "sweep": sweep,
    }

    # 3. Cluster scenarios at the middle slave count.
    if scenarios:
        ideal = sweep[len(slave_counts) // 2]
        mid = ideal["n_slaves"]
        horizon = ideal["sim_cycles"]
        timing = TimingConfig(n_slaves=mid)

        def scenario(name: str, **overrides) -> dict:
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

        section["scenarios"] = [
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
                        slot=0,
                        at=horizon * 0.25,
                        downtime=horizon * 0.25,
                    ),
                ),
            ),
        ]

    return section
