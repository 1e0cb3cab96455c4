"""Task-level timing model and baselines for the MSSP evaluation."""

# clock has no repro-internal imports; it must load first so that
# repro.mssp modules (imported transitively by simulator below) can
# resolve repro.timing.clock without re-entering this package.
from repro.timing.clock import Clock, VirtualClock, WallClock
from repro.timing.simulator import (
    MsspTimingSimulator,
    ScheduleEntry,
    TimingBreakdown,
    baseline_cycles,
    records_from_events,
    simulate_mssp,
    speedup,
)
from repro.timing.timeline import render_timeline, utilization

__all__ = [
    "Clock",
    "VirtualClock",
    "WallClock",
    "MsspTimingSimulator",
    "ScheduleEntry",
    "TimingBreakdown",
    "baseline_cycles",
    "records_from_events",
    "simulate_mssp",
    "speedup",
    "render_timeline",
    "utilization",
]
