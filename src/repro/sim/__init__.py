"""Trace-driven simulation of MSSP at scales this host can't run.

The package replays *captured* EventBus traces (real runs,
real measured task costs) under simulated cluster configurations — 8/16/
64 slaves, checkpoint-transfer contention, heterogeneous slave speeds,
mid-episode slave failure/restart — all timed by the one timing model,
:class:`~repro.timing.simulator.MsspTimingSimulator`:

* :mod:`repro.sim.tracefile` — JSONL export/import of captured
  ``EventLog`` streams (``repro trace``).
* :mod:`repro.sim.bench` — the ``repro sim`` sweep: speedup curves over
  slave counts plus contention/heterogeneity/failure scenarios, written
  to ``BENCH_summary.json`` as the ``sim_bench`` section.
"""

from repro.sim.tracefile import export_events, import_events

__all__ = [
    "export_events",
    "import_events",
]
