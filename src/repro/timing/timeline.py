"""ASCII timeline (Gantt) rendering of a simulated MSSP execution.

Turns a schedule-bearing :class:`~repro.timing.simulator.TimingBreakdown`
into a terminal picture: one lane for the master, one per slave, one for
the verify/commit unit, and a recovery lane.  Meant for examples,
debugging and documentation — seeing the master running ahead of its
slaves is the fastest way to understand what MSSP buys.

Legend::

    master lane : ==== producing forks   .... stalled
    slave lanes : #### committed task    xxxx squashed task
    commit lane : C at each commit instant
    recovery    : rrrr sequential recovery stretch
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import TimingError
from repro.timing.simulator import TimingBreakdown


def render_timeline(
    breakdown: TimingBreakdown,
    width: int = 100,
    start: float = 0.0,
    end: Optional[float] = None,
) -> str:
    """Render the schedule between cycles ``start`` and ``end``.

    ``width`` is the number of character cells the window is divided
    into; each cell shows what its time slice mostly contained.
    """
    entries = breakdown.schedule
    if width < 1:
        raise TimingError("timeline width must be positive")
    if not entries:
        raise TimingError(
            "breakdown has no schedule; simulate with schedule=True"
        )
    end = breakdown.total_cycles if end is None else end
    if end <= start:
        raise TimingError("timeline window is empty")
    scale = (end - start) / width

    def column(time: float) -> int:
        return min(width - 1, max(0, int((time - start) / scale)))

    def paint(lane: List[str], begin: float, finish: float, char: str) -> None:
        if finish < start or begin > end:
            return
        left = column(max(begin, start))
        right = column(min(finish, end))
        for index in range(left, right + 1):
            lane[index] = char

    slots = 1 + max(
        (e.slot for e in entries if e.kind == "task"), default=0
    )
    master = [" "] * width
    commit = [" "] * width
    recovery = [" "] * width
    slaves = [[" "] * width for _ in range(slots)]

    for entry in entries:
        if entry.kind == "task":
            paint(master, entry.spawn, entry.close, "=")
            char = "#" if entry.committed else "x"
            paint(slaves[entry.slot], entry.start, entry.done, char)
            commit[column(entry.commit)] = "C"
        elif entry.kind == "recovery":
            paint(recovery, entry.start, entry.done, "r")

    lines = [
        f"cycles {start:.0f}..{end:.0f}  ({scale:.1f} cycles/cell)",
        f"{'master':>9} |{''.join(master)}|",
    ]
    for index, lane in enumerate(slaves):
        lines.append(f"{f'slave {index}':>9} |{''.join(lane)}|")
    lines.append(f"{'commit':>9} |{''.join(commit)}|")
    if any(cell != " " for cell in recovery):
        lines.append(f"{'recovery':>9} |{''.join(recovery)}|")
    return "\n".join(lines)


def utilization(breakdown: TimingBreakdown, n_slaves: int) -> float:
    """Fraction of slave-cycles spent executing tasks (busy / capacity)."""
    entries = [e for e in breakdown.schedule if e.kind == "task"]
    if not entries or breakdown.total_cycles <= 0:
        raise TimingError("utilization needs a schedule and nonzero cycles")
    busy = sum(e.done - e.start for e in entries)
    return busy / (breakdown.total_cycles * n_slaves)
