"""The clock seam.

Every layer that needs to tell time does it through a :class:`Clock`:

* :class:`WallClock` — real time (``time.perf_counter``), used by the
  runtime and the serve scheduler.
* :class:`VirtualClock` — a settable clock that only moves when advanced;
  tests inject it to drive time by hand.

Pricing itself lives on :class:`repro.config.TimingConfig`
(``master_time`` / ``slave_time`` / ``transfer_time``, and
``calibrate`` to fit it from measured per-task costs).
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

__all__ = [
    "Clock",
    "WallClock",
    "VirtualClock",
]


@runtime_checkable
class Clock(Protocol):
    """Anything that can report the current time as a float."""

    def now(self) -> float:
        ...


class WallClock:
    """Real time.  ``now()`` is monotonic (``time.perf_counter``)."""

    __slots__ = ()

    def now(self) -> float:
        return time.perf_counter()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "WallClock()"


class VirtualClock:
    """A settable clock, the seam's test double.

    Time only moves when something advances it.  ``advance_to`` never
    moves backwards, so stamped event streams stay monotonic by
    construction.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("cannot advance a clock backwards")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClock(now={self._now!r})"
