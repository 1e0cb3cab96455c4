"""Per-layer attribution from outside the program.

Two sources, both public:

* :class:`EpisodeTrace` subscribes to an engine's ``events`` bus for one
  ``engine.run()`` and splits the episode's wall time into layers by the
  kind of event that *ends* each gap between consecutive clock stamps
  (the event-class decomposition of Mitrevski & Gušev).  A gap ending at
  ``task_forked`` was spent by the master producing that fork, a gap
  ending at a judgement was spent verifying and committing, and so on.
  Whatever no rule claims is reported as unattributed.
* :func:`counts` reads an episode's ``MsspCounters`` and dispatch
  statistics, which are deterministic for a given program and config.
"""

from __future__ import annotations

from typing import Dict

#: Episode layers, in report order; each is milliseconds per episode.
EPISODE_LAYERS = (
    "mssp.master.ms",
    "mssp.slave.ms",
    "mssp.verify.ms",
    "mssp.recovery.ms",
    "mssp.runtime.wait_ms",
    "mssp.runtime.worker_ms",
)

#: The event kind that ends a gap -> the layer that gap belongs to.
_GAP_LAYER = {
    "task_forked": "mssp.master.ms",
    "task_committed": "mssp.verify.ms",
    "task_squashed": "mssp.verify.ms",
    "recovery": "mssp.recovery.ms",
    "result_adopted": "mssp.runtime.wait_ms",
}


class EpisodeTrace:
    """Event-bus subscriber attributing one episode's wall to layers.

    Call :meth:`start` just before ``engine.run()`` and :meth:`stop`
    just after, with the engine's own clock, so the stamps the bus
    writes and the two ends of the episode share one time base.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.seconds: Dict[str, float] = dict.fromkeys(EPISODE_LAYERS, 0.0)
        self.unattributed = 0.0
        self.events = 0
        self.wall = 0.0
        self._start = self._last = 0.0

    def start(self) -> None:
        self._start = self._last = self.clock.now()

    def __call__(self, event) -> None:
        gap = event.at - self._last
        self._last = event.at
        self.events += 1
        kind = event.kind
        if kind == "task_executed":
            # Local execution is timed by the pipeline itself (``cost``);
            # an adopted result's cost was spent in a worker, off this
            # thread, and is counted below as worker time instead.
            if not event.adopted:
                self.seconds["mssp.slave.ms"] += event.cost
                gap -= event.cost
            self.unattributed += gap
            return
        if kind == "result_adopted":
            self.seconds["mssp.runtime.worker_ms"] += event.cost
        layer = _GAP_LAYER.get(kind)
        if layer is None:
            self.unattributed += gap
        else:
            self.seconds[layer] += gap

    def stop(self) -> None:
        end = self.clock.now()
        self.unattributed += end - self._last
        self.wall = end - self._start

    def rescale(self, factor: float) -> None:
        """Multiply every time by ``factor`` (to the reference speed)."""
        for name in self.seconds:
            self.seconds[name] *= factor
        self.unattributed *= factor
        self.wall *= factor

    def attributed(self) -> float:
        """Seconds of the episode wall claimed by a layer (worker time,
        spent in another process, is not part of the wall)."""
        return sum(
            value for name, value in self.seconds.items()
            if name != "mssp.runtime.worker_ms"
        )


def counts(result) -> Dict[str, float]:
    """The deterministic per-episode counts of one ``MsspResult``."""
    c = result.counters
    judged = c.tasks_committed + c.tasks_squashed
    slave = c.committed_instrs + c.squashed_instrs
    useful = c.committed_instrs + c.recovery_instrs
    d = c.dispatch
    routed = d.adopted + d.reexecuted
    return {
        "mssp.tasks": float(judged),
        "mssp.master.instrs": float(c.master_instrs),
        "mssp.slave.instrs": float(slave),
        "mssp.recovery.instrs": float(c.recovery_instrs),
        "mssp.commit_frac": c.tasks_committed / judged if judged else 0.0,
        "mssp.useful_instr_frac": useful / (slave + c.recovery_instrs),
        "mssp.verify.live_ins": float(c.live_ins_checked),
        "mssp.verify.static_skips": float(c.static_verify_skips),
        "mssp.runtime.adopt_frac": d.adopted / routed if routed else 0.0,
        "mssp.runtime.chunks": float(d.chunks),
        "mssp.runtime.reexecuted": float(d.reexecuted),
    }
