"""Per-cell live-in value predictors trained online from judged tasks.

The distilled master *is* MSSP's live-in predictor; this module adds a
second-level corrector for exactly the cells the master keeps getting
wrong.  A :class:`ValuePredictorBank` tracks one :class:`CellPredictor`
per ``(anchor, register)`` live-in cell the speculation-safety prover
left UNPROVEN, training it at judge time from architected truth (the
in-order judge is the one point every executor backend passes through in
the same order, which keeps training — and therefore behaviour —
bit-identical across the eager and process runtimes).

Three classic predictors run in every cell (training all three costs a
few integer compares): last-value, stride, and a finite-context (order-2
value history) table.  ``kind`` selects which one may override; ``auto``
runs a per-cell tournament and overrides with whichever has trained
best; ``observe`` trains and reports statistics but never overrides.

Overriding is doubly gated so that prediction can only ever *correct* a
persistently wrong master, never perturb a correct one:

* the predictor must have ``confidence`` consecutive correct training
  predictions for the cell, and
* the *master* must have been wrong about the cell on ``miss_gate``
  consecutive judged tasks (the bit-identity gate: on workloads the
  master predicts, the gate never opens and results are bit-identical
  to ``predictors="off"``).

Predictions are frozen into a per-episode snapshot
(:meth:`ValuePredictorBank.begin_episode`) before the pipeline starts
producing tasks, so mid-episode training cannot change what concurrent
backends observe.  Verify/squash is unchanged as the correctness
backstop: an overridden register is still recorded as a live-in by the
slave and still compared against architected truth at judge time.

The bank is picklable (plain dicts and ints, no closures) so engines
embedding one survive the process executor's worker round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["CellPredictor", "CellStats", "ValuePredictorBank"]

#: Order of the finite-context predictor's value history.
CONTEXT_ORDER = 2
#: Cap on distinct contexts tracked per cell (new contexts beyond the
#: cap are ignored — deterministic, no eviction).
CONTEXT_TABLE_CAP = 64

#: Tournament tie-break order (first wins on equal training hits).
_KINDS = ("context", "stride", "last")


@dataclass(frozen=True)
class CellStats:
    """Observed statistics for one predicted cell (``repro analyze``)."""

    anchor: int
    reg: int
    kind: str            # best-trained predictor kind for the cell
    train_hits: int      # would-have-predicted correctly, best kind
    train_misses: int    # would-have-predicted wrongly, best kind
    observations: int    # judged tasks that trained this cell
    master_misses: int   # judged tasks where the master was wrong
    overrides: int       # checkpoints this cell actually patched

    @property
    def hit_rate(self) -> float:
        total = self.train_hits + self.train_misses
        return self.train_hits / total if total else 0.0


class CellPredictor:
    """All three predictors for one ``(anchor, register)`` cell."""

    __slots__ = (
        "last_value", "last_streak",
        "stride", "stride_streak",
        "context", "context_table",
        "hits", "misses",
        "observations", "master_streak", "master_misses", "overrides",
    )

    def __init__(self) -> None:
        # last-value state
        self.last_value: Optional[int] = None
        self.last_streak = 0
        # stride state (prediction is last_value + stride)
        self.stride: Optional[int] = None
        self.stride_streak = 0
        # finite-context state: value-history tuple -> {next value: count}
        self.context: Tuple[int, ...] = ()
        self.context_table: Dict[Tuple[int, ...], Dict[int, int]] = {}
        # per-kind training accuracy (would-have-predicted scoring)
        self.hits = {kind: 0 for kind in _KINDS}
        self.misses = {kind: 0 for kind in _KINDS}
        # master behaviour
        self.observations = 0
        self.master_streak = 0
        self.master_misses = 0
        self.overrides = 0

    # -- prediction --------------------------------------------------------

    def _predict_kind(self, kind: str, confidence: int) -> Optional[int]:
        """The cell's prediction under one kind, or None if unconfident."""
        if kind == "last":
            if self.last_value is not None and self.last_streak >= confidence:
                return self.last_value
            return None
        if kind == "stride":
            if (
                self.last_value is not None
                and self.stride is not None
                and self.stride_streak >= confidence
            ):
                return self.last_value + self.stride
            return None
        if kind == "context":
            counts = self.context_table.get(self.context)
            if not counts:
                return None
            # deterministic argmax: highest count, lowest value breaks ties
            value, count = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            if count >= confidence and count * 2 > sum(counts.values()):
                return value
            return None
        raise ValueError(f"unknown predictor kind {kind!r}")

    def best_kind(self) -> str:
        """Tournament winner: the kind with the most training hits."""
        return max(_KINDS, key=lambda k: (self.hits[k], -_KINDS.index(k)))

    def predict(self, kind: str, confidence: int) -> Optional[int]:
        if kind == "auto":
            kind = self.best_kind()
        return self._predict_kind(kind, confidence)

    # -- training ----------------------------------------------------------

    def train(self, truth: int, master_wrong: bool) -> None:
        """Score each kind's standing prediction against ``truth``, then
        advance all predictor states.  ``confidence=1`` scoring means a
        kind is credited whenever it had *any* prediction."""
        for kind in _KINDS:
            predicted = self._predict_kind(kind, confidence=1)
            if predicted is None:
                continue
            if predicted == truth:
                self.hits[kind] += 1
            else:
                self.misses[kind] += 1
        # last-value
        if self.last_value == truth:
            self.last_streak += 1
        else:
            self.last_streak = 0
        # stride
        if self.last_value is not None:
            stride = truth - self.last_value
            if stride == self.stride:
                self.stride_streak += 1
            else:
                self.stride_streak = 0
            self.stride = stride
        # finite-context
        counts = self.context_table.get(self.context)
        if counts is None and len(self.context_table) < CONTEXT_TABLE_CAP:
            counts = self.context_table[self.context] = {}
        if counts is not None:
            counts[truth] = counts.get(truth, 0) + 1
        self.context = (self.context + (truth,))[-CONTEXT_ORDER:]
        self.last_value = truth
        # master streak
        self.observations += 1
        if master_wrong:
            self.master_streak += 1
            self.master_misses += 1
        else:
            self.master_streak = 0


class ValuePredictorBank:
    """The engine-side collection of cell predictors.

    One bank lives per engine run; the engine trains it from
    ``_judge_task`` and the pipeline consults the episode snapshot when
    opening fork tasks.  ``classify`` restricts prediction to UNPROVEN
    cells and is refreshed (:meth:`retarget`) whenever the safety report
    changes — e.g. after a re-distillation hot swap, which also resets
    every master-miss streak, because the old master's miss history says
    nothing about the new master.
    """

    def __init__(self, kind: str, confidence: int, miss_gate: int) -> None:
        if kind not in ("last", "stride", "context", "auto", "observe"):
            raise ValueError(f"unknown predictor bank kind {kind!r}")
        self.kind = kind
        self.confidence = confidence
        self.miss_gate = miss_gate
        self.cells: Dict[Tuple[int, int], CellPredictor] = {}
        #: Episode-frozen predictions: anchor -> {reg: value}.
        self._snapshot: Dict[int, Dict[int, int]] = {}
        #: Anchors (original pcs) prediction may target; None = all.
        self._anchors: Optional[frozenset] = None
        #: (anchor, reg) cells the prover could NOT prove; None = all
        #: cells predictable (no report available).
        self._unproven: Optional[frozenset] = None
        #: Anchors the safety report actually classified.
        self._classified: frozenset = frozenset()

    # -- targeting ---------------------------------------------------------

    def retarget(self, anchors, safety_report) -> None:
        """Restrict prediction to ``anchors`` and, per anchor, to the
        live-in register cells ``safety_report`` classifies UNPROVEN.
        Cells whose anchor disappeared are dropped; all master-miss
        streaks reset (the master just changed)."""
        self._anchors = frozenset(anchors) if anchors is not None else None
        self._unproven = None
        self._classified = frozenset()
        if safety_report is not None:
            unproven = set()
            classified = set()
            try:
                from repro.analysis.specsafe import CellClass

                for anchor, region in safety_report.regions.items():
                    classified.add(anchor)
                    for reg, cls in region.cells.items():
                        if cls is CellClass.UNPROVEN:
                            unproven.add((anchor, reg))
                self._unproven = frozenset(unproven)
                self._classified = frozenset(classified)
            except Exception:
                self._unproven = None
                self._classified = frozenset()
        if self._anchors is not None:
            self.cells = {
                key: cell
                for key, cell in self.cells.items()
                if key[0] in self._anchors
            }
        for cell in self.cells.values():
            cell.master_streak = 0
        self._snapshot = {}

    def _predictable(self, anchor: int, reg: int) -> bool:
        if reg == 0:
            return False
        if self._anchors is not None and anchor not in self._anchors:
            return False
        if self._unproven is not None:
            # The prover classified this region: only UNPROVEN cells are
            # fair game.  Cells the report never mentions (never observed
            # as live-in during analysis) are treated as unproven.
            if anchor in self._classified and (anchor, reg) not in self._unproven:
                return False
        return True

    # -- training (judge time) ---------------------------------------------

    def observe_task(self, task, arch) -> Tuple[int, int]:
        """Train from one judged task; returns ``(hits, misses)`` scored
        over the cells this task's checkpoint actually overrode.

        Called for every judged non-exact task whose start pc matches the
        architected pc (so ``arch.regs`` *is* the truth at the anchor) —
        committed and squashed alike, before live-outs are applied.
        """
        hits = misses = 0
        anchor = task.start_pc
        regs = arch.regs
        for reg in sorted(task.live_in_regs):
            if not self._predictable(anchor, reg):
                continue
            truth = regs[reg]
            shipped = task.checkpoint.regs[reg]
            if reg in task.predicted_cells:
                master_value = task.predicted_cells[reg]
                if shipped == truth:
                    hits += 1
                else:
                    misses += 1
            else:
                master_value = shipped
            cell = self.cells.get((anchor, reg))
            if cell is None:
                cell = self.cells[(anchor, reg)] = CellPredictor()
            if reg in task.predicted_cells:
                cell.overrides += 1
            cell.train(truth, master_wrong=master_value != truth)
        return hits, misses

    # -- consultation (fork time) -------------------------------------------

    def begin_episode(self) -> None:
        """Freeze the episode snapshot of gate-open, confident cells."""
        snapshot: Dict[int, Dict[int, int]] = {}
        if self.kind == "observe":
            self._snapshot = snapshot
            return
        for (anchor, reg), cell in self.cells.items():
            if cell.master_streak < self.miss_gate:
                continue
            value = cell.predict(self.kind, self.confidence)
            if value is None:
                continue
            snapshot.setdefault(anchor, {})[reg] = value
        self._snapshot = snapshot

    def predictions_for(self, anchor: int) -> Optional[Dict[int, int]]:
        """The episode-frozen overrides for one fork anchor (or None)."""
        return self._snapshot.get(anchor)

    # -- reporting ----------------------------------------------------------

    def cell_stats(self) -> List[CellStats]:
        """Per-cell observed statistics, sorted by (anchor, reg)."""
        out = []
        for (anchor, reg), cell in sorted(self.cells.items()):
            kind = self.kind if self.kind in _KINDS else cell.best_kind()
            out.append(CellStats(
                anchor=anchor,
                reg=reg,
                kind=kind,
                train_hits=cell.hits[kind],
                train_misses=cell.misses[kind],
                observations=cell.observations,
                master_misses=cell.master_misses,
                overrides=cell.overrides,
            ))
        return out

    def stats_for(self, anchor: int) -> Dict[int, CellStats]:
        """``{reg: CellStats}`` for one anchor."""
        return {s.reg: s for s in self.cell_stats() if s.anchor == anchor}
