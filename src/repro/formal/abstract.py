"""Executable form of the companion paper's abstract MSSP model.

The supplied companion paper ("Formally Defining and Verifying MSSP",
Salverda, Roşu & Zilles) models machine state as a partial map from
storage cells to values, and builds MSSP's correctness argument from
three ingredients:

* **superimposition** ``S1 ← S2`` (Definition 8): overwrite ``S1`` with
  ``S2``'s cells; associative, and idempotent under containment;
* **consistency** ``S1 ⊑ S2``: every cell of ``S1`` exists in ``S2`` with
  the same value;
* **task safety** (Definition 6): task ``t`` is safe for ``S`` iff
  ``seq(S, #t) = S ← live_out(t)``.

This module implements those objects over concrete dict-based states so
the paper's lemmas and Theorem 2 (*consistency + completeness ⇒ safety*)
can be property-tested with hypothesis rather than proved in Maude.  The
``next`` function is a parameter, mirroring the paper's uninterpreted
``next : S → S``.

Cells here are opaque hashable keys.  :mod:`repro.formal.bridge` relates
this abstract model to the concrete Z-ISA machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Mapping, Tuple

Cell = Hashable
#: Abstract machine state: a partial map from cells to values.
MState = Mapping[Cell, int]
#: The paper's uninterpreted ``next``: one instruction's effect.
NextFn = Callable[[MState], MState]


def superimpose(base: MState, overlay: MState) -> Dict[Cell, int]:
    """The paper's ``base ← overlay``: overlay cells win, others persist."""
    result = dict(base)
    result.update(overlay)
    return result


def consistent(subset: MState, superset: MState) -> bool:
    """The paper's ``subset ⊑ superset``."""
    return all(
        cell in superset and superset[cell] == value
        for cell, value in subset.items()
    )


def seq_n(state: MState, n: int, next_fn: NextFn) -> MState:
    """The paper's ``seq(S, n)``: advance ``state`` by ``n`` steps."""
    current = state
    for _ in range(n):
        current = next_fn(current)
    return current


def delta(state: MState, next_fn: NextFn) -> Dict[Cell, int]:
    """The paper's ``δ(S)``: the write-set of the next instruction.

    Concretely: the cells on which ``next(S)`` differs from (or extends)
    ``S``.  By construction ``next(S) = S ← δ(S)`` whenever ``next`` only
    adds/updates cells (the paper's completeness assumption).
    """
    after = next_fn(state)
    return {
        cell: value
        for cell, value in after.items()
        if cell not in state or state[cell] != value
    }


def cumulative_writes(state: MState, n: int, next_fn: NextFn) -> Dict[Cell, int]:
    """The paper's ``Δ(S, n)`` (Definition 10): accrued write-sets."""
    writes: Dict[Cell, int] = {}
    current = state
    for _ in range(n):
        step_writes = delta(current, next_fn)
        writes = superimpose(writes, step_writes)
        current = next_fn(current)
    return writes


@dataclass(frozen=True)
class AbstractTask:
    """The paper's task 4-tuple ⟨S_in, n, S_out, k⟩ (Definition 4)."""

    live_in: Tuple[Tuple[Cell, int], ...]
    n: int
    live_out: Tuple[Tuple[Cell, int], ...]
    k: int = 0

    @classmethod
    def fresh(cls, live_in: MState, n: int) -> "AbstractTask":
        """A newly created task: ⟨S_in, n, S_in, 0⟩."""
        items = tuple(sorted(live_in.items(), key=repr))
        return cls(live_in=items, n=n, live_out=items, k=0)

    @property
    def live_in_state(self) -> Dict[Cell, int]:
        return dict(self.live_in)

    @property
    def live_out_state(self) -> Dict[Cell, int]:
        return dict(self.live_out)

    @property
    def complete(self) -> bool:
        return self.k == self.n

    def evolve(self, next_fn: NextFn) -> "AbstractTask":
        """One slave step (Definition 5): advance live-outs by ``next``."""
        if self.complete:
            return self
        advanced = next_fn(self.live_out_state)
        return AbstractTask(
            live_in=self.live_in, n=self.n,
            live_out=tuple(sorted(advanced.items(), key=repr)), k=self.k + 1,
        )

    def run_to_completion(self, next_fn: NextFn) -> "AbstractTask":
        """Lemma 2: ⟨S_in, n, S_in, 0⟩ ⇒* ⟨S_in, n, seq(S_in, n), n⟩."""
        task = self
        while not task.complete:
            task = task.evolve(next_fn)
        return task


def task_safe(task: AbstractTask, state: MState, next_fn: NextFn) -> bool:
    """Definition 6: ``t`` safe for ``S`` iff ``seq(S, #t) = S ← live_out(t)``."""
    expected = seq_n(state, task.n, next_fn)
    committed = superimpose(state, task.live_out_state)
    return dict(expected) == committed


def mssp_commit(task: AbstractTask, state: MState) -> Dict[Cell, int]:
    """Definition 7: MSSP's refined step is superimposition of live-outs."""
    return superimpose(state, task.live_out_state)


def mssp_run(
    state: MState,
    tasks: Tuple[AbstractTask, ...],
    next_fn: NextFn,
) -> Tuple[Dict[Cell, int], int]:
    """Definition 3 driven to quiescence.

    Repeatedly commits *some* safe task from the multiset (first safe in
    the given order — the model proves order does not matter for
    correctness, only for how many tasks end up committable) and discards
    the rest when none is safe.  Returns the final state and the number
    of instructions jumped.
    """
    current = dict(state)
    remaining = list(tasks)
    jumped = 0
    while remaining:
        for index, task in enumerate(remaining):
            if task.complete and task_safe(task, current, next_fn):
                current = mssp_commit(task, current)
                jumped += task.n
                remaining.pop(index)
                break
        else:
            break  # No safe member: discard the remainder (Section 4.3).
    return current, jumped
